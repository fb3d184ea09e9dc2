"""Output checks, written without the library so they cannot share its bugs.

Each check returns a list of problems; an empty list means the artifacts are
correct. The readers here parse the documented on-disk formats directly.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

STRICT = tuple(f"{0.50 + 0.05 * k:.2f}" for k in range(10))
THRESHOLDS = ("0.25",) + STRICT


def digests(root, pattern="*"):
    """sha256 of every file under root matching pattern, by relative path."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob(pattern)) if p.is_file()
    }


def read_manifest(path):
    """[(sorted point ids, confidence, kind)] of an instance manifest."""
    path = Path(path)
    items = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rel, kind, conf = line.split()
        ids = np.array((path.parent / rel).read_text().split(), dtype=np.int64)
        items.append((ids, float(conf), kind))
    return items


def point_count(scene_dir):
    with open(Path(scene_dir) / "points.p2o", "rb") as fh:
        return struct.unpack("<4sI", fh.read(8))[1]


def oracle_ap(scenes):
    """AP per threshold for scenes of ([(ids, conf)], [gt ids]), pooled.

    Predictions rank by confidence, then size, then pooled order; each takes
    the unmatched ground truth of its own scene with the highest IoU, and
    counts when that IoU reaches the threshold. AP is the area under the
    precision envelope.
    """
    preds, ious = [], []  # ious[k]: {pooled gt index: IoU} within k's scene
    n_gt = 0
    for scene_preds, scene_gt in scenes:
        for ids, conf in scene_preds:
            preds.append((conf, ids.size))
            row = {}
            for g, gids in enumerate(scene_gt):
                inter = np.intersect1d(ids, gids, assume_unique=True).size
                row[n_gt + g] = inter / (ids.size + gids.size - inter)
            ious.append(row)
        n_gt += len(scene_gt)
    order = sorted(range(len(preds)), key=lambda k: (-preds[k][0], -preds[k][1], k))
    aps = {}
    for key in THRESHOLDS:
        theta = float(key)
        taken = set()
        tp = []
        for k in order:
            best, best_g = 0.0, None
            for g, iou in ious[k].items():
                if g not in taken and iou > best:
                    best, best_g = iou, g
            hit = best_g is not None and best >= theta
            if hit:
                taken.add(best_g)
            tp.append(hit)
        if not n_gt or not tp:
            aps[key] = 0.0
            continue
        cum = np.cumsum(tp)
        recall = cum / n_gt
        precision = cum / np.arange(1, len(tp) + 1)
        ap, prev = 0.0, 0.0
        for i, r in enumerate(recall):
            if r > prev:
                ap += (r - prev) * precision[i:].max()
                prev = r
        aps[key] = ap
    return aps


def check_report(report_path, scenes):
    """The report's APs equal the oracle's and are internally consistent."""
    report = json.loads(Path(report_path).read_text())
    want = oracle_ap(scenes)
    got = report["ap_by_threshold"]
    problems = [f"AP@{k}: report {got.get(k)} != oracle {want[k]}"
                for k in THRESHOLDS if abs(got.get(k, -1.0) - want[k]) > 1e-9]
    if report["ap25"] != got["0.25"] or report["ap50"] != got["0.50"]:
        problems.append("ap25/ap50 differ from ap_by_threshold")
    if abs(report["map"] - np.mean([got[k] for k in STRICT])) > 1e-12:
        problems.append("map is not the mean of AP over 0.50:0.95")
    return problems


def check_monotone(report_path):
    got = json.loads(Path(report_path).read_text())["ap_by_threshold"]
    aps = [got[k] for k in STRICT]
    if any(b > a + 1e-12 for a, b in zip(aps, aps[1:])):
        return [f"AP increases over 0.50:0.95: {aps}"]
    return []


def _partition(arrays, n):
    """True when the arrays together hold every id in [0, n) exactly once."""
    flat = np.sort(np.concatenate(arrays)) if arrays else np.empty(0, np.int64)
    return np.array_equal(flat, np.arange(n))


def check_run(scene_dir, out_dir):
    """Invariants of one `p2o run --out` directory over its input scene."""
    scene_dir, out_dir = Path(scene_dir), Path(out_dir)
    problems = []
    n = point_count(scene_dir)
    h = json.loads((out_dir / "hierarchy.json").read_text())
    layers = h["layers"]
    if h["n_points"] != n:
        problems.append(f"hierarchy n_points {h['n_points']} != scene {n}")
    if not _partition([np.asarray(c["points"], np.int64) for c in layers[0]["clusters"]], n):
        problems.append("hierarchy layer 0 does not partition the points")
    for t in range(1, len(layers)):
        children = [np.asarray(c["children"], np.int64) for c in layers[t]["clusters"]]
        if not _partition(children, len(layers[t - 1]["clusters"])):
            problems.append(f"hierarchy layer {t} does not partition layer {t - 1}")

    objects = read_manifest(out_dir / "objects.txt")
    parts = read_manifest(out_dir / "parts.txt")
    cursor = 0
    for k, (ids, _, _) in enumerate(objects):
        members = []
        while cursor < len(parts) and sum(m.size for m in members) < ids.size:
            members.append(parts[cursor][0])
            cursor += 1
        joined = np.sort(np.concatenate(members)) if members else np.empty(0, np.int64)
        if not np.array_equal(joined, ids):
            problems.append(f"parts of object {k} do not partition it")
    if cursor != len(parts):
        problems.append("parts left over after the last object")

    gt = [ids for ids, _, kind in read_manifest(scene_dir / "ground_truth.txt")
          if kind == "object"]
    problems += check_report(out_dir / "report.json",
                             [([(ids, conf) for ids, conf, _ in objects], gt)])
    return problems


def check_eval(inputs_dir, report_path):
    """The pooled report matches the oracle over every scene's manifests."""
    scenes = []
    for scene in sorted(Path(inputs_dir).glob("scene_*")):
        preds = [(ids, conf) for ids, conf, kind in read_manifest(scene / "pred.txt")
                 if kind == "object"]
        gt = [ids for ids, _, kind in read_manifest(scene / "gt.txt") if kind == "object"]
        scenes.append((preds, gt))
    return check_report(report_path, scenes) + check_monotone(report_path)
