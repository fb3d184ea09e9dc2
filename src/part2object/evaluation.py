"""Class-agnostic instance segmentation AP over point-id masks.

Predictions are sorted by confidence (ties: larger masks first, then input
order), greedily matched to the unmatched ground truth with highest IoU, and
scored with the all-points interpolated area under the precision-recall
curve. mean_ap averages the IoU thresholds 0.50:0.95 in steps of 0.05;
ap25/ap50 are read at fixed thresholds.

Cost: the pooled ground-truth ids are sorted once, each prediction's ids are
looked up in them once (searchsorted) to find the ground truth it touches,
each touching pair is scored once by mask_iou to fill a P x G IoU matrix
(all other pairs are 0), and each threshold then makes one greedy pass over
the rows of that matrix.
"""

from dataclasses import dataclass, field

import numpy as np

REPORT_SCHEMA = "p2o.report/1"

# Every report scores these IoU thresholds; mean_ap averages the strict ones.
STRICT_THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
DEFAULT_THRESHOLDS = (0.25,) + STRICT_THRESHOLDS


def mask_iou(a, b):
    """Intersection over union of two point-id sets (both empty -> 0)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union


def _iou_matrix(pred_sets, gt_sets):
    """P x G IoU of point-id arrays; pairs that share no id read 0.

    Every array must hold distinct ids, and the ground-truth arrays must be
    pairwise disjoint (ValueError otherwise), so that each prediction id
    lands in at most one ground-truth instance. Only the pairs that share an
    id are scored, each by mask_iou.
    """
    gt_sizes = np.array([g.size for g in gt_sets], dtype=np.int64)
    iou = np.zeros((len(pred_sets), gt_sizes.size))
    pooled = np.concatenate([np.empty(0, dtype=np.int64), *gt_sets])
    order = np.argsort(pooled, kind="stable")
    ids = pooled[order]
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("ground-truth instances must be pairwise disjoint")
    labels = np.repeat(np.arange(gt_sizes.size), gt_sizes)[order]
    if ids.size:
        for row, pset in zip(iou, pred_sets):
            pos = np.minimum(np.searchsorted(ids, pset), ids.size - 1)
            for g in np.unique(labels[pos[ids[pos] == pset]]):
                row[g] = mask_iou(pset, gt_sets[g])
    return iou


@dataclass
class ApReport:
    ap25: float
    ap50: float
    mean_ap: float
    ap_by_threshold: dict
    curves: dict = field(default_factory=dict)
    matches: dict = field(default_factory=dict)
    gt_empty: bool = False

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "ap25": self.ap25,
            "ap50": self.ap50,
            "map": self.mean_ap,
            "ap_by_threshold": {f"{t:.2f}": v for t, v in self.ap_by_threshold.items()},
            "curves": {
                f"{t:.2f}": {"recall": list(r), "precision": list(p)}
                for t, (r, p) in self.curves.items()
            },
            "matches": {
                f"{t:.2f}": [m if m is None else int(m) for m in ms]
                for t, ms in self.matches.items()
            },
            "gt_empty": self.gt_empty,
        }


def _interpolated_ap(recalls, precisions):
    """Area under the precision envelope (all-points interpolation)."""
    mrec = np.concatenate(([0.0], recalls, [1.0]))
    mpre = np.concatenate(([0.0], precisions, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


def evaluate(preds, gt):
    """Score predictions against disjoint ground-truth instances.

    Both arguments are InstanceSets; kinds are not inspected (pass object
    instances). Empty ground truth yields zero APs with gt_empty set. The
    matching and all reported numbers are deterministic.
    """
    return evaluate_multi([(preds, gt)])


def evaluate_multi(scene_pairs):
    """Pool several scenes' (preds, gt) into one AP curve, as evaluate scores one.

    Point ids are namespaced per scene by offsetting, so instances never
    match across scenes. Pooled tie-breaks follow scene order then manifest
    order, matching the single-scene convention. The instances were checked
    when they were made, and an offset keeps ids sorted and non-negative, so
    the pooled id arrays are scored as they are.
    """
    pred_ids, confidences, gt_sets = [], [], []
    offset = 0
    for preds, gt in scene_pairs:
        top = 0
        for inst in list(preds.instances) + list(gt.instances):
            if inst.point_ids.size:
                top = max(top, int(inst.point_ids.max()) + 1)
        for inst in preds.instances:
            pred_ids.append(inst.point_ids + offset)
            confidences.append(inst.confidence)
        gt_sets.extend(inst.point_ids + offset for inst in gt.instances)
        offset += top

    order = sorted(
        range(len(pred_ids)),
        key=lambda k: (-confidences[k], -pred_ids[k].size, k),
    )
    pred_sets = [pred_ids[k] for k in order]
    iou = _iou_matrix(pred_sets, gt_sets)

    ap_by_threshold = {}
    curves = {}
    matches = {}
    gt_empty = not gt_sets
    for theta in DEFAULT_THRESHOLDS:
        assigned = [None] * len(pred_ids)
        gt_taken = np.zeros(len(gt_sets), dtype=bool)
        tp = np.zeros(len(pred_sets))
        if not gt_empty:
            for rank, row in enumerate(iou):
                # argmax keeps the first (lowest-index) ground truth on a tie
                free = np.where(gt_taken, 0.0, row)
                best_g = int(free.argmax())
                if free[best_g] >= theta:
                    gt_taken[best_g] = True
                    tp[rank] = 1.0
                    assigned[order[rank]] = best_g
        if gt_empty or not pred_sets:
            recalls = np.zeros(len(pred_sets))
            precisions = np.zeros(len(pred_sets))
            ap = 0.0
        else:
            cum_tp = np.cumsum(tp)
            cum_fp = np.cumsum(1.0 - tp)
            recalls = cum_tp / len(gt_sets)
            precisions = cum_tp / (cum_tp + cum_fp)
            ap = _interpolated_ap(recalls, precisions)
        ap_by_threshold[theta] = ap
        curves[theta] = (recalls.tolist(), precisions.tolist())
        matches[theta] = assigned

    return ApReport(
        ap25=ap_by_threshold[0.25],
        ap50=ap_by_threshold[0.50],
        mean_ap=float(np.mean([ap_by_threshold[t] for t in STRICT_THRESHOLDS])),
        ap_by_threshold=ap_by_threshold,
        curves=curves,
        matches=matches,
        gt_empty=gt_empty,
    )
