"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces module attributes of ``part2object`` with timing
wrappers. The library calls its own functions through module globals
(``hierarchy.run_layer`` calls ``candidate_pairs``, which calls the
``labeled_close_pairs`` name it imported), so wrapping the attribute in the
calling module sees every internal call without editing the library.

Each wrapped call records one span (name, start, end, parent span id) under
the tracer's run id. Spans stay in memory until ``dump`` writes them.
Counters derived from return values (pairs found, candidates per round) are
taken at the same boundaries.
"""

import json
import os
import time
from collections import defaultdict

# Most merge rounds run_hierarchy can execute at the default max_layers=10:
# layer 0 plus at most nine rounds.
ROUNDS = 9


def _close_pairs(tracer, args, result):
    tracer.counts["spatial.close_pairs"] += len(result)


def _superpoints(tracer, args, result):
    tracer.counts["superpoints.count"] += len(result)


def _tracks_formed(tracer, args, result):
    tracer.counts["objectness.tracks_formed"] += len(result)


def _tracks_kept(tracer, args, result):
    tracer.counts["objectness.tracks_kept"] += len(result)


def _round(tracer, args, result):
    log = result[2]
    tracer.rounds.append((log.n_candidates, len(log.accepted), len(log.rejected_stop)))


def _clusters_final(tracer, args, result):
    tracer.counts["hierarchy.clusters_final"] = len(result.layers[-1])


def _iou(tracer, args, result):
    tracer.counts["evaluation.mask_iou_nonzero"] += result > 0.0


def _json_bytes(tracer, args, result):
    tracer.counts["cli.write_json_bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, counter hook). The span is named after the
# module that defines the function; the attribute is patched in the module
# that calls it.
WRAPPED = (
    ("cli", "write_json", "cli.write_json", _json_bytes),
    ("scene_io", "load_scene", "scene_io.load_scene", None),
    ("scene_io", "estimate_normals", "scene_io.estimate_normals", None),
    ("scene_io", "load_frames", "scene_io.load_frames", None),
    ("scene_io", "load_instances", "scene_io.load_instances", None),
    ("scene_io", "write_instances", "scene_io.write_instances", None),
    ("superpoints", "build_superpoints", "superpoints.build_superpoints", _superpoints),
    ("objectness", "build_tracks", "objectness.build_tracks", _tracks_kept),
    ("objectness", "match_adjacent", "objectness.match_adjacent", None),
    ("objectness", "propagate_sameness", "objectness.propagate_sameness", _tracks_formed),
    ("objectness", "project_mask_points", "objectness.project_mask_points", None),
    ("hierarchy", "run_hierarchy", "hierarchy.run_hierarchy", _clusters_final),
    ("hierarchy", "run_layer", "hierarchy.run_layer", _round),
    ("hierarchy", "candidate_pairs", "hierarchy.candidate_pairs", None),
    ("hierarchy", "labeled_close_pairs", "spatial.labeled_close_pairs", _close_pairs),
    ("hierarchy", "fuse_feature", "features.fuse_feature", None),
    ("hierarchy", "collect_objects", "hierarchy.collect_objects", None),
    ("hierarchy", "collect_parts", "hierarchy.collect_parts", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "mask_iou", "evaluation.mask_iou", _iou),
)

# Spans whose total time is a per-layer metric (<span>_s), and spans whose
# call count is one (<span>_calls).
TIMED = (
    "hierarchy.candidate_pairs", "spatial.labeled_close_pairs",
    "hierarchy.run_hierarchy", "hierarchy.collect_objects", "hierarchy.collect_parts",
    "features.fuse_feature", "objectness.build_tracks", "objectness.project_mask_points",
    "objectness.match_adjacent", "superpoints.build_superpoints", "scene_io.load_scene",
    "scene_io.estimate_normals", "scene_io.load_frames", "scene_io.load_instances",
    "scene_io.write_instances", "cli.write_json", "evaluation.evaluate",
)
COUNTED = ("features.fuse_feature", "objectness.project_mask_points", "evaluation.mask_iou")


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent id]; id is the list index
        self.stack = []
        self.counts = defaultdict(int)
        self.rounds = []  # (candidates, accepted, vetoed) per run_layer call
        self.missing = []

    def install(self, package):
        """Wrap every WRAPPED attribute that exists in the given package."""
        for module_name, attr, span, hook in WRAPPED:
            module = getattr(package, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(span)
                continue
            setattr(module, attr, self._wrap(fn, span, hook))

    def _wrap(self, fn, span, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [span, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(record)
            stack.append(sid)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def metrics(self):
        """Per-layer metrics of this command, and the names reported missing.

        A metric derived from a function that could not be wrapped (it no
        longer exists) reads 0 and is named in the missing list.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        out, missing = {}, []

        def put(metric, value, *sources):
            out[metric] = value
            if any(source in self.missing for source in sources):
                missing.append(metric)

        for span in TIMED:
            put(f"{span}_s", total[span], span)
        for span in COUNTED:
            put(f"{span}_calls", calls[span], span)

        layer = "hierarchy.run_layer"
        layer_spans = [(sid, s) for sid, s in enumerate(self.spans) if s[0] == layer]
        candidates = sum(r[0] for r in self.rounds)
        accepted = sum(r[1] for r in self.rounds)
        put("hierarchy.run_layer_self_s",
            sum(s[2] - s[1] - child_time[sid] for sid, s in layer_spans), layer)
        put("hierarchy.rounds", len(self.rounds), layer)
        put("hierarchy.candidates", candidates, layer)
        put("hierarchy.accepted", accepted, layer)
        put("hierarchy.vetoed", sum(r[2] for r in self.rounds), layer)
        put("hierarchy.accept_ratio", accepted / candidates if candidates else 0.0, layer)
        for k in range(ROUNDS):
            ran = k < len(self.rounds)
            put(f"hierarchy.round.{k}_s",
                layer_spans[k][1][2] - layer_spans[k][1][1] if ran else 0.0, layer)
            put(f"hierarchy.round.{k}_candidates", self.rounds[k][0] if ran else 0, layer)

        counts = self.counts
        formed, kept = counts["objectness.tracks_formed"], counts["objectness.tracks_kept"]
        ious = calls["evaluation.mask_iou"]
        put("hierarchy.clusters_final", counts["hierarchy.clusters_final"],
            "hierarchy.run_hierarchy")
        put("spatial.close_pairs", counts["spatial.close_pairs"],
            "spatial.labeled_close_pairs")
        put("superpoints.count", counts["superpoints.count"], "superpoints.build_superpoints")
        put("objectness.tracks_formed", formed, "objectness.propagate_sameness")
        put("objectness.tracks_kept", kept, "objectness.build_tracks")
        put("objectness.track_keep_ratio", kept / formed if formed else 0.0,
            "objectness.propagate_sameness", "objectness.build_tracks")
        put("cli.write_json_bytes", counts["cli.write_json_bytes"], "cli.write_json")
        put("evaluation.mask_iou_nonzero_ratio",
            counts["evaluation.mask_iou_nonzero"] / ious if ious else 0.0,
            "evaluation.mask_iou")
        # Time inside spans with no traced parent: divided by the traced
        # wall_s, the share of the command the layer spans account for.
        out["trace.top_level_s"] = sum(e - s for _, s, e, p in self.spans if p is None)
        return out, sorted(missing)

    def dump(self, path):
        """Write every span of this run as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": [[sid, *s] for sid, s in enumerate(self.spans)],
            }, fh)
