"""Class-agnostic instance segmentation AP over point-id masks.

Predictions are sorted by confidence (ties: larger masks first, then input
order), greedily matched to the unmatched ground truth with highest IoU, and
scored with the all-points interpolated area under the precision-recall
curve. mean_ap averages the IoU thresholds 0.50:0.95 in steps of 0.05;
ap25/ap50 are read at fixed thresholds.

Cost: each scene is scored on its own. Its ground-truth ids fill one table
over their span, table[id - lo] naming the id's ground truth, and each
prediction's ids are looked up in it with one gather to find the ground
truths it touches, i.e. shares an id with. Where the span exceeds
TABLE_SPAN_PER_ID times the id count, the ids are sorted once instead and
searched (searchsorted), so no table grows with a sparse or huge id. Only
touching pairs are scored, each once by mask_iou, and kept as a short list
per prediction. Each threshold then makes one greedy pass over those lists.
Memory grows with the ids plus the touching pairs, never with P x G.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OverlappingGroundTruth

REPORT_SCHEMA = "p2o.report/1"

# Every report scores these IoU thresholds; mean_ap averages the strict ones.
STRICT_THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
DEFAULT_THRESHOLDS = (0.25,) + STRICT_THRESHOLDS

# A scene's ground truth is looked up in a table over the span of its ids
# while that span is at most this many times the id count; sparser ids are
# binary-searched.
TABLE_SPAN_PER_ID = 8


def mask_iou(a, b):
    """Intersection over union of two point-id sets (both empty -> 0).

    The intersection is counted as the equal neighbours of one stable sort
    of both arrays, which merges two sorted inputs in linear time.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 and b.size == 0:
        return 0.0
    both = np.sort(np.concatenate((a, b)), kind="stable")
    inter = int(np.count_nonzero(both[1:] == both[:-1]))
    union = a.size + b.size - inter
    return inter / union


def _touching(pred_sets, gt_sets, first_g, scene):
    """For each prediction of one scene, its (IoU, ground truth) pairs, best first.

    A pair is listed only when the two share an id, and is scored by
    mask_iou; ground truths are numbered from first_g, and equal IoUs list
    the lower number first. Every array must hold distinct ids, and the
    ground-truth arrays must be pairwise disjoint (OverlappingGroundTruth
    naming scene and one shared id otherwise), so that each prediction id
    lands in at most one ground-truth instance.

    A dense span of ground-truth ids [lo, hi] becomes one table holding
    1 + g at 1 + id - lo and 0 elsewhere, its first and last entries catching
    the ids clipped from below and above; the ground truths are disjoint when
    it holds as many filled entries as there are ids. A sparser span is
    sorted once and each prediction searched in it.
    """
    pooled = np.concatenate([np.empty(0, dtype=np.int64), *gt_sets])
    if pooled.size == 0:
        return [[] for _ in pred_sets]
    labels = np.repeat(np.arange(1, len(gt_sets) + 1), [g.size for g in gt_sets])
    lo, hi = int(pooled.min()), int(pooled.max())
    if hi - lo < TABLE_SPAN_PER_ID * pooled.size:
        table = np.zeros(hi - lo + 3, dtype=np.intp)
        table[pooled - (lo - 1)] = labels
        if np.count_nonzero(table) < pooled.size:
            _raise_overlap(np.sort(pooled), scene)

        def found(pset):
            return table.take(pset - (lo - 1), mode="clip")
    else:
        order = np.argsort(pooled, kind="stable")
        ids, labels = pooled[order], labels[order]
        _raise_overlap(ids, scene)

        def found(pset):
            pos = np.minimum(np.searchsorted(ids, pset), ids.size - 1)
            return labels[pos[ids[pos] == pset]]

    pairs = []
    for pset in pred_sets:
        hits = np.bincount(found(pset), minlength=len(gt_sets) + 1)[1:]
        touched = [(mask_iou(pset, gt_sets[g]), first_g + int(g))
                   for g in np.flatnonzero(hits)]
        touched.sort(key=lambda pair: -pair[0])
        pairs.append(touched)
    return pairs


def _raise_overlap(ids, scene):
    """Raise OverlappingGroundTruth if sorted ids repeat one."""
    repeats = np.flatnonzero(ids[1:] == ids[:-1])
    if repeats.size:
        raise OverlappingGroundTruth(int(ids[repeats[0]]), scene)


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
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
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

    Each scene's pairs are found within that scene, so instances never match
    across scenes. Pooled tie-breaks follow scene order then manifest order,
    matching the single-scene convention, and ground truth is numbered the
    same way. The instances were checked when they were made, so their id
    arrays are scored as they are.
    """
    confidences, sizes, touching = [], [], []
    n_gt = 0
    for scene, (preds, gt) in enumerate(scene_pairs):
        pred_sets = [inst.point_ids for inst in preds.instances]
        gt_sets = [inst.point_ids for inst in gt.instances]
        touching += _touching(pred_sets, gt_sets, n_gt, scene)
        confidences += [inst.confidence for inst in preds.instances]
        sizes += [p.size for p in pred_sets]
        n_gt += len(gt_sets)

    order = sorted(range(len(touching)), key=lambda k: (-confidences[k], -sizes[k], k))

    ap_by_threshold = {}
    curves = {}
    matches = {}
    gt_empty = n_gt == 0
    for theta in DEFAULT_THRESHOLDS:
        assigned = [None] * len(order)
        taken = set()
        tp = np.zeros(len(order))
        for rank, k in enumerate(order):
            # touching[k] lists the best first, and every other IoU is 0 < theta:
            # the first untaken one is the argmax over the untaken ground truth
            for iou, g in touching[k]:
                if g not in taken:
                    if iou >= theta:
                        taken.add(g)
                        tp[rank] = 1.0
                        assigned[k] = g
                    break
        if gt_empty or not order:
            recalls = np.zeros(len(order))
            precisions = np.zeros(len(order))
            ap = 0.0
        else:
            cum_tp = np.cumsum(tp)
            cum_fp = np.cumsum(1.0 - tp)
            recalls = cum_tp / n_gt
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
