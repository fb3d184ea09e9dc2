import json
import tracemalloc

import numpy as np
import pytest

from part2object.errors import OverlappingGroundTruth
from part2object.evaluation import (
    DEFAULT_THRESHOLDS,
    STRICT_THRESHOLDS,
    TABLE_SPAN_PER_ID,
    ApReport,
    _interpolated_ap,
    _touching,
    evaluate,
    evaluate_multi,
    mask_iou,
)
from part2object.scene_io import Instance, InstanceSet


def oracle_ap(pred_items, gt_sets, theta):
    """Literal greedy matching + envelope integral, independent of the library.

    pred_items: list of (point-id set, confidence) in manifest order.
    """
    order = sorted(
        range(len(pred_items)),
        key=lambda k: (-pred_items[k][1], -len(pred_items[k][0]), k),
    )
    taken = set()
    flags = []
    for k in order:
        pset = pred_items[k][0]
        best_iou, best_g = 0.0, None
        for g, gset in enumerate(gt_sets):
            if g in taken:
                continue
            union = len(pset | gset)
            iou = len(pset & gset) / union if union else 0.0
            if iou > best_iou:
                best_iou, best_g = iou, g
        if best_g is not None and best_iou >= theta:
            taken.add(best_g)
            flags.append(1)
        else:
            flags.append(0)
    if not gt_sets:
        return 0.0
    points = []
    tp = fp = 0
    for f in flags:
        tp += f
        fp += 1 - f
        points.append((tp / len(gt_sets), tp / (tp + fp)))
    ap = 0.0
    prev_r = 0.0
    for r, _p in points:
        if r > prev_r:
            envelope = max(pp for rr, pp in points if rr >= r)
            ap += (r - prev_r) * envelope
            prev_r = r
    return ap


def reference_mask_iou(a, b):
    """Pairwise IoU through intersect1d (both empty -> 0)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union


def reference_evaluate(preds, gt, thresholds=DEFAULT_THRESHOLDS):
    """evaluate as a per-threshold loop recomputing every pairwise IoU."""
    gt_sets = [inst.point_ids for inst in gt.instances]
    if gt_sets:
        pooled = np.concatenate(gt_sets)
        if np.unique(pooled).size != pooled.size:
            raise ValueError("ground-truth instances must be pairwise disjoint")

    order = sorted(
        range(len(preds.instances)),
        key=lambda k: (-preds.instances[k].confidence, -preds.instances[k].point_ids.size, k),
    )
    pred_sets = [preds.instances[k].point_ids for k in order]

    ap_by_threshold = {}
    curves = {}
    matches = {}
    gt_empty = not gt_sets
    for theta in thresholds:
        assigned = [None] * len(preds.instances)
        gt_taken = np.zeros(len(gt_sets), dtype=bool)
        tp = np.zeros(len(pred_sets))
        for rank, pset in enumerate(pred_sets):
            best_iou, best_g = 0.0, None
            for g, gset in enumerate(gt_sets):
                if gt_taken[g]:
                    continue
                iou = reference_mask_iou(pset, gset)
                if iou > best_iou:
                    best_iou, best_g = iou, g
            if best_g is not None and best_iou >= theta:
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

    strict = [ap_by_threshold[t] for t in STRICT_THRESHOLDS if t in ap_by_threshold]
    return ApReport(
        ap25=ap_by_threshold.get(0.25, 0.0),
        ap50=ap_by_threshold.get(0.50, 0.0),
        mean_ap=float(np.mean(strict)) if strict else 0.0,
        ap_by_threshold=ap_by_threshold,
        curves=curves,
        matches=matches,
        gt_empty=gt_empty,
    )


def report_json(report):
    return json.dumps(report.to_dict())


def instset(*id_lists, confs=None, kind="object"):
    confs = confs or [1.0] * len(id_lists)
    return InstanceSet(
        [Instance(np.asarray(sorted(ids), dtype=np.int64), c, kind)
         for ids, c in zip(id_lists, confs)]
    )


# ---------------------------------------------------------------------------
# mask_iou


def test_iou_identical():
    assert mask_iou([1, 2, 3], [1, 2, 3]) == 1.0


def test_iou_disjoint():
    assert mask_iou([1, 2], [3, 4]) == 0.0


def test_iou_half_overlap():
    a = np.arange(100)
    b = np.arange(50, 150)
    assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_both_empty_is_zero():
    assert mask_iou([], []) == 0.0


def test_iou_equals_reference_on_unsorted_ids():
    rng = np.random.default_rng(91)
    for _ in range(300):
        universe = int(rng.choice([3, 40, 2000]))
        a, b = (rng.permutation(universe)[: int(rng.integers(0, universe + 1))]
                for _ in range(2))
        if rng.random() < 0.3:  # repeated ids, as in no instance
            a = rng.integers(0, universe, size=int(rng.integers(0, universe + 1)))
        assert mask_iou(a, b) == reference_mask_iou(a, b)
        assert mask_iou(list(b), list(a)) == reference_mask_iou(b, a)


# ---------------------------------------------------------------------------
# evaluate


def test_identity_predictions_score_one():
    gt = instset(range(10), range(10, 30), range(40, 45))
    report = evaluate(gt, gt)
    assert report.ap25 == 1.0
    assert report.ap50 == 1.0
    assert report.mean_ap == 1.0


def test_disjoint_predictions_score_zero():
    gt = instset(range(10))
    preds = instset(range(100, 110))
    report = evaluate(preds, gt)
    assert report.ap25 == 0.0
    assert report.ap50 == 0.0
    assert report.mean_ap == 0.0


def test_contrived_three_preds_two_gt_matches_oracle():
    gt_sets = [set(range(10)), set(range(20, 30))]
    pred_items = [
        (set(range(8)) | {15}, 0.9),          # good match for gt0
        (set(range(20, 26)), 0.8),            # partial match for gt1
        (set(range(5)) | set(range(20, 23)), 0.7),  # straddles both
    ]
    preds = instset(*[sorted(s) for s, _ in pred_items],
                    confs=[c for _, c in pred_items])
    gt = instset(*[sorted(s) for s in gt_sets])
    report = evaluate(preds, gt)
    for theta in DEFAULT_THRESHOLDS:
        want = oracle_ap(pred_items, gt_sets, theta)
        assert report.ap_by_threshold[theta] == pytest.approx(want, abs=1e-12)


def test_matches_oracle_on_random_small_cases():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_gt = int(rng.integers(1, 4))
        n_pred = int(rng.integers(0, 5))
        universe = 40
        starts = rng.choice(universe - 10, size=n_gt, replace=False)
        gt_sets = []
        used = set()
        for s in sorted(starts):
            ids = set(range(s, s + int(rng.integers(3, 9)))) - used
            if ids:
                gt_sets.append(ids)
                used |= ids
        pred_items = []
        for _ in range(n_pred):
            base = int(rng.integers(0, universe - 8))
            ids = set(range(base, base + int(rng.integers(2, 9))))
            pred_items.append((ids, float(rng.choice([0.5, 0.7, 0.9, 1.0]))))
        preds = instset(*[sorted(s) for s, _ in pred_items],
                        confs=[c for _, c in pred_items])
        gt = instset(*[sorted(s) for s in gt_sets])
        report = evaluate(preds, gt)
        for theta in (0.25, 0.5, 0.75):
            want = oracle_ap(pred_items, gt_sets, theta)
            assert report.ap_by_threshold[theta] == pytest.approx(want, abs=1e-12)


def test_ap_monotone_in_threshold():
    rng = np.random.default_rng(37)
    for _ in range(20):
        gt_sets = [set(range(k * 12, k * 12 + 10)) for k in range(3)]
        pred_items = []
        for k in range(4):
            base = int(rng.integers(0, 30))
            pred_items.append(
                (set(range(base, base + int(rng.integers(3, 12)))), 1.0)
            )
        preds = instset(*[sorted(s) for s, _ in pred_items])
        gt = instset(*[sorted(s) for s in gt_sets])
        aps = [
            evaluate(preds, gt).ap_by_threshold[t]
            for t in sorted(DEFAULT_THRESHOLDS)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))


def test_duplicate_prediction_never_raises_ap():
    gt = instset(range(10), range(20, 30))
    preds = instset(range(10), range(20, 30))
    base = evaluate(preds, gt)
    duped = instset(range(10), range(20, 30), range(10))
    after = evaluate(duped, gt)
    for theta in DEFAULT_THRESHOLDS:
        assert after.ap_by_threshold[theta] <= base.ap_by_threshold[theta] + 1e-12


def test_equal_confidence_reorder_is_stable():
    # size tie-break restores one deterministic processing order
    gt = instset(range(10), range(20, 26))
    a = instset(range(10), range(20, 26))        # big first
    b = instset(range(20, 26), range(10))        # small first
    ra, rb = evaluate(a, gt), evaluate(b, gt)
    assert ra.ap_by_threshold == rb.ap_by_threshold


def test_equal_iou_match_takes_lowest_gt_index():
    gt = instset(range(0, 10), range(10, 20))
    preds = instset(range(5, 15))  # overlaps each gt by exactly 5 points
    report = evaluate(preds, gt)
    assert report.matches[0.25][0] == 0


def test_empty_ground_truth_flagged():
    preds = instset(range(10))
    report = evaluate(preds, InstanceSet())
    assert report.gt_empty is True
    assert report.ap50 == 0.0


def test_overlapping_ground_truth_rejected():
    gt = instset(range(10), range(5, 15))
    with pytest.raises(ValueError):
        evaluate(instset(range(10)), gt)
    # one shared id between non-adjacent instances, with and without predictions
    gt = instset(range(0, 5), [], range(10, 20), [4, 30])
    for preds in (instset(), instset(range(100, 110)), instset([])):
        with pytest.raises(ValueError):
            evaluate(preds, gt)


@pytest.mark.parametrize("far", [20, 10**15])  # a table, then a sorted search
def test_overlap_names_its_scene_and_a_shared_id(far):
    gt = instset(range(0, 5), [far], range(10, 20), [4, 30])
    with pytest.raises(OverlappingGroundTruth) as err:
        evaluate_multi([(instset(range(3)), instset(range(5))), (instset(range(3)), gt)])
    assert (err.value.scene, err.value.point_id) == (1, 4)
    assert str(err.value) == ("ground-truth instances must be pairwise disjoint: "
                              "point id 4 is in more than one")


def test_multi_scene_pooling_matches_single_scene_duplication():
    gt = instset(range(10), range(20, 30))
    preds = instset(range(10), range(20, 28))
    single = evaluate(preds, gt)
    pooled = evaluate_multi([(preds, gt), (preds, gt)])
    # same PR structure duplicated -> identical AP
    for theta in DEFAULT_THRESHOLDS:
        assert pooled.ap_by_threshold[theta] == pytest.approx(
            single.ap_by_threshold[theta], abs=1e-12
        )


def test_report_serializes_to_plain_json_types():
    import json

    gt = instset(range(10))
    report = evaluate(gt, gt)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["ap25"] == 1.0
    assert data["ap50"] == 1.0
    assert data["map"] == 1.0
    assert data["schema"] == "p2o.report/1"


# ---------------------------------------------------------------------------
# one IoU matrix per call against the per-threshold reference


def random_case(rng):
    """Disjoint GT and predictions over a random universe, with ties and empties."""
    universe = int(rng.choice([12, 40, 300, 2000]))
    n_gt = int(rng.integers(0, 7))
    n_pred = int(rng.integers(0, 9))
    covered = rng.permutation(universe)[: int(rng.integers(0, universe + 1))]
    cuts = np.sort(rng.integers(0, covered.size + 1, size=max(n_gt - 1, 0)))
    gt_lists = [sorted(part) for part in np.split(covered, cuts)] if n_gt else []
    pred_lists = []
    for _ in range(n_pred):
        kind = int(rng.integers(0, 4))
        if kind == 0 and gt_lists:  # a perturbed copy of one GT instance
            base = np.asarray(gt_lists[int(rng.integers(0, len(gt_lists)))], dtype=np.int64)
            keep = base[rng.random(base.size) < 0.8]
            extra = rng.integers(0, universe, size=int(rng.integers(0, 4)))
            ids = np.union1d(keep, extra)
        elif kind == 1:  # touches no GT id
            ids = universe + np.arange(int(rng.integers(1, 6)))
        elif kind == 2 and rng.random() < 0.5:
            ids = np.empty(0, dtype=np.int64)
        else:
            ids = np.unique(rng.integers(0, universe, size=int(rng.integers(1, universe + 1))))
        pred_lists.append(sorted(int(i) for i in ids))
    confs = [float(rng.choice([0.3, 0.5, 0.5, 0.9, 1.0])) for _ in pred_lists]
    return instset(*pred_lists, confs=confs), instset(*gt_lists)


def test_matrix_evaluate_equals_reference_on_random_cases():
    rng = np.random.default_rng(2017)
    for case in range(400):
        preds, gt = random_case(rng)
        assert report_json(evaluate(preds, gt)) == report_json(
            reference_evaluate(preds, gt)
        ), case
        for p in preds.instances:
            for g in gt.instances:
                assert mask_iou(p.point_ids, g.point_ids) == reference_mask_iou(
                    p.point_ids, g.point_ids
                )


def gt_ids(gt):
    return np.concatenate([np.empty(0, dtype=np.int64)] + [g.point_ids for g in gt.instances])


def spread_case(rng):
    """random_case with its largest ground-truth id, in the predictions too,
    moved so far out that the span passes TABLE_SPAN_PER_ID times the id count."""
    preds, gt = random_case(rng)
    if gt_ids(gt).size == 0:
        return preds, gt
    top, far = int(gt_ids(gt).max()), 10**12 + int(rng.integers(0, 10**6))

    def moved(insts):
        return InstanceSet([Instance(np.union1d(i.point_ids[i.point_ids != top], [far])
                                     if top in i.point_ids else i.point_ids,
                                     i.confidence, i.kind) for i in insts.instances])

    return moved(preds), moved(gt)


def test_sorted_search_equals_reference_on_random_cases():
    rng = np.random.default_rng(2018)
    searched = 0
    for case in range(400):
        preds, gt = spread_case(rng)
        ids = gt_ids(gt)
        assert report_json(evaluate(preds, gt)) == report_json(
            reference_evaluate(preds, gt)
        ), case
        searched += ids.size > 1 and int(np.ptp(ids)) + 1 > TABLE_SPAN_PER_ID * ids.size
    assert searched > 300


@pytest.mark.parametrize("make_case", [random_case, spread_case])
def test_touching_lists_exactly_the_pairs_that_share_an_id(make_case, monkeypatch):
    # and only a span past TABLE_SPAN_PER_ID times the id count is searched;
    # both kinds of case hold dense and sparse spans
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *a, **k: searches.append(1) or searchsorted(*a, **k))
    rng = np.random.default_rng(23)
    paths = set()
    for case in range(200):
        preds, gt = make_case(rng)
        pred_sets = [p.point_ids for p in preds.instances]
        gt_sets = [g.point_ids for g in gt.instances]
        want = []
        for p in pred_sets:
            pairs = [(reference_mask_iou(p, g), 3 + k) for k, g in enumerate(gt_sets)
                     if np.intersect1d(p, g).size]
            want.append(sorted(pairs, key=lambda pair: -pair[0]))
        searches.clear()
        assert _touching(pred_sets, gt_sets, 3, 0) == want, case
        ids = gt_ids(gt)
        if pred_sets and ids.size:
            sparse = int(np.ptp(ids)) + 1 > TABLE_SPAN_PER_ID * ids.size
            assert bool(searches) == sparse, case
            paths.add(sparse)
    assert paths == {False, True}


@pytest.mark.parametrize(
    "preds, gt",
    [
        # equal IoU to two GT instances: the lower index wins
        (instset(range(5, 15)), instset(range(0, 10), range(10, 20))),
        (instset(range(5, 15), range(0, 10), confs=[1.0, 0.5]),
         instset(range(10, 20), range(0, 10))),
        # an empty prediction
        (instset([], range(10), range(3)), instset(range(10), range(20, 25))),
        # an empty GT instance
        (instset(range(10), []), instset([], range(10), [])),
        (instset([]), instset([])),
        # predictions touching no GT
        (instset(range(100, 110), range(200, 201)), instset(range(10), range(20, 30))),
        # zero predictions and/or zero GT
        (instset(), instset()),
        (instset(), instset(range(10))),
        (instset(range(10)), instset()),
    ],
)
def test_matrix_evaluate_equals_reference_on_edge_cases(preds, gt):
    assert report_json(evaluate(preds, gt)) == report_json(reference_evaluate(preds, gt))


def reference_evaluate_multi(scene_pairs):
    """evaluate_multi as first written: offset copies as new Instances."""
    pooled_preds, pooled_gt = [], []
    offset = 0
    for preds, gt in scene_pairs:
        top = 0
        for inst in list(preds.instances) + list(gt.instances):
            if inst.point_ids.size:
                top = max(top, int(inst.point_ids.max()) + 1)
        for inst in preds.instances:
            pooled_preds.append(Instance(inst.point_ids + offset, inst.confidence, inst.kind))
        for inst in gt.instances:
            pooled_gt.append(Instance(inst.point_ids + offset, inst.confidence, inst.kind))
        offset += top
    return reference_evaluate(InstanceSet(pooled_preds), InstanceSet(pooled_gt))


def test_evaluate_multi_equals_reference_over_scenes(monkeypatch):
    rng = np.random.default_rng(55)
    cases = [[random_case(rng) for _ in range(int(rng.integers(3, 6)))] for _ in range(20)]
    want = [report_json(reference_evaluate_multi(pairs)) for pairs in cases]

    # the pooled arrays are scored as they are: no instance is made again
    def no_new_instances(self):
        raise AssertionError("evaluate_multi built an Instance")

    monkeypatch.setattr(Instance, "__post_init__", no_new_instances)
    got = [report_json(evaluate_multi(pairs)) for pairs in cases]
    assert got == want


def test_scoring_stays_sparse_over_many_scenes():
    # 250 scenes of 20 predictions and 20 ground truths of a few ids each:
    # a dense P x G IoU matrix alone would be 5,000 x 5,000 floats (200 MB)
    gt = instset(*[range(3 * g, 3 * g + 3) for g in range(20)])
    preds = instset(*[range(3 * g, 3 * g + 3 + g % 3) for g in range(20)],
                    confs=[1.0 - 0.01 * k for k in range(20)])
    pairs = [(preds, gt)] * 250
    tracemalloc.start()
    try:
        pooled = evaluate_multi(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    single = evaluate(preds, gt)
    assert pooled.ap_by_threshold == single.ap_by_threshold
    for ms in pooled.matches.values():
        # every match stays in its own scene: prediction k of scene s is
        # index 20 s + k, and so is its ground truth
        assert all(g is None or g // 20 == k // 20 for k, g in enumerate(ms))


def test_scenes_sharing_ids_never_match_across():
    a_preds, a_gt = instset(range(10)), instset(range(20, 30))
    b_preds, b_gt = instset(range(40, 50)), instset(range(10))
    report = evaluate_multi([(a_preds, a_gt), (b_preds, b_gt)])
    assert report.ap25 == 0.0
    assert report.matches[0.25] == [None, None]
    # with the ids of scene a's prediction also in scene b's, only b's prediction matches
    report = evaluate_multi([(a_preds, a_gt), (instset(range(10)), b_gt)])
    assert report.matches[0.25] == [None, 1]
