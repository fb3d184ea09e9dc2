"""Prior-guided merge rounds, and what breaks without the priors.

Each round pairs spatially adjacent clusters, keeps the most similar top-K
fraction, drops pairs whose clusters sit on opposite sides of a prior's box,
and unions the rest. The blocks in this scene nearly touch, so adjacency
alone cannot separate them: turn the priors off and let every candidate
through, and the blocks fuse into one object.
"""

from part2object import evaluation, synth
from part2object.hierarchy import MergeParams, collect_objects, collect_parts, run_hierarchy
from part2object.superpoints import build_superpoints

step = 0.54  # 0.5 m blocks with 0.04 m gaps, closer than the 0.05 m threshold
spec = synth.SynthSpec(
    seed=7,
    objects=[
        synth.SynthObject(center=(-step, 0.0, 0.25), size=(0.5, 0.5, 0.5)),
        synth.SynthObject(center=(0.0, 0.0, 0.25), size=(0.5, 0.5, 0.5)),
        synth.SynthObject(center=(step, 0.0, 0.25), size=(0.5, 0.5, 0.5)),
    ],
    points_per_m2=3000,
)
cloud, gt, _ = synth.generate(spec)
layer0 = build_superpoints(cloud)
priors = [g.point_ids for g in gt.instances]  # the ground truth, the perfect priors
print(f"{cloud.n_points} points, {len(layer0)} super-points, {len(priors)} priors")

params = MergeParams(min_object_points=30)
guided = run_hierarchy(layer0, cloud, priors, params)
print("\nwith priors:")
for t, log in enumerate(guided.merge_log):
    print(f"  round {t}: {len(log.accepted)} merges, "
          f"{len(log.rejected_stop)} vetoed, "
          f"{len(guided.layers[t])} -> {len(guided.layers[t + 1])} clusters")

objects = collect_objects(guided, params)
parts = collect_parts(guided, objects)
print(f"  objects: {[int(o.point_ids.size) for o in objects.instances]}")
print(f"  parts per object point count: {[int(p.point_ids.size) for p in parts.instances]}")
print(f"  mAP@50 = {evaluation.evaluate(objects, gt).ap50}")

blind_params = MergeParams(K=1.0, min_object_points=30)
blind = run_hierarchy(layer0, cloud, [], blind_params)
blind_objects = collect_objects(blind, blind_params)
print("\nwithout priors, K = 1.0 (every adjacent pair merges):")
print(f"  terminal clusters: {[int(o.point_ids.size) for o in blind_objects.instances]}")
print(f"  mAP@50 = {evaluation.evaluate(blind_objects, gt).ap50}")
