"""From 2D masks to 3D priors, grouping first and projecting second.

Consecutive frames see the same objects, so masks are matched frame to frame
by feature similarity and the matches are propagated into tracks. Only then
is each track projected into 3D; its pooled point ids become an objectness
prior. Matching in 2D first avoids ever having to pick a 3D overlap
threshold that works for both mugs and sofas.
"""

import numpy as np

from part2object import synth
from part2object.objectness import MatchParams, build_tracks, match_adjacent

spec = synth.SynthSpec(
    seed=11,
    objects=[
        synth.SynthObject(center=(-0.7, 0.0, 0.25), size=(0.5, 0.5, 0.5)),
        synth.SynthObject(center=(0.4, 0.0, 0.3), size=(0.4, 0.4, 0.6), shape="cylinder"),
    ],
    points_per_m2=1500,
    cameras=[
        synth.look_at((x, -2.2, 1.3), (0.0, 0.0, 0.3))
        for x in (-0.8, -0.3, 0.3, 0.8)
    ],
)
cloud, gt, frames = synth.generate(spec)

links = match_adjacent(frames[0], frames[1], tau=0.3)
print(f"frame 0 -> 1 links: {links}")

tracks = build_tracks(cloud, frames, MatchParams())
for k, track in enumerate(tracks):
    frames_seen = sorted({fid for fid, _ in track.members})
    print(f"track {k}: masks in frames {frames_seen}, {track.point_ids.size} pooled points")
    held = [round(float(np.isin(inst.point_ids, track.point_ids).mean()), 3)
            for inst in gt.instances]
    print(f"  share of each gt object's points the track holds: {held}")

# A track holds only the points its frames see, here under half of each
# object. The priors only veto merges, through the tight box of their points,
# so they never have to be complete. What matters is that each holds one
# object and not its neighbor.
