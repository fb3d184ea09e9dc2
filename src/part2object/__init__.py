"""Unsupervised 3D instance segmentation by prior-guided hierarchical clustering.

Pipeline stages, each usable on its own:

  scene_io     -- load/save point clouds, frames, instance manifests
  superpoints  -- layer-0 partition by seeded voxel region growing
  features     -- noise-robust cluster feature fusion
  spatial      -- kd-tree adjacency between labelled point sets
  objectness   -- 2D mask tracks across frames -> 3D priors (point ids)
  hierarchy    -- prior-guided merge rounds; object/part collection
  evaluation   -- class-agnostic instance segmentation AP
  synth        -- deterministic synthetic scenes for testing
  cli          -- the `p2o` command
"""

import os

# numpy's OpenBLAS would start a thread pool of its own beside
# parallel.thread_map's; pin it to one thread unless the user set a count.
# This takes effect only if numpy has not been imported yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import FormatError  # noqa: F401
from .evaluation import ApReport, evaluate, evaluate_multi, mask_iou  # noqa: F401
from .features import fuse_feature  # noqa: F401
from .hierarchy import (  # noqa: F401
    Hierarchy,
    MergeParams,
    candidate_pairs,
    collect_objects,
    collect_parts,
    rank_filter,
    run_hierarchy,
    run_layer,
)
from .objectness import (  # noqa: F401
    MatchParams,
    ObjectTrack,
    build_tracks,
    match_adjacent,
    project_mask_points,
    propagate_sameness,
)
from .scene_io import (  # noqa: F401
    FrameObservation,
    Instance,
    InstanceSet,
    MaskEntry,
    SceneCloud,
    estimate_normals,
    load_frames,
    load_instances,
    load_scene,
    write_frames,
    write_instances,
    write_scene,
)
from .superpoints import SuperpointParams, build_superpoints  # noqa: F401
from .synth import CameraModel, SynthObject, SynthSpec, generate, look_at  # noqa: F401
