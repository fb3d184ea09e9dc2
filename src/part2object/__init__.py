"""Unsupervised 3D instance segmentation by prior-guided hierarchical clustering.

The package top level exports nothing but __version__; import each name from
its module. Pipeline stages, each usable on its own, and their helpers:

  scene_io     -- load/save point clouds, frames, instance manifests
  superpoints  -- layer-0 partition by seeded voxel region growing
  features     -- noise-robust cluster feature fusion
  spatial      -- kd-trees, the padded cell grid, adjacency between labelled
                  point sets, the id rules, groups and graph components
  objectness   -- 2D mask tracks across frames -> 3D priors (point ids)
  hierarchy    -- prior-guided merge rounds; object/part collection
  evaluation   -- class-agnostic instance segmentation AP
  synth        -- deterministic synthetic scenes for testing
  parallel     -- thread_map and the package's one CPU budget
  errors       -- FormatError (a malformed file) and OverlappingGroundTruth
  cli          -- the `p2o` command
"""

import os as _os  # private: the top level binds only __version__

# numpy's OpenBLAS would start a thread pool of its own beside
# parallel.thread_map's threads; pin it to one thread unless the user set a
# count.
# This takes effect only if numpy has not been imported yet.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
