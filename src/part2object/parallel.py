"""The package's one thread pool: map a function over independent blocks.

In `p2o run` every thread comes from thread_map, sized by cpu_workers(): the
priors beside the super-points, the normals kd-tree beside the voxel grid,
the normals blocks, the super-point waves and the layer-0 hierarchy inputs.
Frames and scenes run one after another. Importing the package pins numpy's
OpenBLAS to one thread (OPENBLAS_NUM_THREADS, unless already set), so BLAS
calls do not start a second pool beside this one.
"""

import os
from concurrent.futures import ThreadPoolExecutor


def cpu_workers():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


def thread_map(fn, blocks):
    """[fn(b) for b in blocks], in order, on up to cpu_workers() threads.

    With one CPU or one block, fn runs serially in the calling thread.
    Threads overlap only where fn releases the interpreter lock, as numpy and
    scipy kernels do; fn must not mutate shared state other than writing its
    own disjoint output rows.
    """
    blocks = list(blocks)
    workers = min(cpu_workers(), len(blocks))
    if workers <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))
