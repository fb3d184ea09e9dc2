"""The package's one CPU budget: map a function over independent blocks.

In `p2o run` every thread comes from thread_map: the priors beside the
super-points, the normals kd-tree beside the voxel grid, the normals blocks,
the super-point waves and the layer-0 hierarchy inputs. The whole process
shares one budget of cpu_workers() CPUs, and a thread holds one while it
runs blocks, so a call nested in a block starts threads only for the CPUs no
other block holds at that moment; with none to spare, its blocks run in the
block's own thread.
The priors' frames and a run's scenes run one after another. Outside
`p2o run`, synth.generate renders its cameras as blocks, one per camera, for
`p2o synth`, the benchmark's set-up, the tests and the demos. Importing the
package pins numpy's OpenBLAS to one thread (OPENBLAS_NUM_THREADS, unless
already set), so BLAS calls do not start a second pool beside this one.
"""

import os
import threading

# The budget is the process's, not a call's: nested calls from any thread
# must see the CPUs every other block holds.
_budget = threading.Condition()
_held = 0  # CPUs held by threads running thread_map blocks
_local = threading.local()  # .holds: this thread runs a thread_map block


def cpu_workers():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


def _give_back():
    global _held
    with _budget:
        _held -= 1
        _budget.notify()


def thread_map(fn, blocks):
    """[fn(b) for b in blocks], in order, on the calling thread and the CPUs free.

    The call starts one helper thread per CPU of the cpu_workers() budget
    that no block holds (at most one fewer than the blocks); the caller and
    the helpers take blocks from one shared index. A helper gives its CPU
    back as soon as it finds no block left. The caller lends its CPU while it
    waits for its helpers, and inside a block takes it back once one is free.
    With one CPU, one block or no CPU to spare, fn runs serially in the
    calling thread.

    Threads overlap only where fn releases the interpreter lock, as numpy and
    scipy kernels do; fn must not mutate shared state other than writing its
    own disjoint output rows. If blocks raise, no further block starts, and
    the error of the first failing block by index is raised once every
    started block has ended.
    """
    global _held
    blocks = list(blocks)
    workers = cpu_workers()
    nested = getattr(_local, "holds", False)
    with _budget:
        spare = min(len(blocks) - 1, workers - _held - (not nested))
        if spare > 0:
            _held += spare + (not nested)
    if spare <= 0:
        return [fn(b) for b in blocks]

    results = [None] * len(blocks)
    errors = {}
    order = iter(range(len(blocks)))
    order_lock = threading.Lock()

    def drain():
        while not errors:
            with order_lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(blocks[i])
            except BaseException as error:  # re-raised by the caller below
                errors[i] = error

    def helper():
        _local.holds = True
        drain()
        _give_back()

    helpers = [threading.Thread(target=helper) for _ in range(spare)]
    _local.holds = True
    try:
        for thread in helpers:
            thread.start()
        drain()
    finally:
        _give_back()
        for thread in helpers:
            if thread.ident is None:  # its start failed: return its CPU here
                _give_back()
            else:
                thread.join()
        _local.holds = nested
        if nested:
            with _budget:
                _budget.wait_for(lambda: _held < workers)
                _held += 1
    if errors:
        raise errors[min(errors)]
    return results
