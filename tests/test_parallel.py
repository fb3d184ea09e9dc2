import os
import sys
import threading
import time

import pytest

from part2object import parallel
from part2object.parallel import thread_map

from conftest import run_python


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_thread_map_keeps_block_order(workers, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    assert thread_map(lambda b: b * b, range(40)) == [b * b for b in range(40)]


def test_thread_map_runs_serially_with_one_worker_or_one_block(monkeypatch):
    caller = threading.get_ident()
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 1)
    assert set(thread_map(lambda b: threading.get_ident(), range(6))) == {caller}
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 4)
    assert thread_map(lambda b: threading.get_ident(), [0]) == [caller]
    assert thread_map(lambda b: b, []) == []


def meet(barrier):
    """A block that returns its thread once barrier.parties blocks have met."""
    def block(b):
        barrier.wait()
        return threading.get_ident()
    return block


def test_thread_map_uses_worker_threads_when_given_two(monkeypatch):
    # Two blocks pass the barrier only when they run on two threads at once.
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    idents = thread_map(meet(threading.Barrier(2, timeout=5)), range(2))
    assert len(set(idents)) == 2


def test_thread_map_raises_a_block_error(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)

    def fail_on_three(b):
        if b == 3:
            raise ValueError("block 3")
        return b

    with pytest.raises(ValueError, match="block 3"):
        thread_map(fail_on_three, range(8))


@pytest.mark.parametrize("holder", ["caller", "helper"])
def test_a_nested_call_runs_on_the_cpus_no_other_block_holds(holder, monkeypatch):
    # One outer block holds its CPU until released; the other nests calls.
    # Roles go by thread, as either thread may take either block.
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    caller = threading.get_ident()
    release = threading.Event()
    seen = {}

    def outer(b):
        me = threading.get_ident()
        if (me == caller) == (holder == "caller"):
            assert release.wait(timeout=5)
            return "held"
        # The holder has the other CPU: every nested block runs in this thread.
        seen["held"] = set(thread_map(lambda leaf: threading.get_ident(), range(4)))
        release.set()
        deadline = time.monotonic() + 5
        while parallel._held > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        # The holder's block has returned and its thread has given its CPU back.
        seen["free"] = set(thread_map(meet(threading.Barrier(2, timeout=5)), range(2)))
        return me

    nester = [r for r in thread_map(outer, range(2)) if r != "held"]
    assert len(nester) == 1 and (nester[0] == caller) == (holder == "helper")
    assert seen["held"] == {nester[0]}
    assert len(seen["free"]) == 2 and nester[0] in seen["free"]


@pytest.mark.parametrize("workers", [2, 3])
def test_threads_in_leaf_blocks_never_exceed_cpu_workers(workers, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    lock = threading.Lock()
    running = peak = 0

    def leaf(b):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.0005)  # releases the interpreter lock, as numpy kernels do
        with lock:
            running -= 1
        return b

    def mid(b):
        return sum(thread_map(leaf, range(b % 3 + 2)))

    def outer(b):
        return sum(thread_map(mid, range(b % 4 + 1)))

    want = [sum(sum(range(m % 3 + 2)) for m in range(b % 4 + 1)) for b in range(6)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            assert thread_map(outer, range(6)) == want
    finally:
        sys.setswitchinterval(switch)
    assert 2 <= peak <= workers


def test_the_budget_is_idle_again_after_a_block_raises(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)

    def leaf(b):
        if b == 2:
            raise ValueError("leaf 2")
        return b

    with pytest.raises(ValueError, match="leaf 2"):
        thread_map(lambda b: thread_map(leaf, range(4)), range(3))
    assert parallel._held == 0
    assert len(set(thread_map(meet(threading.Barrier(2, timeout=5)), range(2)))) == 2


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_to_one_thread_unless_set(user_value, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = "import os, part2object; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = run_python(["-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
