import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import part2object
from part2object import parallel
from part2object.parallel import thread_map


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


def test_thread_map_uses_worker_threads_when_given_two(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)
    idents = thread_map(lambda b: threading.get_ident(), range(8))
    assert threading.get_ident() not in idents


def test_thread_map_raises_a_block_error(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: 2)

    def fail_on_three(b):
        if b == 3:
            raise ValueError("block 3")
        return b

    with pytest.raises(ValueError, match="block 3"):
        thread_map(fail_on_three, range(8))


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_to_one_thread_unless_set(user_value, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(part2object.__file__).parents[1])
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = "import os, part2object; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
