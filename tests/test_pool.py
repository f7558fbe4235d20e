import contextlib
import io
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from green3.cli import main, run_all
from green3.errors import ConfigurationError


def test_nested_submission_finishes_in_order(monkeypatch):
    # more threads than cores, a short switch interval, and tasks that call
    # run_all themselves: each call gets its own executor, so a waiting
    # thread only ever waits for work that already has a thread
    monkeypatch.setenv("GREEN3_THREADS", "8")

    def task(i):
        return sum(run_all([lambda j=j: i * j for j in range(5)]))

    result = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.update(
            values=run_all([lambda i=i: task(i) for i in range(40)])), daemon=True)
        runner.start()
        runner.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not runner.is_alive()
    assert result["values"] == [10 * i for i in range(40)]


@pytest.mark.parametrize("cap", ["1", "3"])
def test_run_all_raises_the_first_error_in_order(monkeypatch, cap):
    monkeypatch.setenv("GREEN3_THREADS", cap)

    def fail(n):
        raise ValueError(n)

    with pytest.raises(ValueError, match="^1$"):
        run_all([lambda: 0, lambda: fail(1), lambda: 2, lambda: fail(3)])


def test_invalid_cap_is_rejected_before_any_work(monkeypatch):
    monkeypatch.setenv("GREEN3_THREADS", "0")
    ran = []
    with pytest.raises(ConfigurationError):
        run_all([lambda: ran.append(1)])
    assert ran == []


@pytest.mark.parametrize("argv", [
    ["krein", "--z", "2,1", "--modes", "3"],
    ["jumps", "--curve", "kite", "--nodes", "64", "--z", "-1,0.5"],
])
def test_a_single_task_run_builds_no_executor(monkeypatch, argv):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a single-task run built an executor")

    monkeypatch.setenv("GREEN3_THREADS", "8")
    monkeypatch.setattr(ThreadPoolExecutor, "__init__", refuse)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--omit-timing"])
    assert code == 0, err.getvalue()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_a_scan_runs_at_most_cap_tasks_at_once(monkeypatch, cap):
    monkeypatch.setenv("GREEN3_THREADS", str(cap))
    lock = threading.Lock()
    running, peak, threads = [0], [0], set()

    def task(i):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            threads.add(threading.get_ident())
        time.sleep(0.05)
        with lock:
            running[0] -= 1
        return i

    assert run_all([lambda i=i: task(i) for i in range(8)]) == list(range(8))
    assert peak[0] <= cap
    # all eight are handed over at once, so the executor starts all its threads
    assert len(threads) == cap
    if cap == 1:
        assert threads == {threading.get_ident()}
