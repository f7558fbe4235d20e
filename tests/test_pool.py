import sys
import threading

import pytest

from green3 import _pool
from green3.errors import ConfigurationError


def test_nested_submission_finishes_and_settles_the_count(monkeypatch):
    # more workers than cores, a short switch interval, and tasks that hand
    # work back into the pool they run on: a waiting thread only ever waits
    # for work that is already running
    monkeypatch.setenv("GREEN3_THREADS", "8")

    def task(i):
        return sum(_pool.run_all([lambda j=j: i * j for j in range(5)]))

    result = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.update(
            values=_pool.run_all([lambda i=i: task(i) for i in range(40)])), daemon=True)
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
        _pool.run_all([lambda: 0, lambda: fail(1), lambda: 2, lambda: fail(3)])


def test_invalid_cap_is_rejected_before_any_work(monkeypatch):
    monkeypatch.setenv("GREEN3_THREADS", "0")
    ran = []
    with pytest.raises(ConfigurationError):
        _pool.run_all([lambda: ran.append(1)])
    assert ran == []
