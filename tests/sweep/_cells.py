"""Module-level cell bodies for the sweep tests.

Worker processes re-import cell callables by ``module:qualname``
reference, so everything a sweep runs must live at module level --
hence this helper module rather than closures inside the tests.
"""

import os
import signal
import time


def add(a, b):
    return a + b


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"injected failure on {x}")


def boom_on(x, bad):
    if x == bad:
        raise RuntimeError(f"cell {x} exploded")
    return x * 10


def interrupt():
    raise KeyboardInterrupt


def unpicklable(x):
    return lambda: x  # lambdas cannot cross the process boundary


def pid_of_worker():
    return os.getpid()


def ambient_check_level():
    from repro.runtime.checks import get_check_level

    return get_check_level()


def none_value():
    return None


def np_draw():
    import numpy as np

    return float(np.random.random())


def crash_self(code=21):
    os._exit(code)


def sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def hang(seconds=3600.0):
    time.sleep(seconds)
    return "woke"


def sleep_then(x, seconds=0.0):
    time.sleep(seconds)
    return x


def _marker(marker_dir, name):
    return os.path.join(marker_dir, name)


def crash_first(marker_dir, x, code=21):
    """SIGKILL itself on the first run, return ``x * 7`` afterwards."""
    marker = _marker(marker_dir, f"crashed-{x}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 7


def hang_first(marker_dir, x, seconds=3600.0):
    """Hang past any deadline on the first run, return ``x + 100`` after."""
    marker = _marker(marker_dir, f"hung-{x}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(seconds)
    return x + 100


def record_run(marker_dir, x):
    """Leave a marker per execution (for resume-recomputes-only-missing)."""
    with open(_marker(marker_dir, f"ran-{x}"), "a") as fh:
        fh.write("1")
    return x * 3
