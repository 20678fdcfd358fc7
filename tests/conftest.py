"""Suite-wide set-up: readable `@given` failures, and the `lanes` fixture.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write a patch for the example, and that
module imports `libcst` where it is installed. Importing libcst 1.0.1 raises
a DeprecationWarning, which pyproject.toml's `filterwarnings` turns into an
error, so the run ended in a pytest INTERNALERROR in place of the example.
Importing the module once here, with that warning ignored, leaves it cached
for the plugin; the warning policy for everything else is unchanged.

`lanes` sets how many CPUs `grouprec.lanes` sees, so work runs on one lane
or two, and can give the helper a fixed schedule.
"""

import threading
import warnings

import pytest

from grouprec import lanes as lane_runner

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch and never imports it
        pass


class LateHelper(threading.Thread):
    """A helper that starts only when joined, after the caller's lane has run every task."""

    made = []

    def start(self):
        LateHelper.made.append(self)

    def join(self, timeout=None):
        super().start()
        super().join(timeout=10)


class EagerHelper(threading.Thread):
    """A helper that runs to its end before `start` returns, so it runs every task."""

    made = []

    def start(self):
        EagerHelper.made.append(self)
        super().start()
        super().join(timeout=10)


HELPERS = {"free": None, "late_helper": LateHelper, "eager_helper": EagerHelper}


@pytest.fixture
def lanes(monkeypatch):
    """Sets the usable CPUs and, by name, the helper's schedule; returns the helper class, None when free.

    With one CPU no helper starts. "late_helper" never takes a task, so the
    caller runs them all; "eager_helper" takes every one.
    """

    def use(cpus, schedule="free"):
        monkeypatch.setattr(lane_runner, "usable_cpus", lambda: cpus)
        helper = HELPERS[schedule]
        if helper is not None:
            helper.made.clear()
            monkeypatch.setattr(lane_runner.threading, "Thread", helper)
        return helper

    return use
