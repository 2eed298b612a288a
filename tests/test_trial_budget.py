"""A budget of Python frames per trial for each runner.

Wall time per trial moves with the host; the number of Python function calls
a trial makes does not. Each case runs one warm-up trial, which fills the
layout cache, then counts the "call" events that `sys.setprofile` sees during
one more trial, the runner's own call not included. C functions, numpy's
draws among them, raise "c_call" events and are not counted. The configs are
golden cases with honest type lists.
"""
import sys

import pytest

from qcs_sim import trial_stream
from qcs_sim.protocols import _RUNNERS, Protocol

from test_golden import _cases

#: most Python frames one trial may run, by subcommand
BUDGETS = {"qcs": 22, "syntonize": 32, "beat": 40, "esct": 3}
CASES = ("qcs", "qcs-noiseless-type-i", "beat", "beat-plain", "syntonize",
         "syntonize-noiseless", "esct")


def frames_per_trial(runner, cfg, seed) -> int:
    """Python frames below `runner` in a trial on stream (seed, 1), warmed up on (seed, 0)."""
    runner(cfg, trial_stream(seed, 0))
    rng = trial_stream(seed, 1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        runner(cfg, rng)
    finally:
        sys.setprofile(None)
    return calls - 1


@pytest.mark.parametrize("case", CASES)
def test_trial_stays_within_its_frame_budget(case):
    kwargs, cfg = _cases()[case]
    subcommand = kwargs["subcommand"]
    frames = frames_per_trial(_RUNNERS[Protocol(subcommand)], cfg, kwargs["seed"])
    assert frames <= BUDGETS[subcommand], f"{case}: {frames} Python frames per trial"


def test_counter_sees_python_frames_only():
    def inner():
        return sorted([3, 1, 2])  # a C call, not counted

    def outer(cfg, rng):
        return inner(), inner()

    assert frames_per_trial(outer, None, 0) == 2
