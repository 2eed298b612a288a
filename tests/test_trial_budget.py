"""A budget of Python frames and of bytecode instructions per trial for each runner.

Wall time per trial moves with the host; the work a trial does in Python
does not. Each case runs one warm-up trial, which fills the layout cache,
then counts two things in one more trial:
- frames: the "call" events that `sys.setprofile` sees, the runner's own call
  not included. C functions, numpy's draws among them, raise "c_call" events
  and are not counted;
- opcodes: the "opcode" events that `sys.settrace` sees with
  `f_trace_opcodes` on in every frame, the runner's frame included. CPython
  raises none for RESUME, nor for the work of a C function.
The configs are golden cases, all with honest type lists but
`qcs-shuffle-plain`. The opcode budgets are each case's exact count for
CPython 3.11's bytecode; a change may lower one, and one that raises one
says why the work grew.
"""
import functools
import sys

import pytest

from qcs_sim import trial_stream
from qcs_sim.protocols import _RUNNERS, Protocol

from test_golden import _cases

#: most Python frames one trial may run, by golden case
BUDGETS = {"qcs": 22, "qcs-noiseless-type-i": 22, "qcs-shuffle-plain": 30, "beat": 40,
           "beat-plain": 40, "syntonize": 32, "syntonize-noiseless": 32, "esct": 3}

#: most bytecode instructions one trial may run, by golden case
OPCODE_BUDGETS = {"qcs": 605, "qcs-noiseless-type-i": 559, "qcs-shuffle-plain": 826,
                  "beat": 1091, "beat-plain": 1141, "syntonize": 965,
                  "syntonize-noiseless": 897, "esct": 55}

cpython_311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                 reason="opcode budgets count CPython 3.11 bytecode")


def cost_per_trial(runner, cfg, seed) -> tuple[int, int]:
    """(frames below `runner`, opcodes in and below it) in a trial on stream (seed, 1),
    warmed up on (seed, 0)."""
    runner(cfg, trial_stream(seed, 0))
    rng = trial_stream(seed, 1)
    calls = opcodes = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    def count_opcodes(frame, event, arg):
        nonlocal opcodes
        frame.f_trace_opcodes = True
        opcodes += event == "opcode"
        return count_opcodes

    sys.setprofile(count_calls)
    sys.settrace(count_opcodes)
    try:
        runner(cfg, rng)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return calls - 1, opcodes


@functools.cache
def case_cost(case) -> tuple[int, int]:
    kwargs, cfg = _cases()[case]
    return cost_per_trial(_RUNNERS[Protocol(kwargs["subcommand"])], cfg, kwargs["seed"])


@pytest.mark.parametrize("case", BUDGETS)
def test_trial_stays_within_its_frame_budget(case):
    frames, _ = case_cost(case)
    assert frames <= BUDGETS[case], f"{case}: {frames} Python frames per trial"


@cpython_311
@pytest.mark.parametrize("case", OPCODE_BUDGETS)
def test_trial_stays_within_its_opcode_budget(case):
    _, opcodes = case_cost(case)
    assert opcodes <= OPCODE_BUDGETS[case], f"{case}: {opcodes} opcodes per trial"


def inner():
    return sorted([3, 1, 2])  # a C call: no frame and no opcodes of its own


def outer(cfg, rng):
    return inner(), inner()


def test_counter_sees_python_frames_only():
    assert cost_per_trial(outer, None, 0)[0] == 2


@cpython_311
def test_counter_sees_every_opcode_but_resume():
    # outer: LOAD_GLOBAL, PRECALL, CALL twice, BUILD_TUPLE, RETURN_VALUE;
    # inner: LOAD_GLOBAL, BUILD_LIST, LOAD_CONST, LIST_EXTEND, PRECALL, CALL, RETURN_VALUE
    assert cost_per_trial(outer, None, 0)[1] == 8 + 2 * 7
