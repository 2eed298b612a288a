"""Per-trial streams: the Generator a run rewinds draws what trial_stream builds."""
import gc
import types

import numpy as np
import pytest

from qcs_sim import ConfigError, Protocol, TrialResult, run_trials, trial_stream
from qcs_sim.harness import LANE_BASELINE
from qcs_sim.protocols import _RUNNERS, Layout
from qcs_sim.rng import trial_streams

from scenarios import matched_compare, syntonize, two_species

TRIALS = 6


def _draws(rng, trial_id):
    """One trial's draws. Each trial opens with a 32-bit draw, so a half-word
    left pending by the trial before would show, and trial kinds rotate so each
    kind follows another: kind 0 ends with a 32-bit half-word pending, kind 1
    leaves binomial parameters cached (BTPE and inversion), and every kind ends
    part way through Philox's four-word output buffer."""
    out = [rng.integers(0, 2**32, size=1, dtype=np.uint32)]
    kind = trial_id % 3
    if kind == 0:
        out.append(rng.integers(0, 2**32, size=2, dtype=np.uint32))
    elif kind == 1:
        out.append(rng.binomial(1000, 0.3, size=2))
        out.append(rng.binomial(20, 0.3, size=2))
    else:
        out.append(rng.random(3))
        out.append(rng.standard_normal(2))
    return [a.tolist() for a in out]


@pytest.mark.parametrize("lane", (0, 1))
@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_reused_stream_draws_what_trial_stream_draws(seed, lane):
    reused = [_draws(rng, i) for i, rng in enumerate(trial_streams(seed, TRIALS, lane))]
    fresh = [_draws(trial_stream(seed, i, lane), i) for i in range(TRIALS)]
    assert reused == fresh
    assert reused[0] != reused[3]  # same kind of trial, different stream


@pytest.mark.parametrize("args, field", [
    ((1.9, 2.5, 0.7), "seed"),
    ((True, 0, 0), "seed"),
    ((1, 2.5, 0), "trial_id"),
    ((1, False, 0), "trial_id"),
    ((1, 2, 0.7), "lane"),
    ((1, 2, True), "lane"),
    (("1", 2, 0), "seed"),
])
def test_trial_stream_rejects_non_integers(args, field):
    with pytest.raises(ConfigError, match=field):
        trial_stream(*args)


@pytest.mark.parametrize("args", [(-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 0, -1),
                                  (0, 2**64, 0), (0, 0, 2**64)])
def test_trial_stream_rejects_out_of_range_values(args):
    (field,) = [name for name, value in zip(("seed", "trial_id", "lane"), args) if value]
    with pytest.raises(ConfigError, match=f"^{field} must be a u64"):
        trial_stream(*args)


def test_trial_stream_accepts_integral_floats_and_numpy_integers():
    a = trial_stream(1.0, np.int64(2), np.uint8(1)).random(4)
    assert a.tolist() == trial_stream(1, 2, 1).random(4).tolist()


def _reachable(obj, seen=None):
    """Objects reachable from obj, not following types, modules or functions."""
    seen = {} if seen is None else seen
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    if id(obj) not in seen and not isinstance(obj, skip):
        seen[id(obj)] = obj
        for ref in gc.get_referents(obj):
            _reachable(ref, seen)
    return seen.values()


RUNS = {
    "qcs": (Protocol.QCS_BASIC, matched_compare(ensemble_size=10_000), 0),
    "esct": (Protocol.ESCT_BASELINE, matched_compare(), LANE_BASELINE),
    "beat": (Protocol.QCS_BEAT, two_species(ensemble_size=10_000), 0),
    "syntonize": (Protocol.QCS_SYNTONIZE,
                  syntonize(ensemble_size=10_000, use_type_i=True), 0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_trials_matches_one_fresh_stream_per_trial(name):
    protocol, cfg, lane = RUNS[name]
    run_cfg = cfg.with_run(seed=11, trials=TRIALS)
    first = run_trials(protocol, run_cfg, lane=lane)
    assert first == run_trials(protocol, run_cfg, lane=lane)
    runner = _RUNNERS[protocol]
    assert first == [runner(cfg, trial_stream(11, i, lane)) for i in range(TRIALS)]
    generators = (np.random.Generator, np.random.BitGenerator)
    assert not [o for o in _reachable(first) if isinstance(o, generators)]


def test_reachability_walk_sees_a_generator_inside_a_trial_result():
    held = Layout(Protocol.ESCT_BASELINE).row((0.0, trial_stream(0, 0), 0.0))
    assert isinstance(held, TrialResult)
    assert isinstance(held.estimate["time_offset"], np.random.Generator)
    assert [o for o in _reachable([held]) if isinstance(o, np.random.BitGenerator)]
