"""Deterministic per-trial random streams.

Streams use numpy's counter-based Philox (4x64, 10 rounds) bit generator. The
64-bit experiment seed is the Philox key and the 256-bit counter is offset by
block: counter word 3 carries the trial id and word 2 a small lane index (for
runs that interleave two protocols). Distinct (lane, trial) pairs are at least
2**128 draws apart, so streams never overlap and any trial can be regenerated
in isolation from (seed, trial_id, lane).

A run builds one Generator and rewinds it before each trial to the state
`trial_stream` would build for that trial, so each trial draws the same
stream, and a run writes the same bytes, as with one new Generator per trial.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .config import _int
from .errors import ConfigError

RNG_ALGORITHM = "numpy.random.Philox(4x64-10); key=seed, counter=[0,0,lane,trial_id]"


def trial_stream(seed: int, trial_id: int, lane: int = 0) -> np.random.Generator:
    """Independent Generator for one trial of one protocol lane; each argument is a u64."""
    for name, value in (("seed", seed), ("trial_id", trial_id), ("lane", lane)):
        if not 0 <= _int(value, name) < 2**64:
            raise ConfigError(f"{name} must be a u64, got {value}")
    bg = np.random.Philox(key=int(seed), counter=[0, 0, int(lane), int(trial_id)])
    return np.random.Generator(bg)


def trial_streams(seed: int, trials: int, lane: int = 0) -> Iterator[np.random.Generator]:
    """The streams of trials 0 .. trials-1, as one Generator rewound per trial.

    Each yield is in the state `trial_stream(seed, i, lane)` starts in: key
    seed, counter [0, 0, lane, i], an empty output buffer and no pending
    32-bit half-word; its counter, key and buffer are held as plain int
    lists, the values of the getter's uint64 arrays, which numpy's setter
    reads faster. The Generator's own cache, its binomial set-up, is a
    function of (n, p) alone, so it carries no draw from one trial to the
    next. Advancing the iterator rewinds the same Generator, so a caller
    must be done with trial i's stream before asking for trial i+1.
    """
    rng = trial_stream(seed, 0, lane)
    bit_generator = rng.bit_generator
    state = bit_generator.state  # trial 0's fresh state, reused for every trial
    philox = state["state"]
    counter = philox["counter"] = philox["counter"].tolist()
    philox["key"] = philox["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for i in range(trials):
        counter[3] = i
        bit_generator.state = state
        yield rng
