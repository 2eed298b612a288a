"""The four experiments: basic QCS, two-frequency beat, syntonization, ESCT.

Protocol steps for the entanglement-based scheme:

1. a singlet ensemble of "pre-clock" pairs is created in the dual basis;
2. A starts the clocks by measuring her halves when her clock shows the
   agreed start reading, sorting her pairs into type I (pos) and type II;
3. the type list reaches B over a classical channel, modeled as perfect and
   instantaneous -- the scheme's limitations do not depend on channel quality,
   and a lossy/latent channel would conflate this with one-way time transfer;
4. B keeps the partners of A's type II outcomes (they start in phase with
   A's type I members), lets them precess, and reads them out in quadrature
   bases to estimate the accumulated phase.

Truth bookkeeping: true time zero is A's collapse event. B turns the phase
into a time offset via the residual against his own model of the pre-clock,
  t_hat = wrap(theta_expected - theta_hat) / omega,
so positive t_hat estimates "more true time elapsed than the two clock
readings suggest", i.e. B's clock lags A's announced start. Under this fixed
convention a transport phase phi biases t_hat by -phi/omega (an effective
delay alpha gives bias -alpha, in basic and beat runs alike) and an
oscillator-phase mismatch biases it by (delta_B - delta_A)/omega.

Sampling: counts are drawn exactly, without simulating pairs. B's kept list
is a sequence of (good, bad) blocks: good pairs sit at the common phase,
bad pairs (partners a shuffled list mislabels) sit half a turn away, and
each block is in uniformly random order. Basis 0 reads the first half
of the list, so its good count is hypergeometric block by block, and each
basis then yields a Binomial count per kind. Independent per-pair transport
jitter enters as the contrast factor exp(-sigma_pair**2 / 2). The per-pair
simulation this law replaces is kept in tests/pairwise_oracle.py as the
reference the sampler is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .clocks import basis_for, esct_transfer, trigger_time
from .config import ScenarioConfig
from .estimation import check_rate_ambiguity, estimate_phase, estimate_rate, wrap_pi
from .quantum import canonicalize, evolve, imprint_phase, prob_pos
from .rng import trial_streams
from .transport import transport_phase

# unused here; perfbench's tracer looks these names up in this module
from .estimation import MeasurementRecord  # noqa: F401
from .quantum import BasisPhase, EquatorialState, collapse_singlet  # noqa: F401
from .rng import trial_stream  # noqa: F401
from .transport import apply_transport  # noqa: F401

#: Stream lane of the second protocol in runs that interleave two.
LANE_BASELINE = 1

_COUNT_WORDS = {1: "one", 2: "two"}


def require_count(label: str, what: str, got: int, want: int | None):
    """Raise ValueError unless `got` equals `want` (None accepts any count)."""
    if want is not None and got != want:
        raise ValueError(f"{label} requires exactly {_COUNT_WORDS[want]} {what}")


class Protocol(str, Enum):
    """The protocol table: every fact about a protocol is written here once.

    value      CLI subcommand name, which rejection messages also use
    error_key  error key the protocol is judged on (sweeps report it)
    n_species  configured species it requires (None: any)
    n_epochs   measurement epochs it requires (None: any; it reads the first)
    """

    QCS_BASIC = ("qcs", "time_offset", 1, None)
    QCS_BEAT = ("beat", "time_offset", 2, None)
    QCS_SYNTONIZE = ("syntonize", "rate_offset", 1, 2)
    ESCT_BASELINE = ("esct", "time_offset", None, None)

    def __new__(cls, name, error_key, n_species, n_epochs):
        member = str.__new__(cls, name)
        member._value_ = name
        member.error_key = error_key
        member.n_species = n_species
        member.n_epochs = n_epochs
        return member

    def validate(self, cfg: ScenarioConfig):
        """Reject a config this protocol cannot run; once per run, before any trial."""
        require_count(self.value, "configured species", len(cfg.species), self.n_species)
        require_count(self.value, "measurement epochs", len(cfg.epochs.b_measure), self.n_epochs)
        if self is Protocol.QCS_BEAT:
            f1, f2 = cfg.species.values()
            if f1.omega == f2.omega:
                raise ValueError("beat requires omega1 != omega2 (beat undefined)")
        elif self is Protocol.QCS_SYNTONIZE:
            (freq,) = cfg.species.values()
            t1, t2 = cfg.epochs.b_measure
            check_rate_ambiguity(freq.omega, cfg.clock_b.y, t2 - t1)


@dataclass(frozen=True)
class TrialResult:
    """One trial's truth, estimates, errors and diagnostics.

    `error` holds estimate - truth for every key the two maps share; the
    identity is arithmetic, not a tolerance.
    """

    protocol: Protocol
    trial_id: int
    truth: dict[str, float]
    estimate: dict[str, float]
    error: dict[str, float]
    diagnostics: dict[str, float]


def _make_result(protocol, trial_id, truth, estimate, diagnostics) -> TrialResult:
    error = {k: estimate[k] - truth[k] for k in estimate if k in truth}
    return TrialResult(protocol, trial_id, truth, estimate, error, diagnostics)


# -- one sub-ensemble: select, dephase, read out ---------------------------


def _kept_lists(cfg, sizes, rng):
    """B's kept list for each sub-ensemble of one collapse, as (good, bad) blocks.

    A's type list covers all `sizes` pairs, so shuffling it in transit mixes
    labels across sub-ensembles: the announced type II pairs are a uniform
    subset of the whole ensemble, counted per (sub-ensemble, true type) cell.
    With use_type_i the announced type I pairs follow, corrected by pi, which
    makes A's true type I partners good and mislabeled type II partners bad.
    """
    if cfg.noiseless:
        ms = [0.5 * n for n in sizes]
    else:  # A's type II outcomes per sub-ensemble
        ms = [int(rng.binomial(int(n), 0.5)) for n in sizes]
    if cfg.shuffle_type_list:
        colors = [c for n, m in zip(sizes, ms) for c in (m, n - m)]
        cells = rng.multivariate_hypergeometric(colors, sum(ms)).tolist()
        announced_ii = list(zip(cells[0::2], cells[1::2]))
    else:
        announced_ii = [(m, 0) for m in ms]
    if not cfg.use_type_i:
        return [[block] for block in announced_ii]
    return [[(good, bad), (n - m - bad, m - good)]
            for n, m, (good, bad) in zip(sizes, ms, announced_ii)]


def _split_good(blocks, n0, rng):
    """Good pairs among the first n0 entries of shuffled (good, bad) blocks, and in the rest."""
    g0 = g1 = 0
    for good, bad in blocks:
        take = min(n0, good + bad)
        # numpy draws even on a split with no choice; skipping those keeps the
        # draws of an honest list unchanged
        if good and bad and 0 < take < good + bad:
            g = int(rng.hypergeometric(good, bad, take))
        else:
            g = min(good, take)
        g0 += g
        g1 += good - g
        n0 -= take
    return g0, g1


def _count_pos(good, bad, p, rng):
    """Pos-type outcomes of `good` pairs reading p and `bad` pairs reading 1 - p."""
    k = int(rng.binomial(good, p))
    return k + int(rng.binomial(bad, 1.0 - p)) if bad else k


def _measure_quadratures(cfg, theta, blocks, delta0, delta1, rng):
    """Counts (n0, k0, n1, k1) of B's kept list read out at delta0 (first half) and delta1."""
    p0 = prob_pos(theta, delta0)
    p1 = prob_pos(theta, delta1)
    n_kept = sum(good + bad for good, bad in blocks)
    if cfg.noiseless:
        n0 = n1 = 0.5 * n_kept
        k0 = n0 * p0
        k1 = n1 * p1
    else:
        sigma = cfg.transport.sigma_pair
        # skipped at 0, where 0.5 + (p - 0.5) can differ from p in the last bit
        if sigma > 0.0:
            contrast = math.exp(-0.5 * sigma * sigma)
            p0 = 0.5 + contrast * (p0 - 0.5)
            p1 = 0.5 + contrast * (p1 - 0.5)
        n0 = n_kept // 2
        n1 = n_kept - n0
        g0, g1 = _split_good(blocks, n0, rng)
        k0 = _count_pos(g0, n0 - g0, p0, rng)
        k1 = _count_pos(g1, n1 - g1, p1, rng)
    return n0, k0, n1, k1


def _read_out(cfg, species, freq, blocks, phi_common, tau, rng):
    """Collapse, transport by phi_common, precession for tau, and readout of B's `blocks`.

    Returns (PhaseEstimate, (n0, k0, n1, k1)).
    """
    theta = evolve(imprint_phase(basis_for(cfg.clock_a, species).delta, phi_common), freq, tau)
    delta0 = basis_for(cfg.clock_b, species).delta
    delta1 = canonicalize(delta0 + 0.5 * math.pi)
    n0, k0, n1, k1 = counts = _measure_quadratures(cfg, theta, blocks, delta0, delta1, rng)
    return estimate_phase(n0, k0, delta0, n1, k1, delta1), counts


def _trigger_interval(cfg, rng):
    """(true time from A's collapse to B's readout, its nominal value).

    Single-epoch protocols read the first epoch. Draws clock_a's trigger
    before clock_b's.
    """
    epoch = cfg.epochs.b_measure[0]
    t_collapse = trigger_time(cfg.clock_a, cfg.epochs.a_start, rng)
    t_meas = trigger_time(cfg.clock_b, epoch, rng)
    return t_meas - t_collapse, epoch - cfg.epochs.a_start


def _phase_residual(cfg, species, freq, tau, nominal, rng):
    """One species' cycle and its phase residual against B's model of the pre-clock.

    B's model is his own basis phase advanced by the nominal elapsed time.
    Returns (residual in (-pi, pi], PhaseEstimate, phi_common, (n0, k0, n1, k1)).
    """
    (blocks,) = _kept_lists(cfg, (cfg.ensemble_size,), rng)
    phi_common = transport_phase(cfg.transport, species, freq, rng)
    est, counts = _read_out(cfg, species, freq, blocks, phi_common, tau, rng)
    theta_exp = canonicalize(basis_for(cfg.clock_b, species).delta - freq.omega * nominal)
    return wrap_pi(theta_exp - est.theta_hat), est, phi_common, counts


# -- protocols --------------------------------------------------------------
#
# The runners assume a config that `Protocol.validate` accepted; `run_trials`
# checks that once per run.


def run_qcs_basic(cfg: ScenarioConfig, rng, trial_id: int = 0) -> TrialResult:
    """Single-species time-offset recovery (protocol steps 1-4)."""
    ((species, freq),) = cfg.species.items()
    tau, nominal = _trigger_interval(cfg, rng)
    residual, est, phi_common, counts = _phase_residual(cfg, species, freq, tau, nominal, rng)
    n0, k0, n1, k1 = counts

    truth = {
        "time_offset": tau - nominal,
        "rate_offset": cfg.clock_b.y,
        f"phi_common_{species}": phi_common,
    }
    estimate = {"time_offset": residual / freq.omega}
    diagnostics = {
        "theta_hat": est.theta_hat,
        "sigma_theta": est.sigma_theta,
        "sigma_time": est.sigma_theta / freq.omega,
        "pairs_used": float(est.n_used),
        "n0": float(n0), "k0": float(k0), "n1": float(n1), "k1": float(k1),
    }
    return _make_result(Protocol.QCS_BASIC, trial_id, truth, estimate, diagnostics)


def run_qcs_beat(cfg: ScenarioConfig, rng, trial_id: int = 0) -> TrialResult:
    """Two-species run; the phase difference beats at omega1 - omega2.

    The widened ambiguity window comes at a price: only the parts of the two
    constant phases that are equal cancel. A species-independent delta
    drops out, but an effective transport delay alpha contributes
    alpha*(omega1 - omega2) to the beat phase and survives as a bias of
    exactly -alpha, and a species-dependent offset beta2 - beta1 biases the
    result by (beta2 - beta1)/(omega1 - omega2).
    """
    (sp1, f1), (sp2, f2) = cfg.species.items()
    tau, nominal = _trigger_interval(cfg, rng)

    truth = {"time_offset": tau - nominal, "rate_offset": cfg.clock_b.y}
    diagnostics = {}
    residuals = {}
    for species, freq in ((sp1, f1), (sp2, f2)):
        residuals[species], est, phi_common, counts = _phase_residual(
            cfg, species, freq, tau, nominal, rng
        )
        truth[f"phi_common_{species}"] = phi_common
        diagnostics[f"theta_hat_{species}"] = est.theta_hat
        diagnostics[f"sigma_theta_{species}"] = est.sigma_theta
        diagnostics[f"t_hat_{species}"] = residuals[species] / freq.omega
        for key, value in zip(("n0", "k0", "n1", "k1"), counts):
            diagnostics[f"{key}_{species}"] = float(value)

    beat_omega = f1.omega - f2.omega
    beat_residual = wrap_pi(residuals[sp1] - residuals[sp2])
    t_beat = beat_residual / beat_omega
    sigma_beat = math.hypot(diagnostics[f"sigma_theta_{sp1}"], diagnostics[f"sigma_theta_{sp2}"])
    diagnostics["sigma_time"] = sigma_beat / abs(beat_omega)

    estimate = {"time_offset": t_beat}
    return _make_result(Protocol.QCS_BEAT, trial_id, truth, estimate, diagnostics)


def run_qcs_syntonize(cfg: ScenarioConfig, rng, trial_id: int = 0) -> TrialResult:
    """Doubled-ensemble rate recovery from two measurement epochs.

    Both sub-ensembles ride the same transport (one common-mode draw); the
    first is read out at B's epoch t1, the second at t2. Constant phases --
    transport and oscillator alike -- cancel in the epoch difference, leaving
    only the phase accumulated between the two readouts, which calibrates
    B's clock rate against the atomic frequency itself. A's clock rate does
    not enter: the collapse is a single event.
    """
    ((species, freq),) = cfg.species.items()
    t1, t2 = cfg.epochs.b_measure

    t_collapse = trigger_time(cfg.clock_a, cfg.epochs.a_start, rng)
    n_half = cfg.ensemble_size // 2
    halves = (n_half, cfg.ensemble_size - n_half)
    phi_common = transport_phase(cfg.transport, species, freq, rng)
    # a shuffled list couples the halves, so both are drawn at once; an honest
    # one is drawn half by half, after B's trigger for that half
    kept = _kept_lists(cfg, halves, rng) if cfg.shuffle_type_list else None

    estimates = []
    for h, (epoch, n_pairs) in enumerate(zip((t1, t2), halves)):
        tau = trigger_time(cfg.clock_b, epoch, rng) - t_collapse
        blocks = kept[h] if kept else _kept_lists(cfg, (n_pairs,), rng)[0]
        estimates.append(_read_out(cfg, species, freq, blocks, phi_common, tau, rng)[0])
    e1, e2 = estimates
    rate = estimate_rate(e1, t1, e2, t2, freq)
    diagnostics = {
        "theta_hat_1": e1.theta_hat, "sigma_theta_1": e1.sigma_theta,
        "theta_hat_2": e2.theta_hat, "sigma_theta_2": e2.sigma_theta,
        "sigma_rate": rate.sigma_y,
    }

    truth = {"rate_offset": cfg.clock_b.y, f"phi_common_{species}": phi_common}
    estimate = {"rate_offset": rate.y_hat}
    return _make_result(Protocol.QCS_SYNTONIZE, trial_id, truth, estimate, diagnostics)


def run_esct(cfg: ScenarioConfig, rng, trial_id: int = 0) -> TrialResult:
    """Slow-clock-transport baseline: the arrival error is the whole story."""
    err = esct_transfer(cfg.trip, rng)
    truth = {"time_offset": 0.0}
    estimate = {"time_offset": err}
    return _make_result(Protocol.ESCT_BASELINE, trial_id, truth, estimate, {})


_RUNNERS = {
    Protocol.QCS_BASIC: run_qcs_basic,
    Protocol.QCS_BEAT: run_qcs_beat,
    Protocol.QCS_SYNTONIZE: run_qcs_syntonize,
    Protocol.ESCT_BASELINE: run_esct,
}


def run_trials(protocol: Protocol, cfg: ScenarioConfig, lane: int = 0) -> list[TrialResult]:
    """Run cfg.trials independent trials, one Philox stream per (cfg.seed, trial, lane).

    Results come back in trial_id order regardless of any execution order, so
    a parallel driver would merge to the same stream.
    """
    protocol.validate(cfg)
    runner = _RUNNERS[protocol]
    streams = trial_streams(cfg.seed, cfg.trials, lane)
    return [runner(cfg, rng, trial_id=i) for i, rng in enumerate(streams)]
