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
is one (good, bad) pair of counts: good pairs sit at the common phase, bad
pairs (partners a shuffled list mislabels) half a turn away. An honest list
has no bad pairs, so each basis reads its half with one Binomial draw. A
shuffled list is in uniformly random order, so the good count of basis 0,
which reads the first half, is one hypergeometric draw, and each basis then
yields a Binomial count per kind. Only `qcs` and `beat` read a shuffled
list, and only without use_type_i; the config rejects the rest. Independent
per-pair transport jitter enters as the contrast factor
exp(-sigma_pair**2 / 2). The per-pair simulation this law replaces is kept
in tests/pairwise_oracle.py as the reference the sampler is tested against.
"""
from __future__ import annotations

import functools
import math
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .clocks import esct_transfer, trigger_time
from .config import MAX_MAGNITUDE, ScenarioConfig
from .errors import ConfigError, DegenerateCountsError, InsufficientSamplesError
from .estimation import check_rate_ambiguity, estimate_phase, estimate_rate, wrap_pi
from .quantum import canonicalize, evolve, imprint_phase, prob_pos
from .rng import trial_streams
from .transport import transport_phase

# unused here; perfbench's tracer looks these names up in this module
from .clocks import basis_for  # noqa: F401
from .estimation import MeasurementRecord  # noqa: F401
from .quantum import BasisPhase, EquatorialState, collapse_singlet  # noqa: F401
from .rng import trial_stream  # noqa: F401
from .transport import apply_transport  # noqa: F401

_COUNT_WORDS = {1: "one", 2: "two"}


def require_count(field: str, label: str, what: str, got: int, want: int | None):
    """Raise a ConfigError naming `field` unless `got` equals `want` (None accepts any count)."""
    if want is not None and got != want:
        raise ConfigError(f"{field}: {label} requires exactly {_COUNT_WORDS[want]} {what}")


class Protocol(str, Enum):
    """The protocol table: every fact about a protocol is written here once.

    value      CLI subcommand name, which rejection messages also use
    n_species  configured species it requires (None: any)
    n_epochs   measurement epochs it requires (None: any; it reads the first)
    trial_keys truth, estimate and diagnostics keys, in the order the runner
               lists its values; {0} and {1} stand for the first two species
    error_key  the estimate key (truth holds it too): sweeps report its error
    """

    QCS_BASIC = ("qcs", 1, None, "time_offset rate_offset phi_common_{0}", "time_offset",
                 "theta_hat sigma_theta n0 k0 n1 k1 pairs_used sigma_time")
    QCS_BEAT = ("beat", 2, None, "time_offset rate_offset phi_common_{0} phi_common_{1}",
                "time_offset",
                "theta_hat_{0} sigma_theta_{0} n0_{0} k0_{0} n1_{0} k1_{0} t_hat_{0} "
                "theta_hat_{1} sigma_theta_{1} n0_{1} k0_{1} n1_{1} k1_{1} t_hat_{1} sigma_time")
    QCS_SYNTONIZE = ("syntonize", 1, 2, "rate_offset phi_common_{0}", "rate_offset",
                     "theta_hat_1 sigma_theta_1 theta_hat_2 sigma_theta_2 sigma_rate")
    ESCT_BASELINE = ("esct", None, None, "time_offset", "time_offset", "")

    def __new__(cls, name, n_species, n_epochs, *trial_keys):
        member = str.__new__(cls, name)
        member._value_, member.n_species, member.n_epochs = name, n_species, n_epochs
        member.trial_keys, member.error_key = trial_keys, trial_keys[1]
        return member

    def validate(self, cfg: ScenarioConfig):
        """Reject a config this protocol cannot run; once per run, before any trial."""
        require_count("species", self.value, "configured species", len(cfg.species),
                      self.n_species)
        require_count("epochs.b_measure", self.value, "measurement epochs",
                      len(cfg.epochs.b_measure), self.n_epochs)
        if self is Protocol.QCS_BEAT:
            omega1, omega2 = cfg.species.values()
            if omega1 == omega2:
                raise ConfigError("species: beat requires omega1 != omega2 (beat undefined)")
        elif self is Protocol.QCS_SYNTONIZE:
            if cfg.shuffle_type_list:
                raise ConfigError("shuffle_type_list: syntonize requires an unshuffled type list")
            (omega,) = cfg.species.values()
            t1, t2 = cfg.epochs.b_measure
            dt = t2 - t1
            if omega * dt < 1.0 / MAX_MAGNITUDE:  # estimate_rate divides by it
                raise ConfigError(f"epochs.b_measure: syntonize requires omega * (t2 - t1) "
                                  f">= {1.0 / MAX_MAGNITUDE:g}, got {omega * dt}")
            check_rate_ambiguity(omega, cfg.clock_b.y, dt)


class Layout:
    """(group, key) columns of one protocol and species names, by GROUPS, then key.
    A runner lists its values in `protocol.trial_keys` order, each error
    (estimate - truth) after its estimate; `row` keeps them in column order.
    """

    GROUPS = ("truth", "estimate", "error", "diagnostics")

    def __init__(self, protocol: Protocol, *species: str):
        truth, estimate, diagnostics = [k.format(*species).split() for k in protocol.trial_keys]
        given = [(g, k) for g, keys in zip(self.GROUPS, (truth, estimate, estimate, diagnostics))
                 for k in keys]
        self.protocol = protocol
        self.columns = self.order(given)
        self._arrange = itemgetter(*map(given.index, self.columns))

    @classmethod
    def order(cls, columns) -> tuple:
        return tuple(sorted(columns, key=lambda c: (cls.GROUPS.index(c[0]), c[1])))

    def row(self, values) -> TrialResult:
        # tuple.__new__ builds what TrialResult(...) would, without its Python-level __new__
        return tuple.__new__(TrialResult, (self, self._arrange(values)))

    def view(self, values, group: str) -> dict[str, float]:
        return {k: v for (g, k), v in zip(self.columns, values) if g == group}


class TrialResult(NamedTuple):
    """One trial's values in its layout's column order. Its stream is its identity:
    `run_trials` lists trial i at position i. `truth`, `estimate`, `error`
    (estimate - truth, exactly) and `diagnostics` are maps built on each access.
    """

    layout: Layout
    values: tuple

    protocol = property(lambda r: r.layout.protocol)
    truth = property(lambda r: r.layout.view(r.values, "truth"))
    estimate = property(lambda r: r.layout.view(r.values, "estimate"))
    error = property(lambda r: r.layout.view(r.values, "error"))
    diagnostics = property(lambda r: r.layout.view(r.values, "diagnostics"))


# -- one sub-ensemble: select, dephase, read out ---------------------------


def _kept(cfg, n, rng):
    """B's kept list from n pairs as (good, bad), made after A's one Binomial(n, 1/2) draw.

    An honest list keeps the partners of her m type II outcomes, or all n
    with use_type_i, and all of them are good. A shuffled list announces a
    uniform m-subset of the n pairs as type II: its good pairs are partners
    of her true type II outcomes, its bad ones of mislabeled type I outcomes.
    """
    m = 0.5 * n if cfg.noiseless else int(rng.binomial(n, 0.5))
    if cfg.shuffle_type_list:
        return rng.multivariate_hypergeometric([m, n - m], m).tolist()
    return (n if cfg.use_type_i else m), 0


def _count_pos(good, bad, p, rng):
    """Pos-type outcomes of `good` pairs reading p and `bad` pairs reading 1 - p."""
    k = int(rng.binomial(good, p))
    return k + int(rng.binomial(bad, 1.0 - p)) if bad else k


def _measure_quadratures(cfg, theta, kept, delta0, rng):
    """Counts (n0, k0, n1, k1) of B's `kept` (good, bad) list (see `_kept`) read at delta0
    (first half) and delta0 + pi/2; an all-good list's halves are two direct Binomial draws."""
    p0 = prob_pos(theta, delta0)
    p1 = prob_pos(theta, canonicalize(delta0 + 0.5 * math.pi))
    good, bad = kept
    n_kept = good + bad
    if cfg.noiseless:
        n0 = n1 = 0.5 * n_kept
        return n0, n0 * p0, n1, n1 * p1
    sigma = cfg.transport.sigma_pair
    # skipped at 0, where 0.5 + (p - 0.5) can differ from p in the last bit
    if sigma > 0.0:
        contrast = math.exp(-0.5 * sigma * sigma)
        p0 = 0.5 + contrast * (p0 - 0.5)
        p1 = 0.5 + contrast * (p1 - 0.5)
    n0 = n_kept // 2
    n1 = n_kept - n0
    if not bad:
        return n0, int(rng.binomial(n0, p0)), n1, int(rng.binomial(n1, p1))
    # the list is in uniformly random order, so basis 0's good count is hypergeometric;
    # numpy draws even on a split with no choice, which an all-bad list skips
    g0 = int(rng.hypergeometric(good, bad, n0)) if good else 0
    g1 = good - g0
    return n0, _count_pos(g0, n0 - g0, p0, rng), n1, _count_pos(g1, n1 - g1, p1, rng)


def _read_out(cfg, species, omega, kept, theta0, tau, rng):
    """Precession for tau from theta0 (A's basis phase, transport imprinted) and readout of
    B's `kept` list; the PhaseEstimate carries the counts it was read from."""
    delta0 = cfg.clock_b.delta_by_species[species]
    counts = _measure_quadratures(cfg, evolve(theta0, omega, tau), kept, delta0, rng)
    return estimate_phase(*counts, delta0)


def _trigger_interval(cfg, rng):
    """(true time from A's collapse to B's readout, its nominal value).

    Single-epoch protocols read the first epoch. Draws clock_a's trigger
    before clock_b's.
    """
    epoch = cfg.epochs.b_measure[0]
    t_collapse = trigger_time(cfg.clock_a, cfg.epochs.a_start, rng)
    t_meas = trigger_time(cfg.clock_b, epoch, rng)
    return t_meas - t_collapse, epoch - cfg.epochs.a_start


def _phase_residual(cfg, species, omega, tau, nominal, rng):
    """One species' cycle and its phase residual against B's model of the pre-clock.

    B's model is his own basis phase advanced by the nominal elapsed time.
    Returns (residual in (-pi, pi], phi_common, PhaseEstimate); the runners
    list the estimate's six fields as its readout columns.
    """
    kept = _kept(cfg, cfg.ensemble_size, rng)
    phi_common = transport_phase(cfg.transport, species, omega, rng)
    theta0 = imprint_phase(cfg.clock_a.delta_by_species[species], phi_common)
    est = _read_out(cfg, species, omega, kept, theta0, tau, rng)
    theta_exp = canonicalize(cfg.clock_b.delta_by_species[species] - omega * nominal)
    return wrap_pi(theta_exp - est.theta_hat), phi_common, est


# -- protocols --------------------------------------------------------------
#
# The runners assume a config that `Protocol.validate` accepted; `run_trials`
# checks that once per run.


#: One layout per protocol and species names, so a run formats its keys once.
_layout = functools.cache(Layout)


def run_qcs_basic(cfg: ScenarioConfig, rng) -> TrialResult:
    """Single-species time-offset recovery (protocol steps 1-4)."""
    ((species, omega),) = cfg.species.items()
    tau, nominal = _trigger_interval(cfg, rng)
    residual, phi_common, est = _phase_residual(cfg, species, omega, tau, nominal, rng)
    t_true, t_hat = tau - nominal, residual / omega
    return _layout(Protocol.QCS_BASIC, species).row((
        t_true, cfg.clock_b.y, phi_common, t_hat, t_hat - t_true,
        *est, est.n_used, est.sigma_theta / omega))


def run_qcs_beat(cfg: ScenarioConfig, rng) -> TrialResult:
    """Two-species run; the phase difference beats at omega1 - omega2.

    The widened ambiguity window comes at a price: only the parts of the two
    constant phases that are equal cancel. A species-independent delta
    drops out, but an effective transport delay alpha contributes
    alpha*(omega1 - omega2) to the beat phase and survives as a bias of
    exactly -alpha, and a species-dependent offset beta2 - beta1 biases the
    result by (beta2 - beta1)/(omega1 - omega2).
    """
    (sp1, omega1), (sp2, omega2) = cfg.species.items()
    tau, nominal = _trigger_interval(cfg, rng)
    r1, phi1, e1 = _phase_residual(cfg, sp1, omega1, tau, nominal, rng)
    r2, phi2, e2 = _phase_residual(cfg, sp2, omega2, tau, nominal, rng)
    beat_omega = omega1 - omega2
    t_true, t_beat = tau - nominal, wrap_pi(r1 - r2) / beat_omega
    return _layout(Protocol.QCS_BEAT, sp1, sp2).row((
        t_true, cfg.clock_b.y, phi1, phi2, t_beat, t_beat - t_true,
        *e1, r1 / omega1, *e2, r2 / omega2,
        math.hypot(e1.sigma_theta, e2.sigma_theta) / abs(beat_omega)))


def run_qcs_syntonize(cfg: ScenarioConfig, rng) -> TrialResult:
    """Doubled-ensemble rate recovery from two measurement epochs.

    Both sub-ensembles ride the same transport (one common-mode draw); the
    first is read out at B's epoch t1, the second at t2. Constant phases --
    transport and oscillator alike -- cancel in the epoch difference, leaving
    only the phase accumulated between the two readouts, which calibrates
    B's clock rate against the atomic frequency itself. A's clock rate does
    not enter: the collapse is a single event.
    """
    ((species, omega),) = cfg.species.items()
    t1, t2 = cfg.epochs.b_measure

    t_collapse = trigger_time(cfg.clock_a, cfg.epochs.a_start, rng)
    n_half = cfg.ensemble_size // 2
    phi_common = transport_phase(cfg.transport, species, omega, rng)
    theta0 = imprint_phase(cfg.clock_a.delta_by_species[species], phi_common)

    estimates = []
    for epoch, n_pairs in ((t1, n_half), (t2, cfg.ensemble_size - n_half)):
        tau = trigger_time(cfg.clock_b, epoch, rng) - t_collapse
        kept = _kept(cfg, n_pairs, rng)
        estimates.append(_read_out(cfg, species, omega, kept, theta0, tau, rng))
    e1, e2 = estimates
    y_hat, sigma_y = estimate_rate(e1, t1, e2, t2, omega)
    return _layout(Protocol.QCS_SYNTONIZE, species).row((
        cfg.clock_b.y, phi_common, y_hat, y_hat - cfg.clock_b.y,
        e1.theta_hat, e1.sigma_theta, e2.theta_hat, e2.sigma_theta, sigma_y))


def run_esct(cfg: ScenarioConfig, rng) -> TrialResult:
    """Slow-clock-transport baseline: the arrival error is the whole story."""
    err = esct_transfer(cfg.trip, rng)
    return _layout(Protocol.ESCT_BASELINE).row((0.0, err, err - 0.0))


_RUNNERS = {
    Protocol.QCS_BASIC: run_qcs_basic,
    Protocol.QCS_BEAT: run_qcs_beat,
    Protocol.QCS_SYNTONIZE: run_qcs_syntonize,
    Protocol.ESCT_BASELINE: run_esct,
}


def run_trials(protocol: Protocol, cfg: ScenarioConfig, lane: int = 0) -> list[TrialResult]:
    """Run cfg.trials independent trials, one Philox stream per (cfg.seed, trial, lane).

    Trial i is the runner on stream i, `runner(cfg, trial_stream(cfg.seed, i, lane))`,
    and sits at position i, so a parallel driver would merge to the same table.
    A trial left without an estimate re-raises its error, prefixed with what replays it.
    """
    protocol.validate(cfg)
    runner = _RUNNERS[protocol]
    results = []
    try:
        for rng in trial_streams(cfg.seed, cfg.trials, lane):
            results.append(runner(cfg, rng))
    except (DegenerateCountsError, InsufficientSamplesError) as exc:
        raise type(exc)(f"trial {len(results)} (seed {cfg.seed}, lane {lane}): {exc}") from None
    return results
