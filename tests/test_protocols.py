import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from qcs_sim import (
    ConfigError,
    compare_equivalence,
    run_esct,
    run_qcs_basic,
    run_qcs_beat,
    run_qcs_syntonize,
    run_experiment,
    run_trials,
    trial_stream,
)
from qcs_sim.clocks import esct_transfer
from qcs_sim.quantum import canonicalize, prob_pos
from qcs_sim import protocols
from qcs_sim.protocols import Protocol

from pairwise_oracle import kept_good_flags, pairwise_counts, shuffled_type_lists
from scenarios import OMEGA_CS, OMEGA_RB, matched_compare, one_species, syntonize, two_species

NOISELESS_EPOCH = {"a_start": 0.0, "b_measure": [1e-3]}


def relerr(got, expected):
    return abs(got - expected) / abs(expected)


# -- basic protocol ------------------------------------------------------------


def test_perfect_case_recovers_offset_within_reported_sigma():
    cfg = one_species(clock_b={"x0": 3e-8, "delta_by_species": {"cs": 0.0}})
    hits = 0
    for i in range(20):
        r = run_qcs_basic(cfg, trial_stream(5, i))
        assert abs(r.truth["time_offset"] + 3e-8) < 1e-12
        if abs(r.error["time_offset"]) < 3 * r.diagnostics["sigma_time"]:
            hits += 1
    assert hits >= 18


def test_transport_delay_biases_by_minus_alpha():
    cfg = one_species(
        transport={"alpha": 5e-9, "beta_by_species": {"cs": 0.0}},
        epochs=NOISELESS_EPOCH,
        noiseless=True,
    )
    r = run_qcs_basic(cfg, trial_stream(0, 0))
    assert relerr(r.error["time_offset"], -5e-9) < 1e-9


def test_transport_bias_magnitude_matches_esct_error():
    cfg = one_species(
        transport={"alpha": 5e-9, "beta_by_species": {"cs": 0.0}},
        trip={"duration": 10.0, "alpha": 5e-9, "jitter": 0.0},
        epochs=NOISELESS_EPOCH,
        noiseless=True,
    )
    r = run_qcs_basic(cfg, trial_stream(0, 0))
    trip_error = esct_transfer(cfg.trip, trial_stream(0, 1))
    assert relerr(abs(r.error["time_offset"]), trip_error) < 1e-9


def test_oscillator_phase_mismatch_biases_by_delta_over_omega():
    cfg = one_species(
        clock_b={"delta_by_species": {"cs": 1.0}},
        epochs=NOISELESS_EPOCH,
        noiseless=True,
    )
    r = run_qcs_basic(cfg, trial_stream(0, 0))
    assert relerr(r.error["time_offset"], 1.0 / OMEGA_CS) < 1e-9


def test_basic_rejects_two_species():
    cfg = two_species()
    with pytest.raises(ValueError, match="one configured species"):
        run_trials(Protocol.QCS_BASIC, cfg.with_run(seed=0, trials=1))


def test_error_map_is_estimate_minus_truth():
    runs = (
        (run_qcs_basic, one_species(clock_b={"x0": 2e-8, "delta_by_species": {"cs": 0.3}})),
        (run_qcs_beat,
         two_species(clock_b={"x0": 2e-8, "delta_by_species": {"cs": 0.3, "rb": 0.0}})),
        (run_qcs_syntonize, syntonize()),
        (run_esct, matched_compare()),
    )
    for runner, cfg in runs:
        r = runner(cfg, trial_stream(8, 0))
        for key, value in r.error.items():
            assert value == r.estimate[key] - r.truth[key]
        assert set(r.error) == set(r.estimate) & set(r.truth)
        assert r.error[r.protocol.error_key] != 0.0


def _linear_clocks(y_a, y_b, a_start, epoch):
    """A noiseless qcs config with x0 and y on both clocks and the given epochs."""
    return one_species(
        ensemble_size=10_000, noiseless=True,
        clock_a={"x0": 2e-8, "y": y_a, "delta_by_species": {"cs": 0.0}},
        clock_b={"x0": -5e-8, "y": y_b, "delta_by_species": {"cs": 0.0}},
        epochs={"a_start": a_start, "b_measure": [epoch]})


def test_truth_time_offset_is_true_minus_nominal_elapsed_at_a_nonzero_a_start():
    # README's truth bookkeeping: true time zero is A's collapse, when A's clock
    # reads a_start; B reads out when his reads the epoch; each clock displays
    # x0 + (1 + y) * t, and the truth is true elapsed minus nominal elapsed
    a_start, epoch = 0.1, 0.35
    cfg = _linear_clocks(3e-9, -4e-9, a_start, epoch)
    r = run_qcs_basic(cfg, trial_stream(0, 0))
    elapsed = (epoch + 5e-8) / (1 - 4e-9) - (a_start - 2e-8) / (1 + 3e-9)
    assert r.truth["time_offset"] == pytest.approx(elapsed - (epoch - a_start), rel=1e-9)
    assert abs(r.error["time_offset"]) < 1e-15


@pytest.mark.parametrize("shift", [0.5, 4.0])
def test_shifting_a_start_and_the_epoch_together_moves_no_column(shift):
    # on one common rate, the true elapsed time depends on the readings'
    # difference alone; the columns agree to the rounding of omega * shift
    base = run_qcs_basic(_linear_clocks(3e-9, 3e-9, 0.1, 0.35), trial_stream(0, 0))
    moved = run_qcs_basic(_linear_clocks(3e-9, 3e-9, 0.1 + shift, 0.35 + shift),
                          trial_stream(0, 0))
    assert moved.layout is base.layout
    np.testing.assert_allclose(moved.values, base.values, rtol=1e-7, atol=1e-15)


def test_same_seed_same_config_is_deterministic():
    cfg = one_species(ensemble_size=10_000)
    a = run_qcs_basic(cfg, trial_stream(13, 4))
    b = run_qcs_basic(cfg, trial_stream(13, 4))
    assert a == b
    c = run_qcs_basic(cfg, trial_stream(13, 5))
    assert c != a


# -- the count sampler against the per-pair oracle ------------------------------
#
# Good pairs sit at phase 1 rad and are read in bases at 0 and pi/2, so they
# read pos with probability cos(phase/2)**2 at phase0 = 1, phase1 = 1 - pi/2.

ORACLE_N = 1000
ORACLE_TRIALS = 2000
ORACLE_PHASES = (1.0, 1.0 - 0.5 * math.pi)
ORACLE_CASES = {
    "honest": {},
    "shuffle": {"shuffle": True},
    "sigma_pair+type_i": {"sigma_pair": 0.5, "use_type_i": True},
    "shuffle+sigma_pair": {"shuffle": True, "sigma_pair": 0.5},
}


def _production_counts(cfg, n, rng):
    """(n0, k0, n1, k1) of one collapse of n pairs from the simulator's count sampler."""
    return protocols._measure_quadratures(cfg, ORACLE_PHASES[0], protocols._kept(cfg, n, rng),
                                          0.0, rng)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_counts_match_pairwise_oracle(case):
    flags = ORACLE_CASES[case]
    cfg = one_species(
        transport={"beta_by_species": {"cs": 0.0}, "sigma_pair": flags.get("sigma_pair", 0.0)},
        shuffle_type_list=flags.get("shuffle", False),
        use_type_i=flags.get("use_type_i", False),
    )
    rng = np.random.default_rng(21)
    got = np.array([_production_counts(cfg, ORACLE_N, rng) for _ in range(ORACLE_TRIALS)],
                   dtype=float)
    rng = np.random.default_rng(22)
    want = np.array([pairwise_counts(rng, (ORACLE_N,), *ORACLE_PHASES, **flags)[0]
                     for _ in range(ORACLE_TRIALS)], dtype=float)
    for name, col in (("k0", lambda c: c[:, 1]), ("k1", lambda c: c[:, 3]),
                      ("k0-k1", lambda c: c[:, 1] - c[:, 3])):
        p = stats.ks_2samp(col(got), col(want)).pvalue
        assert p > 0.001, f"{name}: KS p = {p:.2g}"


HONEST_CASES = {
    "plain": one_species(ensemble_size=10_001),
    "type_i": one_species(ensemble_size=10_001, use_type_i=True),
    "noiseless": one_species(ensemble_size=10_001, noiseless=True),
    "noiseless+type_i": one_species(ensemble_size=10_001, noiseless=True, use_type_i=True),
    "sigma_pair+type_i": one_species(ensemble_size=10_001, use_type_i=True,
                                     transport={"beta_by_species": {"cs": 0.0},
                                                "sigma_pair": 0.5}),
    "syntonize_halves": syntonize(ensemble_size=10_001),
    "syntonize_halves+type_i": syntonize(ensemble_size=10_001, use_type_i=True),
}


def _block_walk_counts(cfg, n, rng):
    """Reference readout of an honest list of n pairs, as a walk over all-good blocks.

    The partners of A's type II outcomes are one block and, with use_type_i,
    those of A's type I outcomes a second. Neither holds a bad pair, so no
    split is drawn: basis 0 reads the first half of the pairs, basis 1 the rest.
    """
    m = 0.5 * n if cfg.noiseless else int(rng.binomial(n, 0.5))
    blocks = [(m, 0), (n - m, 0)] if cfg.use_type_i else [(m, 0)]
    n_kept = sum(good for good, _ in blocks)
    p0 = prob_pos(ORACLE_PHASES[0], 0.0)
    p1 = prob_pos(ORACLE_PHASES[0], canonicalize(0.5 * math.pi))
    if cfg.noiseless:
        n0 = n1 = 0.5 * n_kept
        return n0, n0 * p0, n1, n1 * p1
    sigma = cfg.transport.sigma_pair
    if sigma > 0.0:
        contrast = math.exp(-0.5 * sigma * sigma)
        p0 = 0.5 + contrast * (p0 - 0.5)
        p1 = 0.5 + contrast * (p1 - 0.5)
    n0 = n_kept // 2
    n1 = n_kept - n0
    return n0, int(rng.binomial(n0, p0)), n1, int(rng.binomial(n1, p1))


@pytest.mark.parametrize("case", sorted(HONEST_CASES))
def test_honest_counts_match_block_walk(case):
    # same counts from the same stream, and the stream left at the same place:
    # a draw added, dropped or reordered shows in the counts or the next draw
    cfg = HONEST_CASES[case]
    n = cfg.ensemble_size
    sizes = (n // 2, n - n // 2) if case.startswith("syntonize") else (n,)
    for i in range(20):
        got_rng, want_rng = trial_stream(7, i), trial_stream(7, i)
        for size in sizes:
            got = _production_counts(cfg, size, got_rng)
            assert got == _block_walk_counts(cfg, size, want_rng)
        assert got_rng.random() == want_rng.random()


def _chi2_against_exact(samples, exact):
    """Chi-square of sampled outcomes against exact probabilities (sparse cells pooled)."""
    assert set(samples) <= set(exact), set(samples) - set(exact)
    n = len(samples)
    observed = Counter(samples)
    big = [k for k, p in exact.items() if n * p >= 5]
    f_obs = [observed[k] for k in big] + [n - sum(observed[k] for k in big)]
    f_exp = [n * exact[k] for k in big] + [n * (1.0 - sum(exact[k] for k in big))]
    if f_exp[-1] < 5:
        f_obs[-2:] = [f_obs[-2] + f_obs[-1]]
        f_exp[-2:] = [f_exp[-2] + f_exp[-1]]
    return stats.chisquare(f_obs, f_exp).pvalue


def test_shuffled_blocks_match_exact_enumeration():
    # B's kept (good, bad): announced type II and truly type II, announced II and truly I
    n = 5
    exact = Counter()
    for type_i, announced, prob in shuffled_type_lists(n):
        cells = Counter(zip(announced, type_i))
        exact[cells[False, False], cells[False, True]] += prob
    cfg = one_species(shuffle_type_list=True)
    rng = np.random.default_rng(25)
    samples = [tuple(protocols._kept(cfg, n, rng)) for _ in range(10_000)]
    assert _chi2_against_exact(samples, exact) > 0.001


def test_quadrature_split_matches_exact_enumeration():
    # (kept pairs, good pairs read in basis 0, good pairs kept); read at the
    # common phase, a good pair reads pos in basis 0 and a bad one never does,
    # so k0 counts basis 0's good pairs
    n = 6
    exact = Counter()
    for type_i, announced, prob in shuffled_type_lists(n):
        (good,) = kept_good_flags(type_i, announced, (n,), False)
        exact[len(good), sum(good[:len(good) // 2]), sum(good)] += prob
    cfg = one_species(shuffle_type_list=True)
    rng = np.random.default_rng(26)
    samples = []
    for _ in range(10_000):
        kept = protocols._kept(cfg, n, rng)
        n0, k0, n1, _ = protocols._measure_quadratures(cfg, 0.0, kept, 0.0, rng)
        samples.append((n0 + n1, k0, kept[0]))
    assert _chi2_against_exact(samples, exact) > 0.001


def test_shuffled_type_list_destroys_synchronization():
    cfg = one_species(ensemble_size=100_000, shuffle_type_list=True)
    phase_errors = []
    for i in range(60):
        r = run_qcs_basic(cfg, trial_stream(31, i))
        phase_errors.append(OMEGA_CS * r.error["time_offset"])
    rbar = abs(np.mean(np.exp(1j * np.array(phase_errors))))
    circ_std = math.sqrt(-2 * math.log(rbar))
    assert circ_std > 1.0
    # contrast: the honest channel keeps the error distribution tight
    cfg_ok = one_species(ensemble_size=100_000)
    ok_errors = [
        OMEGA_CS * run_qcs_basic(cfg_ok, trial_stream(31, i)).error["time_offset"]
        for i in range(20)
    ]
    rbar_ok = abs(np.mean(np.exp(1j * np.array(ok_errors))))
    assert math.sqrt(-2 * math.log(min(1.0 - 1e-15, rbar_ok))) < 0.1


def test_use_type_i_keeps_all_pairs():
    cfg = one_species(ensemble_size=100_000, use_type_i=True)
    r = run_qcs_basic(cfg, trial_stream(2, 0))
    assert r.diagnostics["pairs_used"] == 100_000
    assert abs(r.error["time_offset"]) < 4 * r.diagnostics["sigma_time"]


# -- beat protocol ---------------------------------------------------------------


def test_beat_requires_two_distinct_species():
    with pytest.raises(ValueError, match="two configured species"):
        run_trials(Protocol.QCS_BEAT, one_species().with_run(seed=0, trials=1))
    cfg = two_species(species={"cs": OMEGA_CS, "rb": OMEGA_CS})
    with pytest.raises(ValueError, match="beat undefined"):
        run_trials(Protocol.QCS_BEAT, cfg.with_run(seed=0, trials=1))


def test_beat_succeeds_when_oscillator_phases_match():
    cfg = two_species(
        clock_b={"delta_by_species": {"cs": 0.7, "rb": 0.7}},
        epochs={"a_start": 0.0, "b_measure": [0.25]},
    )
    r = run_qcs_beat(cfg, trial_stream(3, 0))
    assert abs(r.error["time_offset"]) < 3 * r.diagnostics["sigma_time"]
    # while each species alone is biased by its unmodeled 0.7 rad
    assert relerr(r.diagnostics["t_hat_cs"], 0.7 / OMEGA_CS) < 0.1


def test_beat_bias_from_species_dependent_phase():
    cfg = two_species(
        transport={"beta_by_species": {"cs": 0.0, "rb": 0.3}},
        noiseless=True,
    )
    r = run_qcs_beat(cfg, trial_stream(0, 0))
    expected = 0.3 / (OMEGA_CS - OMEGA_RB)
    assert relerr(r.error["time_offset"], expected) < 1e-9


def test_beat_does_not_remove_transport_delay():
    cfg = two_species(
        transport={"alpha": 1e-9, "beta_by_species": {"cs": 0.0, "rb": 0.0}},
        noiseless=True,
    )
    r = run_qcs_beat(cfg, trial_stream(0, 0))
    assert relerr(abs(r.error["time_offset"]), 1e-9) < 1e-9
    assert r.error["time_offset"] < 0  # documented sign convention: -alpha


def test_beat_columns_follow_species_names_whatever_their_config_order():
    # rb listed first; each species' transport phase is its own beta exactly
    cfg = two_species(
        species={"rb": OMEGA_RB, "cs": OMEGA_CS},
        ensemble_size=200_000,
        transport={"beta_by_species": {"cs": -0.2, "rb": 0.3}},
    )
    r = run_qcs_beat(cfg, trial_stream(5, 0))
    assert set(r.truth) == {"phi_common_cs", "phi_common_rb", "rate_offset", "time_offset"}
    assert (r.truth["phi_common_cs"], r.truth["phi_common_rb"]) == (-0.2, 0.3)
    # each species alone is biased by -beta/omega, its own and not the other's
    for species, omega, beta in (("cs", OMEGA_CS, -0.2), ("rb", OMEGA_RB, 0.3)):
        miss = r.diagnostics[f"t_hat_{species}"] * omega + beta
        assert abs(miss) < 5 * r.diagnostics[f"sigma_theta_{species}"], species


# -- syntonization ----------------------------------------------------------------


def test_syntonize_zero_rate_noiseless():
    cfg = syntonize(y=0.0, ensemble_size=8000, noiseless=True,
                    epochs={"a_start": 0.0, "b_measure": [1e-3, 2e-3]})
    r = run_qcs_syntonize(cfg, trial_stream(0, 0))
    assert abs(r.error["rate_offset"]) < 1e-12


def test_syntonize_recovers_configured_rate():
    cfg = syntonize(y=1e-12)
    r = run_qcs_syntonize(cfg, trial_stream(17, 0))
    assert abs(r.error["rate_offset"]) < 3 * r.diagnostics["sigma_rate"]
    assert r.truth["rate_offset"] == 1e-12


def test_syntonize_invariant_under_common_phase():
    base = run_qcs_syntonize(syntonize(phi_common=0.0), trial_stream(9, 0))
    for phi in (2.0, 4.0):
        shifted = run_qcs_syntonize(syntonize(phi_common=phi), trial_stream(9, 0))
        gap = abs(shifted.estimate["rate_offset"] - base.estimate["rate_offset"])
        assert gap < 3 * base.diagnostics["sigma_rate"]
        assert shifted.truth["phi_common_cs"] == phi


def test_syntonize_epoch_and_ambiguity_guards():
    with pytest.raises(ValueError, match="two measurement epochs"):
        run_trials(Protocol.QCS_SYNTONIZE, one_species().with_run(seed=0, trials=1))
    cfg = syntonize(y=1e-6, rad_advance=0.5, epochs={"a_start": 0.0, "b_measure": [1.0, 2.0]})
    with pytest.raises(ConfigError):
        run_trials(Protocol.QCS_SYNTONIZE, cfg.with_run(seed=0, trials=1))


def test_syntonize_guard_reads_the_epoch_difference_when_t1_is_not_zero():
    # epochs 1 s and 1.25 s: the walk uses t2 - t1 = 0.25 s, not t2 + t1 = 2.25 s,
    # and y = 0.5, where y / (1 + y) = 1/3 differs from y
    y, t1, t2 = 0.5, 1.0, 1.25
    edge = math.pi / ((t2 - t1) * y / (1.0 + y))

    def cfg(omega):
        return syntonize(y=y, ensemble_size=8000, species={"cs": omega},
                         epochs={"a_start": 0.0, "b_measure": [t1, t2]})

    Protocol.QCS_SYNTONIZE.validate(cfg(edge * (1 - 1e-9)))
    with pytest.raises(ConfigError, match=r"^clock_b\.y: configured rate offset is ambiguous"):
        Protocol.QCS_SYNTONIZE.validate(cfg(edge * (1 + 1e-9)))


def test_syntonize_advance_below_the_floor_is_a_config_error_naming_the_epochs(tmp_path):
    # omega * (t2 - t1) underflows to 0 here, and estimate_rate divides by it
    cfg = syntonize(y=0.0, ensemble_size=8000, species={"cs": 0.5},
                    epochs={"a_start": 0.0, "b_measure": [0.0, 5e-324]})
    with pytest.raises(ConfigError, match=r"^epochs\.b_measure: syntonize requires "
                                          r"omega \* \(t2 - t1\) >= 1e-100, got 0.0$"):
        run_experiment("syntonize", cfg, tmp_path / "x", trials=2)
    assert not (tmp_path / "x").exists()
    # an advance of exactly 1e-100 rad runs, to finite statistics
    cfg = syntonize(y=0.0, ensemble_size=8000, species={"cs": 1e-100},
                    epochs={"a_start": 0.0, "b_measure": [0.0, 1.0]})
    summary = run_experiment("syntonize", cfg, tmp_path / "y", seed=1, trials=3)
    assert all(math.isfinite(v) for v in summary["metrics"]["rate_offset"].values())


def test_syntonize_pairwise_path_matches():
    cfg = syntonize(
        ensemble_size=80_000,
        transport={"sigma_pair": 0.02, "beta_by_species": {"cs": 2.0}},
    )
    r = run_qcs_syntonize(cfg, trial_stream(4, 0))
    assert abs(r.error["rate_offset"]) < 4 * r.diagnostics["sigma_rate"]


# -- esct baseline -----------------------------------------------------------------


def test_esct_perfect_trip():
    cfg = one_species(trip={"duration": 10.0})
    r = run_esct(cfg, trial_stream(0, 0))
    assert r.error["time_offset"] == 0.0


def test_esct_deterministic_error_and_jitter_std():
    cfg = one_species(trip={"duration": 10.0, "alpha": 5e-9})
    assert run_esct(cfg, trial_stream(0, 0)).error["time_offset"] == 5e-9
    cfg = one_species(trip={"duration": 10.0, "jitter": 1e-9})
    results = run_trials(Protocol.ESCT_BASELINE, cfg.with_run(seed=6, trials=10_000))
    errs = [r.error["time_offset"] for r in results]
    assert abs(np.std(errs, ddof=1) / 1e-9 - 1.0) < 0.05


# -- equivalence -------------------------------------------------------------------


def test_compare_requires_matched_models():
    cfg = matched_compare(alpha=5e-9, jitter=1e-9)
    bad = one_species(
        transport={"alpha": 5e-9, "beta_by_species": {"cs": 0.0}},
        trip={"duration": 10.0, "alpha": 4e-9, "jitter": 0.0},
    )
    with pytest.raises(ValueError, match="matched"):
        compare_equivalence(bad.with_run(seed=0, trials=2))
    summary = compare_equivalence(cfg.with_run(seed=7, trials=200))
    assert 0.9 < summary["ratio"] < 1.1
    assert summary["qcs_estimator_floor"] > 0.0
    assert summary["esct_floor"] == 0.0


def test_compare_zero_models_report_floors():
    cfg = matched_compare(alpha=0.0, jitter=0.0)
    summary = compare_equivalence(cfg.with_run(seed=7, trials=50))
    assert summary["ratio"] is None
    assert summary["rms_esct"] == 0.0
    assert summary["rms_qcs"] < 5 * summary["qcs_estimator_floor"]


def test_trial_results_merge_in_trial_order():
    cfg = one_species(ensemble_size=5000)
    results = run_trials(Protocol.QCS_BASIC, cfg.with_run(seed=3, trials=7))
    assert all(r.protocol is Protocol.QCS_BASIC for r in results)
