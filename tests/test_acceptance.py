"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes well under a minute.
"""
import math

import numpy as np
from scipy import stats

from qcs_sim import (
    BasisPhase,
    Frequency,
    compare_equivalence,
    run_experiment,
    run_qcs_basic,
    run_qcs_beat,
    run_trials,
    trial_stream,
)
from qcs_sim.protocols import Protocol
from qcs_sim.quantum import EquatorialState, evolve, prob_pos

from amplitude_oracle import (
    circular_diff,
    evolve_amplitudes,
    prob_pos_amplitudes,
    relative_phase,
    state_from_theta,
)
from quantum_helpers import ramsey_prob
from scenarios import OMEGA_CS, OMEGA_RB, matched_compare, one_species, syntonize, two_species

TWO_PI = 2 * math.pi


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_resonant_fringe_is_dark_time_independent():
    f = Frequency(TWO_PI * 9.2e9)
    worst = max(
        abs(ramsey_prob(f, f.omega, T, 0.0) - 1.0) for T in (0.0, 1e-3, 1.0, 1e3)
    )
    _report(
        "1 resonant-fringe-time-independence", worst <= 1e-12,
        f"max |P - 1| = {worst:.2e} over T in {{0, 1e-3, 1, 1e3}} s, tol 1e-12",
    )


def test_criterion_2_full_amplitude_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        theta = rng.uniform(0, TWO_PI)
        delta = rng.uniform(0, TWO_PI)
        tau = rng.uniform(-10, 10)
        omega = rng.uniform(0.1, 100.0)
        s = evolve(EquatorialState(theta), Frequency(omega), tau)
        amps = evolve_amplitudes(state_from_theta(theta), omega, tau, e0=rng.uniform(-5, 5))
        worst = max(
            worst,
            abs(circular_diff(s.theta, relative_phase(amps))),
            abs(prob_pos(s, BasisPhase(delta)) - prob_pos_amplitudes(amps, delta)),
        )
    _report(
        "2 quantum-core-oracle-equivalence", worst <= 1e-10,
        f"max deviation {worst:.2e} over 10^4 random (state, basis, tau) cases, tol 1e-10",
    )


def test_criterion_3_perfect_case_qcs_recovers_truth():
    cfg = one_species(clock_b={"x0": 3e-8, "delta_by_species": {"cs": 0.0}})
    hits = 0
    for i in range(100):
        r = run_qcs_basic(cfg, trial_stream(300, i), trial_id=i)
        if abs(r.error["time_offset"]) < 3 * r.diagnostics["sigma_time"]:
            hits += 1
    _report(
        "3 perfect-case-qcs", hits >= 95,
        f"{hits}/100 seeded trials within 3 reported sigma at n = 10^6 pairs (need >= 95)",
    )


def test_criterion_4_esct_equivalence_over_jitter_sweep():
    ratios = {}
    for jitter in (1e-10, 1e-9, 1e-8):
        cfg = matched_compare(alpha=5e-9, jitter=jitter)
        summary = compare_equivalence(cfg, seed=404, trials=1000)
        ratios[jitter] = summary["ratio"]
    ok = all(0.9 <= r <= 1.1 for r in ratios.values())
    detail = ", ".join(f"jitter={j:g}s -> ratio={r:.4f}" for j, r in ratios.items())
    _report("4 esct-equivalence", ok, detail + " (alpha = 5 ns, 1000 trials, need [0.9, 1.1])")


def test_criterion_5_beat_note_disambiguation_and_failure():
    # (a) identical per-species constant phases: statistically zero error
    cfg = two_species(
        clock_b={"delta_by_species": {"cs": 0.7, "rb": 0.7}},
        epochs={"a_start": 0.0, "b_measure": [0.25]},
    )
    r = run_qcs_beat(cfg, trial_stream(505, 0))
    ok_equal = abs(r.error["time_offset"]) < 3 * r.diagnostics["sigma_time"]

    # (b) species-dependent offset: bias = (beta2 - beta1)/(omega1 - omega2)
    cfg = two_species(
        transport={"beta_by_species": {"cs": 0.0, "rb": 0.3}},
        epochs={"a_start": 0.0, "b_measure": [1e-3]},
        noiseless=True,
    )
    r = run_qcs_beat(cfg, trial_stream(0, 0))
    expected = 0.3 / (OMEGA_CS - OMEGA_RB)
    rel_beta = abs(r.error["time_offset"] - expected) / expected

    # (c) transport delay survives the beat: |bias| = alpha = 1 ns exactly
    # (sign is -alpha under the repo-wide residual convention)
    cfg = two_species(
        transport={"alpha": 1e-9, "beta_by_species": {"cs": 0.0, "rb": 0.0}},
        epochs={"a_start": 0.0, "b_measure": [1e-3]},
        noiseless=True,
    )
    r = run_qcs_beat(cfg, trial_stream(0, 0))
    rel_alpha = abs(abs(r.error["time_offset"]) - 1e-9) / 1e-9
    sign_ok = r.error["time_offset"] < 0

    ok = ok_equal and rel_beta < 1e-9 and rel_alpha < 1e-9 and sign_ok
    _report(
        "5 beat-note-disambiguation", ok,
        f"equal-phase |err|<3sigma: {ok_equal}; beta bias rel err {rel_beta:.2e}; "
        f"alpha-survival rel err {rel_alpha:.2e} (tol 1e-9)",
    )


def test_criterion_6_syntonization_transport_invariance():
    samples = {}
    for phi in (0.0, 2.0, 4.0):
        cfg = syntonize(y=1e-12, phi_common=phi)
        results = run_trials(Protocol.QCS_SYNTONIZE, cfg, seed=606, trials=200)
        samples[phi] = np.array([r.estimate["rate_offset"] for r in results])

    means_ok = True
    details = []
    for phi, ys in samples.items():
        sem = ys.std(ddof=1) / math.sqrt(len(ys))
        gap = abs(ys.mean() - 1e-12)
        means_ok &= gap < 3 * sem
        details.append(f"phi={phi:g}: mean gap {gap:.2e} (3 s.e. {3*sem:.2e})")
    p02 = stats.ttest_ind(samples[0.0], samples[2.0], equal_var=False).pvalue
    p04 = stats.ttest_ind(samples[0.0], samples[4.0], equal_var=False).pvalue
    tests_ok = p02 > 0.01 and p04 > 0.01
    _report(
        "6 syntonization-transport-invariance", means_ok and tests_ok,
        "; ".join(details) + f"; Welch p-values {p02:.3f}, {p04:.3f} (need > 0.01)",
    )


def test_criterion_7_classical_channel_necessity():
    cfg = one_species(shuffle_type_list=True)
    phase_errors = []
    for i in range(100):
        r = run_qcs_basic(cfg, trial_stream(707, i), trial_id=i)
        phase_errors.append(OMEGA_CS * r.error["time_offset"])
    produced = len(phase_errors)
    rbar = abs(np.mean(np.exp(1j * np.array(phase_errors))))
    circ_std = math.sqrt(-2 * math.log(rbar))
    _report(
        "7 classical-channel-necessity", produced == 100 and circ_std > 1.0,
        f"{produced}/100 shuffled trials produced estimates; circular std "
        f"{circ_std:.2f} rad (need > 1)",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = one_species(ensemble_size=10_000, trials=10)
    run_experiment("qcs", cfg, tmp_path / "a", seed=808)
    run_experiment("qcs", cfg, tmp_path / "b", seed=808)
    same = (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()
    _report(
        "8 determinism", same,
        "two runs with identical (config, seed) produced byte-identical results.csv",
    )
