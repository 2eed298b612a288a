"""Golden output bytes: every subcommand's files hash to recorded values.

A rerun of the same build is covered by test_reruns_are_byte_identical; this
test pins the bytes across code changes, so a refactor that shifts one RNG
draw or one float operation fails here. numpy does not promise stable
`Generator.binomial` streams across releases, so the hashes are keyed by
numpy version and other versions skip.

To record a new numpy version, run `python tests/test_golden.py` and paste
the printed mapping into GOLDEN.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qcs_sim import run_experiment

from scenarios import matched_compare, one_species, syntonize, two_species

RUN_FILES = ("results.csv", "summary.json", "manifest.json")
SWEEP_FILES = ("sweep.csv", "summary.json", "manifest.json")


def _cases():
    noisy_b = {"x0": 3e-8, "sigma_read": 1e-10, "delta_by_species": {"cs": 0.2}}
    noisy_transport = {"alpha": 1e-9, "sigma_common": 0.01, "beta_by_species": {"cs": 0.05}}
    # read noise on both clocks, so the order of A's trigger draw against B's
    # and against the transport draw shows in the bytes
    noisy_a = {"x0": -1e-8, "sigma_read": 3e-10, "delta_by_species": {"cs": 0.1}}
    return {
        "qcs": (dict(subcommand="qcs", seed=11), one_species(
            ensemble_size=4000, trials=6, clock_b=noisy_b, transport=noisy_transport)),
        "qcs-noiseless": (dict(subcommand="qcs", seed=1), one_species(
            ensemble_size=4000, trials=2, noiseless=True,
            clock_b={"x0": 2e-8, "delta_by_species": {"cs": 0.3}},
            epochs={"a_start": 0.0, "b_measure": [1e-3]})),
        # an honest noiseless list with use_type_i keeps all n pairs as expected counts
        "qcs-noiseless-type-i": (dict(subcommand="qcs", seed=2), one_species(
            ensemble_size=4000, trials=2, noiseless=True, use_type_i=True,
            clock_b={"x0": 2e-8, "delta_by_species": {"cs": 0.3}},
            epochs={"a_start": 0.0, "b_measure": [1e-3]})),
        "qcs-pairwise": (dict(subcommand="qcs", seed=12), one_species(
            ensemble_size=4000, trials=4, use_type_i=True, clock_b=noisy_b,
            transport=dict(noisy_transport, sigma_pair=0.02))),
        # a shuffled list, which is read without use_type_i
        "qcs-shuffle-plain": (dict(subcommand="qcs", seed=26), one_species(
            ensemble_size=4000, trials=4, shuffle_type_list=True, clock_b=noisy_b,
            transport=dict(noisy_transport, sigma_pair=0.02))),
        "qcs-read-noise": (dict(subcommand="qcs", seed=21), one_species(
            ensemble_size=4000, trials=4, clock_a=noisy_a, clock_b=noisy_b,
            transport=noisy_transport)),
        "beat": (dict(subcommand="beat", seed=13), two_species(
            ensemble_size=4000, trials=6, use_type_i=True,
            clock_b={"sigma_read": 1e-10, "delta_by_species": {"cs": 0.7, "rb": 0.7}},
            transport={"alpha": 1e-9, "sigma_common": 0.01,
                       "beta_by_species": {"cs": 0.0, "rb": 0.3}})),
        # an honest list without use_type_i, read with sigma_pair contrast
        "beat-plain": (dict(subcommand="beat", seed=28), two_species(
            ensemble_size=4000, trials=6,
            clock_b={"sigma_read": 1e-10, "delta_by_species": {"cs": 0.7, "rb": 0.7}},
            transport={"alpha": 1e-9, "sigma_common": 0.01, "sigma_pair": 0.02,
                       "beta_by_species": {"cs": 0.0, "rb": 0.3}})),
        "syntonize": (dict(subcommand="syntonize", seed=14), syntonize(
            y=1e-12, ensemble_size=8000, trials=6,
            transport={"sigma_common": 0.5, "beta_by_species": {"cs": 2.0}})),
        "syntonize-read-noise": (dict(subcommand="syntonize", seed=22), syntonize(
            y=1e-12, ensemble_size=8000, trials=4, clock_a=noisy_a,
            clock_b={"y": 1e-12, "sigma_read": 1e-10, "delta_by_species": {"cs": 0.2}},
            transport={"sigma_common": 0.5, "beta_by_species": {"cs": 2.0}})),
        "syntonize-noiseless": (dict(subcommand="syntonize", seed=23), syntonize(
            y=1e-12, ensemble_size=8000, trials=2, noiseless=True,
            clock_a={"delta_by_species": {"cs": 0.1}},
            clock_b={"y": 1e-12, "x0": 2e-8, "delta_by_species": {"cs": 0.2}},
            transport={"alpha": 1e-9, "beta_by_species": {"cs": 2.0}})),
        "syntonize-sigma-pair": (dict(subcommand="syntonize", seed=24), syntonize(
            y=1e-12, ensemble_size=8000, trials=4, use_type_i=True,
            transport={"sigma_common": 0.5, "sigma_pair": 0.3, "beta_by_species": {"cs": 2.0}})),
        "beat-noiseless": (dict(subcommand="beat", seed=25), two_species(
            ensemble_size=4000, trials=2, noiseless=True,
            clock_a={"delta_by_species": {"cs": 0.1, "rb": 0.2}},
            clock_b={"x0": 2e-8, "delta_by_species": {"cs": 0.3, "rb": 0.5}},
            transport={"alpha": 1e-9, "beta_by_species": {"cs": 0.0, "rb": 0.3}})),
        "esct": (dict(subcommand="esct", seed=15), one_species(
            ensemble_size=4000, trials=6,
            trip={"duration": 10.0, "alpha": 5e-9, "jitter": 1e-9})),
        "compare": (dict(subcommand="compare", seed=16), matched_compare(
            alpha=5e-9, jitter=1e-9, ensemble_size=4000, trials=6)),
        "sweep": (dict(subcommand="sweep", seed=17, protocol="beat",
                       sweep_param="ensemble_size", sweep_values=[4000.0, 8000.0]),
                  two_species(ensemble_size=4000, trials=5)),
        "sweep-compare": (dict(subcommand="sweep", seed=20, protocol="compare",
                               sweep_param="matched_jitter", sweep_values=[1e-10, 1e-9]),
                          matched_compare(alpha=5e-9, jitter=1e-9, ensemble_size=4000,
                                          trials=5)),
    }


def output_hashes(case, out_dir) -> dict:
    """sha256 of each output file of one case, keyed 'case/file'."""
    kwargs, cfg = _cases()[case]
    kwargs = dict(kwargs)
    run_experiment(kwargs.pop("subcommand"), cfg, out_dir, **kwargs)
    names = SWEEP_FILES if case.startswith("sweep") else RUN_FILES
    return {
        f"{case}/{name}": hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in names
    }


GOLDEN = {
    "numpy 2.4.6": {
        "beat/results.csv":
            "0d68f3ed3c70f3f6ba23f20d2ae85fb91e8aa8deec1718ffeda01441bf038ea7",
        "beat/summary.json":
            "3abd13056642da067e77649556f94194e17a42427a88640046def3f1f450cb2a",
        "beat/manifest.json":
            "be3383d0874d4dc832c71681c4abd666683a4262ebf0b626e7a5c5d9b45c3c7b",
        "beat-noiseless/results.csv":
            "b94f1cfa59f9d644d5c915f0dd6ddb6f4e4defceae222385687763e9c8bff578",
        "beat-noiseless/summary.json":
            "97f50b1584aa77a8bbfb4527049c089f47b22a130e7899b9262f98200da80f50",
        "beat-noiseless/manifest.json":
            "d798d90ce5432ebaef47d097701ba00cf806246b62f504f8addfac53aafafeeb",
        "beat-plain/results.csv":
            "3bb24b7be3f78464e780470211d5ced00bcdb45b5be2e6ee6cfc0824019adc6c",
        "beat-plain/summary.json":
            "6739e35c5ac58002a0c1b01e3a2c1223ecec3f6d7e21da8ad6423f35ff9057e6",
        "beat-plain/manifest.json":
            "def3d3b738889667ae29d886788e6731c9c300025952ef44fde70522f7420d8a",
        "compare/results.csv":
            "460fba9a5c8ad1712a2a58cb9e3f80232da562fa3adfb6dc5c5abeffe6dd5059",
        "compare/summary.json":
            "a71ba402464627bf8b9386b8cabdfe935f1a4a00bff4ea0f582499f2dae65338",
        "compare/manifest.json":
            "fd0a3b8d3fb19f7347d7f8b6dc4d44ae1d9e3fd915ac27885d922de25543e357",
        "esct/results.csv":
            "6de5cba14581f0caab5ab951efdfbca04d2a562720ad5f5984e57969a54216ea",
        "esct/summary.json":
            "ba538dff21b43d1c627f257deff3d3c8af22d60de635728626b892ac0d03873f",
        "esct/manifest.json":
            "9676dbccacf74430f7c3c136e0c50f2d6aaad89bbe5e952a992e9a20b800e360",
        "qcs/results.csv":
            "2923fb50a0f4d7cb72c4a62d175241c38154b4c078fda05cc98357509f17b71d",
        "qcs/summary.json":
            "abd77777c0b734d01347fb87faee7d826e7f49a8ffcd8e36a18fdfa14b58de43",
        "qcs/manifest.json":
            "87af537de7bdd216fc8ff3906e2765feee06b258a119c14f50056a621606717d",
        "qcs-noiseless/results.csv":
            "d63e2b11c05f378632e0fd82ea07a484def7e3a408e7767e99992756169a8ab9",
        "qcs-noiseless/summary.json":
            "2dd009737c6c5681b6f32db9d6660763198fe2b362d430478afed347b262ffdd",
        "qcs-noiseless/manifest.json":
            "e07d61b599942db9061fa2019769cab9e0aadd04e89ecf93c01c1f3fcef33933",
        "qcs-noiseless-type-i/results.csv":
            "f81ae35a97072d5399755e955e9fb57755496f55c26db975a2a70486d7e4065b",
        "qcs-noiseless-type-i/summary.json":
            "f17df1deabeed21f64a8b60aa4aee111d2cf199173f3cf73db37642632d4ec18",
        "qcs-noiseless-type-i/manifest.json":
            "8bba51dc68cf4a2a5bfa084d3eddfdebefa7061cc1e7e3d41efc2b87b7bc305e",
        "qcs-pairwise/results.csv":
            "6859b854848e43125cc033f7ff6deee9d04c96032ef5962967040ba0e53a1bb5",
        "qcs-pairwise/summary.json":
            "0d40f3ec0e2bb98b5d19a41ae7df8ad86a132e1b8daf355e0b7e140ec8064a4e",
        "qcs-pairwise/manifest.json":
            "614cb9ef76c71ace8fc6625e20a6f626d806b8cb0c026117940c484681a6a6d3",
        "qcs-read-noise/results.csv":
            "59fc34f4c89e7111159048af1aada547f448a7ede47dd4ad88ae69b8f852c9e7",
        "qcs-read-noise/summary.json":
            "12a15294c4610f5830dda6979d50a261b972445ec10471b4d7501134b3aa08b4",
        "qcs-read-noise/manifest.json":
            "e4647f5cacd427b43216cbed7c6f89b2e48a53869e8ac3af81e2e9ce65935609",
        "qcs-shuffle-plain/results.csv":
            "743ae2eabe248485c6a43c2fa025bb438cb7aca1d388e7c70130ffefbb3f88f0",
        "qcs-shuffle-plain/summary.json":
            "1b944f4d31395e587b4d54316b5d66f0dc0eec158b88b98b552b8441131dc21f",
        "qcs-shuffle-plain/manifest.json":
            "aa35fe44afb79b43b001ba677b56f717b3df01c26b369aeec326ed9e993c8f69",
        "sweep/sweep.csv":
            "0c8e558cbeab6b4372075c8e9d46c63c9c2a556bc4d1fe348c3594fdce7e3284",
        "sweep/summary.json":
            "df3b4a86b41e8560dbc07cbc6a7af6a11a1e924f167960c1386242245654f2e9",
        "sweep/manifest.json":
            "910c657000a096b49c164272b64cf412f3715907d78606c629821542e3773c50",
        "sweep-compare/sweep.csv":
            "5adabe0d1bc5fe33aa1b9bf452577115748336d5bc1c9eee22b5c553bfde0702",
        "sweep-compare/summary.json":
            "4139ab655efae854ab612ee45f1e60e992f2394dbb578faff551e49841ddd7aa",
        "sweep-compare/manifest.json":
            "5e34cbaffdc53127cd6f47b4c95bba08a5e3c0bd80b5cc2bd68e32f30c0970ae",
        "syntonize/results.csv":
            "3c05ef1467b5b585f339e2556b7432d4f7d59f650789b28283645c71385d3a07",
        "syntonize/summary.json":
            "9aa2ed7a666df81991a4be4029ed225b68f717c8d5ea611fc4c207842542a0e1",
        "syntonize/manifest.json":
            "98f0fbd84f1deff50c5a6bc8de3a7cfe7a4dd645e44bfa40a591ce2070740864",
        "syntonize-noiseless/results.csv":
            "1da0a75a92045865c6a7b2c0a7c9329a230b4d7a052c1a5c65b64ef22b61c6ef",
        "syntonize-noiseless/summary.json":
            "50e3b3c45812984273e5b5f84c07a04e7266c8ade806f742d4bb9b6759184b7e",
        "syntonize-noiseless/manifest.json":
            "ebbb82192aac5786808b2fbefafb234f959569a9b6aef11f814a195f45c2d93e",
        "syntonize-sigma-pair/results.csv":
            "0298315752afbb45d69c03c1accd594aedea7cd4c0c1fd5c2ad224552d08f072",
        "syntonize-sigma-pair/summary.json":
            "fc37e3138e7d4feafd10026de70e8bcf47d0d0c08d205d57108903af8416cf09",
        "syntonize-sigma-pair/manifest.json":
            "c5c9979ab44e6761cc8e708bc9a1872fd0a196ef8a25acf4bdc516b1b1578fd9",
        "syntonize-read-noise/results.csv":
            "5f3ef1cfe8b2f878c64094a15c5cb3373d674244a3d9c2936742251530dc59b8",
        "syntonize-read-noise/summary.json":
            "647f1072956dbe2f059823f5059a1c0207a751f4b40fb961b9ca9f368036ebfd",
        "syntonize-read-noise/manifest.json":
            "a611a637d0b3aac31d7fb139f87a843ce55c926262d9f9f3e1647b5852e60e01",
    },
}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_outputs_match_golden_bytes(case, tmp_path):
    recorded = GOLDEN.get(f"numpy {np.__version__}")
    if recorded is None:
        pytest.skip(f"no golden bytes recorded for numpy {np.__version__}")
    got = output_hashes(case, tmp_path)
    assert got == {k: v for k, v in recorded.items() if k.startswith(f"{case}/")}


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("case", sorted(_cases()))
def test_json_outputs_are_strict_json(case, tmp_path):
    # unlike the hashes these do not depend on the numpy version, so they never skip
    kwargs, cfg = _cases()[case]
    kwargs = dict(kwargs)
    run_experiment(kwargs.pop("subcommand"), cfg, tmp_path, **kwargs)
    for name in ("summary.json", "manifest.json"):
        json.loads((tmp_path / name).read_text(encoding="utf-8"), parse_constant=_reject)


#: results.csv headers of five of the cases above. Unlike the hashes they do
#: not depend on the numpy version, so they never skip.
_QCS_COLUMNS = ["truth_phi_common_cs", "truth_rate_offset", "truth_time_offset",
                "estimate_time_offset", "error_time_offset", "diagnostics_k0", "diagnostics_k1",
                "diagnostics_n0", "diagnostics_n1", "diagnostics_pairs_used",
                "diagnostics_sigma_theta", "diagnostics_sigma_time", "diagnostics_theta_hat"]
HEADERS = {
    "qcs": ["trial_id", "protocol", *_QCS_COLUMNS],
    "beat": ["trial_id", "protocol", "truth_phi_common_cs", "truth_phi_common_rb",
             "truth_rate_offset", "truth_time_offset", "estimate_time_offset",
             "error_time_offset", "diagnostics_k0_cs", "diagnostics_k0_rb", "diagnostics_k1_cs",
             "diagnostics_k1_rb", "diagnostics_n0_cs", "diagnostics_n0_rb", "diagnostics_n1_cs",
             "diagnostics_n1_rb", "diagnostics_sigma_theta_cs", "diagnostics_sigma_theta_rb",
             "diagnostics_sigma_time", "diagnostics_t_hat_cs", "diagnostics_t_hat_rb",
             "diagnostics_theta_hat_cs", "diagnostics_theta_hat_rb"],
    "syntonize": ["trial_id", "protocol", "truth_phi_common_cs", "truth_rate_offset",
                  "estimate_rate_offset", "error_rate_offset", "diagnostics_sigma_rate",
                  "diagnostics_sigma_theta_1", "diagnostics_sigma_theta_2",
                  "diagnostics_theta_hat_1", "diagnostics_theta_hat_2"],
    "esct": ["trial_id", "protocol", "truth_time_offset", "estimate_time_offset",
             "error_time_offset"],
    "compare": ["trial_id", "protocol", *_QCS_COLUMNS],  # esct rows leave qcs-only cells empty
}


@pytest.mark.parametrize("case", sorted(HEADERS))
def test_results_header_matches_recorded_columns(case, tmp_path):
    kwargs, cfg = _cases()[case]
    kwargs = dict(kwargs)
    run_experiment(kwargs.pop("subcommand"), cfg, tmp_path, **kwargs)
    header = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()[1].split(",")
    moved = [(i, want, got) for i, (want, got) in enumerate(zip(HEADERS[case], header))
             if want != got]
    assert not moved, f"column {moved[0][0]} is {moved[0][2]!r}, recorded {moved[0][1]!r}"
    assert header == HEADERS[case]


if __name__ == "__main__":
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(_cases()):
            hashes.update(output_hashes(case, Path(tmp) / case))
    print(json.dumps({f"numpy {np.__version__}": hashes}, indent=4))
