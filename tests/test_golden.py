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

from scenarios import OMEGA_CS, OMEGA_RB, matched_compare, one_species, syntonize, two_species

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
        "qcs-pairwise": (dict(subcommand="qcs", seed=12), one_species(
            ensemble_size=4000, trials=4, use_type_i=True, clock_b=noisy_b,
            transport=dict(noisy_transport, sigma_pair=0.02))),
        "qcs-shuffle": (dict(subcommand="qcs", seed=18), one_species(
            ensemble_size=4000, trials=4, use_type_i=True, shuffle_type_list=True,
            clock_b=noisy_b, transport=dict(noisy_transport, sigma_pair=0.02))),
        "qcs-read-noise": (dict(subcommand="qcs", seed=21), one_species(
            ensemble_size=4000, trials=4, clock_a=noisy_a, clock_b=noisy_b,
            transport=noisy_transport)),
        "beat": (dict(subcommand="beat", seed=13), two_species(
            ensemble_size=4000, trials=6, use_type_i=True,
            clock_b={"sigma_read": 1e-10, "delta_by_species": {"cs": 0.7, "rb": 0.7}},
            transport={"alpha": 1e-9, "sigma_common": 0.01,
                       "beta_by_species": {"cs": 0.0, "rb": 0.3}})),
        "syntonize": (dict(subcommand="syntonize", seed=14), syntonize(
            y=1e-12, ensemble_size=8000, trials=6,
            transport={"sigma_common": 0.5, "beta_by_species": {"cs": 2.0}})),
        "syntonize-shuffle": (dict(subcommand="syntonize", seed=19), syntonize(
            y=1e-12, ensemble_size=8000, trials=4, use_type_i=True, shuffle_type_list=True,
            transport={"sigma_common": 0.5, "beta_by_species": {"cs": 2.0}})),
        "syntonize-read-noise": (dict(subcommand="syntonize", seed=22), syntonize(
            y=1e-12, ensemble_size=8000, trials=4, clock_a=noisy_a,
            clock_b={"y": 1e-12, "sigma_read": 1e-10, "delta_by_species": {"cs": 0.2}},
            transport={"sigma_common": 0.5, "beta_by_species": {"cs": 2.0}})),
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
        "qcs-shuffle/results.csv":
            "711992b0d67a344cf8df7be776d78d3633781cc44170e31403666cb8fe3d541a",
        "qcs-shuffle/summary.json":
            "50faafffe39068e6ab107a6f956331fed8ccb453b52585fa16126a4085e63764",
        "qcs-shuffle/manifest.json":
            "13e2981368b04cf1af7fb4027e8aec6121c70feecdc960d236a94aa84265f457",
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
        "syntonize-read-noise/results.csv":
            "5f3ef1cfe8b2f878c64094a15c5cb3373d674244a3d9c2936742251530dc59b8",
        "syntonize-read-noise/summary.json":
            "647f1072956dbe2f059823f5059a1c0207a751f4b40fb961b9ca9f368036ebfd",
        "syntonize-read-noise/manifest.json":
            "a611a637d0b3aac31d7fb139f87a843ce55c926262d9f9f3e1647b5852e60e01",
        "syntonize-shuffle/results.csv":
            "b50a70272ab67c7769bf3ba56a1825d86f138cd8a41a529ee8069940510f4c11",
        "syntonize-shuffle/summary.json":
            "fa038009642c039a476576a0b833f7dab0990310621dd5e933c91964a8ef423c",
        "syntonize-shuffle/manifest.json":
            "e790263fa06d192f7a7ff257704d652bb6585ce6eae63a1429ce50222e240bbb",
    },
}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_outputs_match_golden_bytes(case, tmp_path):
    recorded = GOLDEN.get(f"numpy {np.__version__}")
    if recorded is None:
        pytest.skip(f"no golden bytes recorded for numpy {np.__version__}")
    got = output_hashes(case, tmp_path)
    assert got == {k: v for k, v in recorded.items() if k.startswith(f"{case}/")}


if __name__ == "__main__":
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(_cases()):
            hashes.update(output_hashes(case, Path(tmp) / case))
    print(json.dumps({f"numpy {np.__version__}": hashes}, indent=4))
