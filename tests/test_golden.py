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
        "beat": (dict(subcommand="beat", seed=13), two_species(
            ensemble_size=4000, trials=6, use_type_i=True,
            clock_b={"sigma_read": 1e-10, "delta_by_species": {"cs": 0.7, "rb": 0.7}},
            transport={"alpha": 1e-9, "sigma_common": 0.01,
                       "beta_by_species": {"cs": 0.0, "rb": 0.3}})),
        "syntonize": (dict(subcommand="syntonize", seed=14), syntonize(
            y=1e-12, ensemble_size=8000, trials=6,
            transport={"sigma_common": 0.5, "beta_by_species": {"cs": 2.0}})),
        "esct": (dict(subcommand="esct", seed=15), one_species(
            ensemble_size=4000, trials=6,
            trip={"duration": 10.0, "alpha": 5e-9, "jitter": 1e-9})),
        "compare": (dict(subcommand="compare", seed=16), matched_compare(
            alpha=5e-9, jitter=1e-9, ensemble_size=4000, trials=6)),
        "sweep": (dict(subcommand="sweep", seed=17, protocol="beat",
                       sweep_param="ensemble_size", sweep_values=[4000.0, 8000.0]),
                  two_species(ensemble_size=4000, trials=5)),
    }


def output_hashes(case, out_dir) -> dict:
    """sha256 of each output file of one case, keyed 'case/file'."""
    kwargs, cfg = _cases()[case]
    kwargs = dict(kwargs)
    run_experiment(kwargs.pop("subcommand"), cfg, out_dir, **kwargs)
    names = SWEEP_FILES if case == "sweep" else RUN_FILES
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
            "cb99f5087ae2993bad85b678b49afba6c935ff2332210a711e13897c293b8221",
        "compare/results.csv":
            "460fba9a5c8ad1712a2a58cb9e3f80232da562fa3adfb6dc5c5abeffe6dd5059",
        "compare/summary.json":
            "a71ba402464627bf8b9386b8cabdfe935f1a4a00bff4ea0f582499f2dae65338",
        "compare/manifest.json":
            "1b5ab9ce68fb909d65b73cca531454fdb23b21061257954491aa0f8800b5070c",
        "esct/results.csv":
            "6de5cba14581f0caab5ab951efdfbca04d2a562720ad5f5984e57969a54216ea",
        "esct/summary.json":
            "ba538dff21b43d1c627f257deff3d3c8af22d60de635728626b892ac0d03873f",
        "esct/manifest.json":
            "d37823ccc5e3d3e296c50ce3e62e1cd7228e8d4bfed5d5ba2d4c572582372347",
        "qcs/results.csv":
            "2923fb50a0f4d7cb72c4a62d175241c38154b4c078fda05cc98357509f17b71d",
        "qcs/summary.json":
            "abd77777c0b734d01347fb87faee7d826e7f49a8ffcd8e36a18fdfa14b58de43",
        "qcs/manifest.json":
            "f30ddb240b4e34a27684c4c89fc398cff1364c3711b1cf4ae0cdf04f039d09e0",
        "qcs-noiseless/results.csv":
            "d63e2b11c05f378632e0fd82ea07a484def7e3a408e7767e99992756169a8ab9",
        "qcs-noiseless/summary.json":
            "2dd009737c6c5681b6f32db9d6660763198fe2b362d430478afed347b262ffdd",
        "qcs-noiseless/manifest.json":
            "76f257328764ca984a22c3510a168dc9d37235573ad13d4ff44800ce0961908f",
        "qcs-pairwise/results.csv":
            "c6f21c3e07ebf813834a1712b3453c9408f1d9aa411a7af981e9f9d156e3fef4",
        "qcs-pairwise/summary.json":
            "874980a273695a7bae7b4ef7bfb578a8c6b80f1e4e0cd11cb37adedbbc4bbae2",
        "qcs-pairwise/manifest.json":
            "2e2aae0335651766277f80b9a881723076b27654c81e6b61d61b22e9d27d5b79",
        "sweep/sweep.csv":
            "0c8e558cbeab6b4372075c8e9d46c63c9c2a556bc4d1fe348c3594fdce7e3284",
        "sweep/summary.json":
            "df3b4a86b41e8560dbc07cbc6a7af6a11a1e924f167960c1386242245654f2e9",
        "sweep/manifest.json":
            "8c860f2c0e9200a79e9966cce2dbdc452c7c142eb65b8622d67640ecd0ab4cc2",
        "syntonize/results.csv":
            "3c05ef1467b5b585f339e2556b7432d4f7d59f650789b28283645c71385d3a07",
        "syntonize/summary.json":
            "9aa2ed7a666df81991a4be4029ed225b68f717c8d5ea611fc4c207842542a0e1",
        "syntonize/manifest.json":
            "a118b1776a5c7defd2c1826fcb2961b1b1aad163cb0b076af737ffe04262856b",
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
