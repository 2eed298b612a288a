"""Every accepted config runs to finite outputs, or fails before its first trial naming its field.

A derandomized hypothesis search over every subcommand, `compare` and
`sweep` included, draws each number from the edges of the magnitude rule
(0, +/-1e-100, +/-1e100 and the floats just inside them) and log-uniform
magnitudes between, plus the hard cases: a clock rate y a few ulps above -1,
a beat pair one ulp apart and two adjacent epochs. Each example runs 2-3
trials with warnings as errors and must end in one of three ways:

- finite strict-JSON files and a CSV whose every number is finite;
- a `ConfigError` or `AmbiguityError` whose message starts with a dotted
  field path, and no output directory;
- a `DegenerateCountsError`, which chance can reach in any trial (counts
  at the circle center abort the run), and no output directory.
"""
import csv
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qcs_sim import AmbiguityError, ConfigError, DegenerateCountsError, ScenarioConfig
from qcs_sim import run_experiment
from qcs_sim.config import MAX_MAGNITUDE, MIN_ENSEMBLE_PER_EPOCH
from qcs_sim.harness import SUBCOMMANDS, SWEEP_PROTOCOLS

#: Deterministic, and without the explain phase, which takes minutes on a failure.
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

TINY = 1.0 / MAX_MAGNITUDE
#: the edges of the rule and the floats just inside them, as magnitudes
EDGES = (TINY, math.nextafter(TINY, 1.0), MAX_MAGNITUDE, math.nextafter(MAX_MAGNITUDE, 0.0))
MAGNITUDE = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-100.0, 100.0).map(lambda e: min(max(10.0**e, TINY), MAX_MAGNITUDE)))
NONNEGATIVE = st.one_of(st.just(0.0), MAGNITUDE)
SIGNED = st.one_of(st.just(0.0), MAGNITUDE, MAGNITUDE.map(lambda m: -m))
#: a clock rate: y > -1, down to a few ulps above -1
RATE = st.one_of(
    st.integers(1, 4).map(lambda k: -1.0 + k * 2.0**-53), st.just(-0.999999999),
    NONNEGATIVE, MAGNITUDE.filter(lambda m: m < 1.0).map(lambda m: -m))

FIELDS = frozenset(ScenarioConfig.__dataclass_fields__)
#: a dotted field path at the start of a message, as `epochs.b_measure[1]` or `clock_b.y`
FIELD_PATH = re.compile(r"([A-Za-z_]\w*)(?:\.\w+|\[\d+\])*[ :]")


def _epochs(draw, count):
    """`count` strictly increasing epochs; two of them may be one ulp apart."""
    if count == 2 and draw(st.booleans()):
        t = draw(SIGNED)
        return [t, math.nextafter(t, math.inf)]
    return sorted(draw(st.lists(SIGNED, min_size=count, max_size=count, unique=True)))


def _species(draw, count):
    """Species omegas; a beat pair may sit one ulp apart."""
    omega = draw(MAGNITUDE)
    if count == 1:
        return {"cs": omega}
    if draw(st.booleans()):
        return {"cs": omega, "rb": math.nextafter(omega, draw(st.sampled_from((0.0, math.inf))))}
    return {"cs": omega, "rb": draw(MAGNITUDE)}


@st.composite
def runs(draw, subcommand):
    """(subcommand, scenario document, run_experiment keyword arguments)."""
    kwargs = {"seed": draw(st.integers(0, 2**64 - 1)), "trials": draw(st.integers(2, 3))}
    protocol = subcommand
    if subcommand == "sweep":
        protocol = draw(st.sampled_from(SWEEP_PROTOCOLS))
    n_species = 2 if protocol == "beat" else 1
    n_epochs = 2 if protocol == "syntonize" else draw(st.integers(1, 2))
    species = _species(draw, n_species)
    noiseless = draw(st.booleans())
    noise = st.just(0.0) if noiseless else NONNEGATIVE

    def per_species(values):
        return {sp: draw(values) for sp in species}

    def clock():
        return {"x0": draw(SIGNED), "y": draw(RATE), "sigma_read": draw(noise),
                "delta_by_species": per_species(SIGNED)}

    doc = {
        "species": species,
        "ensemble_size": draw(st.one_of(
            st.integers(MIN_ENSEMBLE_PER_EPOCH * n_epochs, 3000),
            st.sampled_from((10**9 - 1, 2**63 - 1, 10**100)))),
        "clock_a": clock(),
        "clock_b": clock(),
        "transport": {"alpha": draw(SIGNED), "beta_by_species": per_species(SIGNED),
                      "sigma_common": draw(noise), "sigma_pair": draw(noise)},
        "trip": {"duration": draw(MAGNITUDE), "alpha": draw(SIGNED), "jitter": draw(noise)},
        "epochs": {"a_start": draw(SIGNED), "b_measure": _epochs(draw, n_epochs)},
        "use_type_i": draw(st.booleans()),
        "shuffle_type_list": False if noiseless else draw(st.booleans()),
        "noiseless": noiseless,
    }
    if protocol == "compare":  # compare runs matched models only: the trip is the transport's
        transport, (omega,) = doc["transport"], species.values()
        transport["beta_by_species"] = {"cs": 0.0}
        doc["trip"].update(alpha=transport["alpha"], jitter=transport["sigma_common"] / omega)
    if subcommand == "sweep":
        params = (["matched_alpha", "matched_jitter"] if protocol == "compare" else
                  ["transport.alpha", "transport.sigma_common", "clock_b.x0", "clock_b.y",
                   "clock_a.sigma_read", "trip.jitter", "epochs.a_start", "species.cs",
                   "clock_b.delta_by_species.cs", "transport.beta_by_species.cs"])
        kwargs.update(protocol=protocol, sweep_param=draw(st.sampled_from(params)),
                      sweep_values=draw(st.lists(SIGNED, min_size=1, max_size=2)))
    return subcommand, doc, kwargs


def _strict(text):
    """A JSON document parsed with NaN and Infinity rejected."""
    def reject(constant):
        raise AssertionError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _check_outputs(out: Path):
    manifest = _strict((out / "manifest.json").read_text())
    _strict((out / "summary.json").read_text())
    assert set(manifest["outputs"].values()) | {"manifest.json"} == {p.name for p in out.iterdir()}
    table = out / manifest["outputs"].get("results", manifest["outputs"].get("sweep"))
    with open(table, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    assert len(rows) > 1
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:  # a protocol or parameter name, or an empty cell
                continue
            assert math.isfinite(value), (row, cell)


def _ends_in_one_of_three_ways(subcommand, doc, kwargs):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "run"
        try:
            run_experiment(subcommand, ScenarioConfig.from_dict(doc), out, **kwargs)
        except (ConfigError, AmbiguityError) as exc:
            match = FIELD_PATH.match(str(exc))
            assert match and match.group(1) in FIELDS, str(exc)
        except DegenerateCountsError:
            pass
        else:
            _check_outputs(out)
            return
        assert not out.exists()


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@SETTINGS
@given(data=st.data())
def test_every_drawn_run_is_finite_or_names_its_field_before_any_trial(subcommand, data):
    _ends_in_one_of_three_ways(*data.draw(runs(subcommand)))
