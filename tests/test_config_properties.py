"""Property tests of the scenario reader and writer.

Valid documents are drawn with optional sections and fields left out, so
the dataclass defaults are exercised as well as the values. Every number is
drawn within the magnitude rule: at most MAX_MAGNITUDE, and an omega of at
least 1/MAX_MAGNITUDE.
"""
import json
import math

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qcs_sim import ConfigError, ScenarioConfig
from qcs_sim.config import MAX_MAGNITUDE, MIN_ENSEMBLE_PER_EPOCH

#: Deterministic, and without the explain phase, which takes minutes on a failure.
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                    phases=(Phase.explicit, Phase.generate, Phase.shrink))

FINITE = st.floats(min_value=-MAX_MAGNITUDE, max_value=MAX_MAGNITUDE)
NONNEGATIVE = st.floats(min_value=0.0, max_value=MAX_MAGNITUDE)
POSITIVE = st.floats(min_value=1.0 / MAX_MAGNITUDE, max_value=MAX_MAGNITUDE)
RATE = st.floats(min_value=-1.0, exclude_min=True, max_value=MAX_MAGNITUDE)
#: the float just beyond the magnitude rule, which every float field rejects
TOO_LARGE = math.nextafter(MAX_MAGNITUDE, math.inf)
SPECIES_IDS = st.lists(st.text("abcXYZ019_", min_size=1, max_size=4),
                       min_size=1, max_size=3, unique=True)

#: Fields that must be >= 0 (or > 0), and a clock rate y, which must be > -1:
#: -1 is out of range for each. Any other number may be negative.
MINUS_ONE_INVALID = {"species", "sigma_read", "sigma_common", "sigma_pair", "duration",
                     "jitter", "ensemble_size", "seed", "trials", "y"}
#: Maps keyed by species id; an entry is a value of the map's field.
SPECIES_MAPS = {"species", "delta_by_species", "beta_by_species"}


def _section(draw, required, optional):
    return draw(st.fixed_dictionaries(required, optional=optional))


@st.composite
def documents(draw):
    """A valid scenario document."""
    ids = draw(SPECIES_IDS)
    noiseless = draw(st.booleans())
    noise = st.just(0.0) if noiseless else NONNEGATIVE

    def per_species(values):
        return st.fixed_dictionaries({sp: values for sp in ids})

    def clock():
        return _section(draw, {"delta_by_species": per_species(FINITE)},
                        {"x0": FINITE, "y": RATE, "sigma_read": noise})

    b_measure = draw(st.lists(FINITE, min_size=1, max_size=3, unique=True).map(sorted))
    use_type_i = draw(st.booleans())  # a shuffled list is read without it
    doc = {
        "species": draw(per_species(POSITIVE)),
        "clock_a": clock(),
        "clock_b": clock(),
        "transport": _section(draw, {"beta_by_species": per_species(FINITE)},
                              {"alpha": FINITE, "sigma_common": noise, "sigma_pair": noise}),
    }
    optional = {
        "ensemble_size": draw(st.integers(MIN_ENSEMBLE_PER_EPOCH * len(b_measure), 10**8)),
        "trip": _section(draw, {}, {"duration": POSITIVE, "alpha": FINITE, "jitter": noise}),
        "epochs": _section(draw, {"b_measure": st.just(b_measure)}, {"a_start": FINITE}),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "trials": draw(st.integers(1, 10**6)),
        "use_type_i": use_type_i,
        "shuffle_type_list": False if noiseless or use_type_i else draw(st.booleans()),
        "noiseless": noiseless,
    }
    keep = draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    doc.update((k, optional[k]) for k in keep)
    return doc


def _nodes(node, path=()):
    """(path, value) for every field and entry of a document, depth first."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _dotted(path):
    """The dotted path a message names; a list entry is named by its index, as `b_measure[1]`."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def _field(path):
    """The schema field a value belongs to: a map entry's is its map's."""
    names = [p for p in path if not isinstance(p, int)]
    return names[-2] if len(names) > 1 and names[-2] in SPECIES_MAPS else names[-1]


def _malformed(path, value):
    if isinstance(value, dict):
        return [[]]
    bad = ["x", math.nan, math.inf, -math.inf]
    if _field(path) in MINUS_ONE_INVALID:
        bad.append(-1)
    if isinstance(value, float):
        bad.append(TOO_LARGE if value >= 0 else -TOO_LARGE)
    return bad


@SETTINGS
@given(documents())
def test_valid_documents_round_trip(doc):
    cfg = ScenarioConfig.from_dict(doc)
    again = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()
    assert again.sha256 == cfg.sha256


@SETTINGS
@given(documents())
def test_every_malformed_field_is_named_by_its_dotted_path(doc):
    for path, value in list(_nodes(doc)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        for bad in _malformed(path, value):
            node[path[-1]] = bad
            try:
                ScenarioConfig.from_dict(doc)
            except ConfigError as exc:
                assert str(exc).startswith(_dotted(path)), (path, bad, str(exc))
            else:
                raise AssertionError(f"{_dotted(path)} = {bad!r} was accepted")
        node[path[-1]] = value
