import hashlib
import json
import math
import re

import numpy as np
import pytest

from qcs_sim import (ClockModel, ConfigError, Epochs, Protocol, ScenarioConfig, TransportModel,
                     load_config, run_trials)
from qcs_sim.config import MAX_MAGNITUDE, MIN_ENSEMBLE_PER_EPOCH
from qcs_sim.harness import apply_sweep_value
from qcs_sim.quantum import canonicalize

OMEGA = 2 * math.pi * 1e6

MINIMAL = {
    "species": {"cs": OMEGA},
    "clock_a": {"delta_by_species": {"cs": 0.0}},
    "clock_b": {"delta_by_species": {"cs": 0.0}},
    "transport": {"beta_by_species": {"cs": 0.0}},
}


def full_doc(**overrides):
    doc = {
        "species": {"cs": OMEGA},
        "ensemble_size": 5000,
        "clock_a": {"x0": 0.0, "y": 0.0, "sigma_read": 0.0, "delta_by_species": {"cs": 0.1}},
        "clock_b": {"x0": 1e-8, "y": 1e-12, "sigma_read": 0.0, "delta_by_species": {"cs": 0.2}},
        "transport": {
            "alpha": 1e-9,
            "beta_by_species": {"cs": 0.05},
            "sigma_common": 0.01,
            "sigma_pair": 0.0,
        },
        "trip": {"duration": 100.0, "alpha": 1e-9, "jitter": 1e-10},
        "epochs": {"a_start": 0.0, "b_measure": [0.25]},
        "seed": 42,
        "trials": 10,
        "use_type_i": False,
        "shuffle_type_list": False,
        "noiseless": False,
    }
    doc.update(overrides)
    return doc


def test_minimal_config_loads_with_defaults():
    cfg = ScenarioConfig.from_dict(MINIMAL)
    assert cfg.species["cs"] == OMEGA
    assert cfg.clock_a.x0 == 0.0 and cfg.clock_b.y == 0.0
    assert cfg.transport.alpha == 0.0
    assert cfg.epochs.b_measure == (1.0,)
    assert cfg.trials == 100 and cfg.seed == 0


def test_missing_delta_names_species():
    doc = dict(MINIMAL, clock_b={"delta_by_species": {}})
    with pytest.raises(ConfigError, match="clock_b.*'cs'"):
        ScenarioConfig.from_dict(doc)


def test_missing_beta_names_species():
    doc = dict(MINIMAL, transport={"beta_by_species": {}})
    with pytest.raises(ConfigError, match="beta_by_species.*'cs'"):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("section,key", [
    ("clock_a", "delta_by_species"),
    ("clock_b", "delta_by_species"),
    ("transport", "beta_by_species"),
])
def test_by_species_list_names_its_path(section, key):
    doc = dict(MINIMAL, **{section: {key: [0.0]}})
    with pytest.raises(ConfigError, match=f"{section}.{key} must be an object"):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("section,key", [
    ("clock_a", "delta_by_species"),
    ("clock_b", "delta_by_species"),
    ("transport", "beta_by_species"),
])
def test_by_species_entry_for_an_unlisted_species_is_named(section, key):
    # a mistyped species id next to the right one would be stored and hashed unread
    doc = dict(MINIMAL, **{section: {key: {"cs": 0.0, "Cs": 0.3}}})
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}\.Cs names no configured species$"):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("section", ["species", "clock_a", "transport", "trip", "epochs"])
def test_null_section_must_be_an_object(section):
    with pytest.raises(ConfigError, match=f"^{section} must be an object"):
        ScenarioConfig.from_dict(dict(MINIMAL, **{section: None}))


def test_empty_species_is_named():
    with pytest.raises(ConfigError, match="^species must name at least one"):
        ScenarioConfig.from_dict(dict(MINIMAL, species={}))


def test_missing_species_is_named():
    doc = {k: v for k, v in MINIMAL.items() if k != "species"}
    with pytest.raises(ConfigError, match="must define 'species'"):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize("path,value,message", [
    ("transport.sigma_common", -1.0, "transport.sigma_common must be >= 0"),
    ("clock_b.sigma_read", -1.0, "clock_b.sigma_read must be >= 0"),
    ("clock_b.y", -1.0, "clock_b.y must be > -1"),
    ("clock_a.delta_by_species.cs", math.nan, "clock_a.delta_by_species.cs must be finite"),
    ("transport.beta_by_species.cs", math.inf, "transport.beta_by_species.cs must be finite"),
    ("trip.duration", 0.0, "trip.duration must be > 0"),
    ("epochs.a_start", math.nan, "epochs.a_start must be finite"),
    ("species.cs", -1.0, "species.cs must be > 0"),
    # an int literal beyond float range reads as inf, as JSON's 1e999 does
    pytest.param("clock_b.x0", 10**400, "clock_b.x0 must be finite", id="x0-1e400"),
    pytest.param("trip.alpha", -10**400, "trip.alpha must be finite", id="alpha--1e400"),
    pytest.param("species.cs", 10**400, "species.cs must be finite",
                 id="omega-1e400"),
    pytest.param("clock_b.delta_by_species.cs", -10**400,
                 "clock_b.delta_by_species.cs must be finite", id="delta--1e400"),
    pytest.param("epochs.b_measure", [0.25, 10**400], "epochs.b_measure[1] must be finite",
                 id="b_measure-1e400"),
    # an int literal that no float holds exactly would run as a neighbouring float
    pytest.param("clock_b.x0", 2**53 + 1, "clock_b.x0 is an integer that no float holds exactly",
                 id="x0-2**53+1"),
    pytest.param("species.cs", 2**53 + 1, "species.cs is an integer that no float holds exactly",
                 id="omega-2**53+1"),
    pytest.param("epochs.b_measure", [0.25, 2**53 + 1],
                 "epochs.b_measure[1] is an integer that no float holds exactly",
                 id="b_measure-2**53+1"),
    # the magnitude rule: every number at most 1e100, and omega at least 1e-100
    pytest.param("clock_b.x0", 1e308, "clock_b.x0 must be at most 1e+100 in magnitude",
                 id="x0-1e308"),
    pytest.param("transport.alpha", -1e300, "transport.alpha must be at most 1e+100 in magnitude",
                 id="alpha--1e300"),
    pytest.param("trip.jitter", 1e308, "trip.jitter must be at most 1e+100 in magnitude",
                 id="jitter-1e308"),
    pytest.param("clock_b.sigma_read", 1e300,
                 "clock_b.sigma_read must be at most 1e+100 in magnitude", id="sigma_read-1e300"),
    pytest.param("species.cs", 1e300, "species.cs must be at most 1e+100 in magnitude",
                 id="omega-1e300"),
    pytest.param("species.cs", 1e-101, "species.cs must be >= 1e-100", id="omega-1e-101"),
    pytest.param("species.cs", 5e-324, "species.cs must be >= 1e-100", id="omega-5e-324"),
    pytest.param("epochs.b_measure", [0.25, 1e300],
                 "epochs.b_measure[1] must be at most 1e+100 in magnitude", id="b_measure-1e300"),
    pytest.param("transport.beta_by_species.cs", 2**400,
                 "transport.beta_by_species.cs must be at most 1e+100 in magnitude",
                 id="beta-2**400"),
])
def test_model_errors_name_the_dotted_path(path, value, message):
    doc = full_doc()
    *parents, leaf = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = value
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(doc)
    assert str(exc.value).startswith(message)


def test_the_magnitude_rule_keeps_its_edges():
    edge, beyond = MAX_MAGNITUDE, math.nextafter(MAX_MAGNITUDE, math.inf)
    doc = full_doc(clock_b={"x0": -edge, "y": edge, "sigma_read": edge,
                            "delta_by_species": {"cs": edge}},
                   species={"cs": 1.0 / MAX_MAGNITUDE})
    cfg = ScenarioConfig.from_dict(doc)
    assert (cfg.clock_b.x0, cfg.species["cs"]) == (-1e100, 1e-100)
    doc["species"]["cs"] = math.nextafter(1.0 / MAX_MAGNITUDE, 0.0)
    with pytest.raises(ConfigError, match=r"^species\.cs must be >= 1e-100$"):
        ScenarioConfig.from_dict(doc)
    # a noiseless run counts pairs in floats, so its ensemble obeys the rule too
    noiseless = dict(MINIMAL, noiseless=True, ensemble_size=10**100)
    assert ScenarioConfig.from_dict(noiseless).ensemble_size == 10**100
    with pytest.raises(ConfigError, match=r"^ensemble_size must be at most 1e\+100$"):
        ScenarioConfig.from_dict(dict(noiseless, ensemble_size=2 * 10**100))
    # a built model, a sweep point and a run override go through the same field pass
    with pytest.raises(ConfigError, match=r"^x0 must be at most 1e\+100 in magnitude$"):
        ClockModel(x0=-beyond)
    with pytest.raises(ConfigError, match=r"^clock_b\.x0 must be at most 1e\+100 in magnitude$"):
        apply_sweep_value(cfg, "clock_b.x0", beyond)
    assert cfg.with_run(seed=1, trials=2).clock_b.x0 == -edge


def test_nonpositive_omega_rejected():
    for omega in (0.0, -3.0, math.inf, math.nan):
        message = "^species.cs must be " + ("> 0" if math.isfinite(omega) else "finite")
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(dict(MINIMAL, species={"cs": omega}))
        # checked before the species' cross-references
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(species={"cs": omega})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioConfig.from_dict(dict(MINIMAL, bogus=1))
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioConfig.from_dict(dict(MINIMAL, trip={"durationn": 1.0}))


def test_ensemble_floor_scales_with_epochs():
    ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=540))
    with pytest.raises(ConfigError, match="ensemble_size"):
        ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=539))
    two_epochs = dict(MINIMAL, epochs={"b_measure": [1.0, 2.0]}, ensemble_size=1079)
    with pytest.raises(ConfigError, match="ensemble_size"):
        ScenarioConfig.from_dict(two_epochs)


def test_basic_trials_at_the_ensemble_floor_complete():
    # m ~ Bin(N, 1/2) type-II pairs; the floor keeps a quadrature below
    # MIN_SAMPLES to ~5e-10 per trial, so 200 trials should all estimate
    cfg = ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=MIN_ENSEMBLE_PER_EPOCH))
    assert len(run_trials(Protocol.QCS_BASIC, cfg.with_run(seed=0, trials=200))) == 200


def test_shuffled_ensemble_stays_below_hypergeometric_limit():
    with pytest.raises(ConfigError, match="ensemble_size"):
        ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=10**9, shuffle_type_list=True))
    ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=10**9 - 1, shuffle_type_list=True))
    ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=10**12))


def test_drawn_ensemble_stays_below_binomial_limit():
    # numpy's Binomial takes a C long; a noiseless run draws no counts
    with pytest.raises(ConfigError, match=r"^ensemble_size must be < 2\*\*63 unless noiseless"):
        ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=2**63))
    for protocol, extra in ((Protocol.QCS_BASIC, {}), (Protocol.QCS_BASIC, {"use_type_i": True}),
                            (Protocol.QCS_SYNTONIZE, {"epochs": {"b_measure": [1.0, 2.0]}})):
        cfg = ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=2**63 - 1, trials=2, **extra))
        assert len(run_trials(protocol, cfg)) == 2
    cfg = ScenarioConfig.from_dict(dict(MINIMAL, ensemble_size=10**20, trials=2, noiseless=True))
    assert len(run_trials(Protocol.QCS_BASIC, cfg)) == 2


def test_trials_floor():
    with pytest.raises(ConfigError, match="trials"):
        ScenarioConfig.from_dict(dict(MINIMAL, trials=0))


def test_epoch_ordering_enforced():
    with pytest.raises(ConfigError, match="increasing"):
        ScenarioConfig.from_dict(dict(MINIMAL, epochs={"b_measure": [2.0, 1.0]}))
    with pytest.raises(ConfigError, match="at least one"):
        ScenarioConfig.from_dict(dict(MINIMAL, epochs={"b_measure": []}))


def test_species_id_charset():
    doc = dict(MINIMAL)
    doc["species"] = {"c,s": OMEGA}
    with pytest.raises(ConfigError, match="species id"):
        ScenarioConfig.from_dict(doc)


def test_noiseless_requires_zero_noise():
    # full_doc has common-mode transport jitter and trip jitter; both are named, in order
    doc = full_doc(noiseless=True)
    with pytest.raises(ConfigError, match="^noiseless mode requires zero noise parameters; "
                                          "offending: transport.sigma_common, trip.jitter$"):
        ScenarioConfig.from_dict(doc)


NOISE_SOURCES = ("transport.sigma_common", "transport.sigma_pair", "clock_a.sigma_read",
                 "clock_b.sigma_read", "trip.jitter", "shuffle_type_list")


@pytest.mark.parametrize("source", NOISE_SOURCES)
def test_noiseless_names_exactly_the_one_noise_source_it_rejects(source):
    doc = full_doc(noiseless=True, transport={"alpha": 1e-9, "beta_by_species": {"cs": 0.05}},
                   trip={"duration": 100.0, "alpha": 1e-9})
    ScenarioConfig.from_dict(doc)  # every noise source at zero
    *section, leaf = source.split(".")
    (doc[section[0]] if section else doc)[leaf] = True if leaf == "shuffle_type_list" else 0.5
    message = f"noiseless mode requires zero noise parameters; offending: {source}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_dict(doc)


def test_round_trip_is_identity():
    cfg = ScenarioConfig.from_dict(full_doc())
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    # and via actual JSON text
    third = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert third == cfg


def _digest(cfg):
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_sha256_is_the_digest_of_the_canonical_json():
    cfg = ScenarioConfig.from_dict(full_doc())
    assert cfg.sha256 == _digest(cfg)
    assert cfg.sha256 == ScenarioConfig.from_dict(cfg.to_dict()).sha256


@pytest.mark.parametrize("mapping", [
    lambda cfg: cfg.species,
    lambda cfg: cfg.clock_a.delta_by_species,
    lambda cfg: cfg.clock_b.delta_by_species,
    lambda cfg: cfg.transport.beta_by_species,
])
def test_config_mappings_are_read_only(mapping):
    cfg = ScenarioConfig.from_dict(full_doc())
    with pytest.raises(TypeError):
        mapping(cfg)["cs"] = 1.0
    with pytest.raises(TypeError):
        mapping(cfg)["rb"] = 1.0
    with pytest.raises(TypeError):
        del mapping(cfg)["cs"]


def test_dicts_mutated_after_construction_leave_config_and_hash_unchanged():
    species = {"cs": OMEGA}
    delta_a, delta_b, beta = {"cs": 0.1}, {"cs": 0.2}, {"cs": 0.05}
    b_measure = [0.25, 0.5]
    cfg = ScenarioConfig(species=species, ensemble_size=5000,
                         clock_a=ClockModel(delta_by_species=delta_a),
                         clock_b=ClockModel(delta_by_species=delta_b),
                         transport=TransportModel(beta_by_species=beta),
                         epochs=Epochs(b_measure=b_measure))
    doc, digest = cfg.to_dict(), cfg.sha256
    species["cs"], species["rb"] = 2 * OMEGA, 3 * OMEGA
    delta_a["cs"], delta_b["rb"], beta["cs"] = 1.0, 1.0, 1.0
    b_measure[0] = 0.1
    b_measure.append(1.0)
    assert cfg.epochs.b_measure == (0.25, 0.5)
    assert cfg.to_dict() == doc
    assert cfg.sha256 == digest == _digest(cfg)


def test_deltas_are_stored_reduced_and_the_hash_is_pinned():
    doc = {
        "species": {"cs": 6283185, "rb": 4.4e6},
        "ensemble_size": 10000,
        "clock_a": {"delta_by_species": {"cs": -0.5, "rb": 7.0}},
        "clock_b": {"delta_by_species": {"cs": 6.283185307179586, "rb": -1e-300}},
        "transport": {"beta_by_species": {"cs": 0.0, "rb": 0.0}},
    }
    cfg = ScenarioConfig.from_dict(doc)
    for clock in ("clock_a", "clock_b"):
        given = doc[clock]["delta_by_species"]
        stored = dict(getattr(cfg, clock).delta_by_species)
        assert stored == {sp: canonicalize(x) for sp, x in given.items()}
        assert cfg.to_dict()[clock]["delta_by_species"] == stored
    assert dict(cfg.clock_b.delta_by_species) == {"cs": 0.0, "rb": 0.0}
    assert cfg.clock_a.delta_by_species["cs"] == 2 * math.pi - 0.5
    # pinned: a change to the stored deltas or to the JSON form moves it
    assert cfg.sha256 == "fb39adbd78006c634f186a9475f74884854caad23e98662d7955afc8326958df"


def test_with_run_hashes_the_new_config():
    cfg = ScenarioConfig.from_dict(full_doc())
    run = cfg.with_run(seed=7)
    assert run.sha256 != cfg.sha256
    assert run.sha256 == _digest(run) == _digest(ScenarioConfig.from_dict(full_doc(seed=7)))
    assert cfg.sha256 == _digest(cfg)


def test_load_config_reports_parse_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"species": {"cs": 1.0},,}\n')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(p)


#: MINIMAL as JSON text, one root member each; a case's text replaces the member it names.
MINIMAL_TEXT = {"species": '{"cs": 1.0}', "clock_a": '{"delta_by_species": {"cs": 0.0}}',
                "transport": '{"beta_by_species": {"cs": 0.0}}',
                "clock_b": '{"delta_by_species": {"cs": 0.0}}'}


def _minimal_with(tmp_path, text):
    members = [f'"{k}": {v}' for k, v in MINIMAL_TEXT.items() if not text.startswith(f'"{k}"')]
    p = tmp_path / "config.json"
    p.write_text("{" + ", ".join(members + [text]) + "}")
    return p


@pytest.mark.parametrize("text,path", [
    ('"clock_b": {"delta_by_species": {"cs": 0.0}, "x0": 3e-8}, '
     '"clock_b": {"delta_by_species": {"cs": 0.0}}', "clock_b"),
    ('"clock_b": {"delta_by_species": {"cs": 0.0, "cs": 0.5}}', "clock_b.delta_by_species.cs"),
    ('"species": {"cs": 1.0, "cs": 2.0}', "species.cs"),
    ('"transport": {"beta_by_species": {"cs": 0.0, "cs": 0.1}}', "transport.beta_by_species.cs"),
], ids=["section", "species-entry", "omega", "beta"])
def test_load_config_rejects_a_repeated_key(tmp_path, text, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} is repeated$"):
        load_config(_minimal_with(tmp_path, text))


@pytest.mark.parametrize("text,message", [
    ('"species": {"cs": {"omega": 1.0}}', "species.cs must be a number, got {'omega': 1.0}"),
    ('"epochs": {"b_measure": [{"t": 1.0}]}', "epochs.b_measure[0] must be a number, got {'t': 1.0}"),
], ids=["map-entry", "list-entry"])
def test_load_config_shows_an_object_where_a_number_belongs_as_read(tmp_path, text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(_minimal_with(tmp_path, text))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/nowhere.json")


def test_load_config_happy_path(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(full_doc()))
    cfg = load_config(p)
    assert cfg.seed == 42
    assert cfg.trip.jitter == 1e-10


def built(**overrides):
    """MINIMAL, built in Python instead of loaded."""
    sections = dict(clock_a=ClockModel(delta_by_species={"cs": 0.0}),
                    clock_b=ClockModel(delta_by_species={"cs": 0.0}),
                    transport=TransportModel(beta_by_species={"cs": 0.0}))
    return ScenarioConfig(**{"species": {"cs": OMEGA}, **sections, **overrides})


@pytest.mark.parametrize("how,field,value", [
    ("load", "use_type_i", "false"),
    ("load", "noiseless", "no"),
    ("load", "seed", 1.9),
    ("load", "trials", 2.7),
    ("load", "ensemble_size", "abc"),
    ("sweep", "use_type_i", 0.5),
    ("sweep", "seed", 3.9),
    ("build", "noiseless", "no"),
    ("build", "use_type_i", "no"),
    ("build", "seed", 1.9),
    ("build", "trials", 2.7),
    ("build", "ensemble_size", 4000.7),
])
def test_no_silent_coercion_of_int_and_bool_fields(how, field, value):
    with pytest.raises(ConfigError, match=field):
        if how == "load":
            ScenarioConfig.from_dict(dict(MINIMAL, **{field: value}))
        elif how == "build":
            built(**{field: value})
        else:
            apply_sweep_value(ScenarioConfig.from_dict(MINIMAL), field, value)


def test_a_built_config_stores_floats_and_hashes_like_its_reloaded_json():
    # int-spelled floats: omega, a clock offset and an epoch
    cfg = built(species={"cs": 6283185}, clock_b=ClockModel(x0=1, delta_by_species={"cs": 0}),
                epochs=Epochs(b_measure=[1]))
    assert type(cfg.species["cs"]) is float
    assert type(cfg.clock_b.x0) is float and type(cfg.epochs.b_measure[0]) is float
    assert cfg.sha256 == ScenarioConfig.from_dict(cfg.to_dict()).sha256 == _digest(cfg)


@pytest.mark.parametrize("x0", [2**53 + 1, np.int64(2**53 + 1)], ids=["int", "numpy-int64"])
def test_a_built_config_rejects_an_integer_no_float_holds(x0):
    with pytest.raises(ConfigError, match="^x0 is an integer that no float holds exactly"):
        built(clock_b=ClockModel(x0=x0, delta_by_species={"cs": 0.0}))


def test_mapping_keys_of_a_built_config_must_be_strings():
    # a JSON file cannot produce these keys; a config built in Python can
    with pytest.raises(ConfigError, match=r"species keys must be strings, got \[1\]"):
        built(species={1: 2.0e6})
    with pytest.raises(ConfigError, match=r"delta_by_species keys must be strings, got \[2\]"):
        ClockModel(delta_by_species={2: 0.5})


def test_integral_floats_and_boolean_sweeps_are_accepted():
    cfg = ScenarioConfig.from_dict(full_doc(ensemble_size=1e6, seed=7.0))
    assert cfg.ensemble_size == 1_000_000 and type(cfg.ensemble_size) is int
    assert cfg.seed == 7 and type(cfg.seed) is int
    assert apply_sweep_value(cfg, "use_type_i", 1.0).use_type_i is True
    assert apply_sweep_value(cfg, "use_type_i", 0.0).use_type_i is False
    assert apply_sweep_value(cfg, "trials", 20.0).trials == 20
