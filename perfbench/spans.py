"""Span tracer for the traced benchmark run.

The tracer replaces a function at the place its caller looks it up (a module
global such as `protocols.collapse_singlet`, a dispatch-table entry, or a
class attribute) with a wrapper that records one span: name, start, end,
parent and whether it raised. Wrappers consume no randomness and pass
arguments and results through untouched, so a traced run writes the same
bytes as an untraced one; the benchmark checks that.

A span's name is the attribute that was replaced, and its layer is the
module that defines the callee. Self time is a span's duration minus the
durations of its direct children.

Only the standard library is imported here.
"""
from __future__ import annotations

import functools
import time
import types

#: Protocols whose runner spans are QCS trials (ESCT trials carry no ensemble).
QCS_RUNNERS = ("run_qcs_basic", "run_qcs_beat", "run_qcs_syntonize")


class Tracer:
    """Records nested spans of wrapped calls, in memory, until `take()`."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        # one record per span: [name_id, start_ns, end_ns, parent index, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def add(self, owner, attr: str, name: str, layer: str, observe=None):
        """Prepare a wrapper for owner.attr (or owner[attr] for a dict).

        `observe(args, kwargs, result)` runs after each successful call.
        """
        if isinstance(owner, dict):
            raw = fn = owner[attr]
        else:
            raw, fn = vars(owner)[attr], getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, clock(), -1, stack[-1] if stack else -1, False]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[4] = True
                stack.pop()
                raise
            rec[2] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        installed = traced if isinstance(owner, (dict, types.ModuleType)) else staticmethod(traced)
        self._patches.append((owner, attr, raw, installed))

    def install(self):
        for owner, attr, _, installed in self._patches:
            _set(owner, attr, installed)

    def uninstall(self):
        for owner, attr, raw, _ in reversed(self._patches):
            _set(owner, attr, raw)

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty record."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Counters:
    """Counts taken from call arguments and results at the layer boundaries."""

    def __init__(self):
        self.pairs_simulated = 0
        self.array_bytes_trial = 0
        self.array_bytes_max = 0
        self.n_used = 0.0
        self.ensemble = 0
        self.pairwise_trials = 0

    def quantum_result(self, args, kwargs, result):
        self.array_bytes_trial += _array_bytes(result)

    def collapse(self, args, kwargs, result):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self.pairs_simulated += int(size or 1)
        self.quantum_result(args, kwargs, result)

    def phase_estimate(self, args, kwargs, result):
        self.n_used += result.n_used

    def qcs_trial(self, args, kwargs, result):
        cfg = args[0]
        species = len(cfg.species) if result.protocol.value == "beat" else 1
        self.ensemble += cfg.ensemble_size * species
        if cfg.transport.sigma_pair > 0.0 or cfg.shuffle_type_list:
            self.pairwise_trials += 1
        self.array_bytes_max = max(self.array_bytes_max, self.array_bytes_trial)
        self.array_bytes_trial = 0


def _array_bytes(result) -> int:
    """Bytes of the ndarrays a quantum call returns, from their sizes."""
    total = 0
    for value in (result, getattr(result, "theta", None), getattr(result, "type_i", None),
                  getattr(getattr(result, "state_b", None), "theta", None)):
        total += getattr(value, "nbytes", 0)
    return total


def instrument(tracer: Tracer, counters: Counters):
    """Register every cross-module call site of qcs_sim that the benchmark traces."""
    from qcs_sim import config, estimation, harness, protocols, transport

    sites = {
        protocols: {
            "rng": ("trial_stream",),
            "quantum": ("collapse_singlet", "evolve", "imprint_phase", "prob_pos",
                        "canonicalize", "EquatorialState", "BasisPhase"),
            "transport": ("apply_transport", "transport_phase"),
            "clocks": ("trigger_time", "basis_for", "esct_transfer"),
            "estimation": ("estimate_phase", "estimate_rate", "check_rate_ambiguity",
                           "wrap_pi", "MeasurementRecord"),
            "protocols": ("run_trials",),
        },
        transport: {"quantum": ("imprint_phase",)},
        estimation: {"quantum": ("canonicalize",)},
        harness: {
            "protocols": ("run_trials", "compare_equivalence"),
            "harness": ("run_experiment", "run_sweep", "apply_sweep_value",
                        "summarize_trials", "write_results_csv", "_write_json"),
        },
        config: {"config": ("load_config",)},
    }
    observers = {
        "collapse_singlet": counters.collapse,
        "estimate_phase": counters.phase_estimate,
    }
    for owner, by_layer in sites.items():
        module = owner.__name__.rsplit(".", 1)[-1]
        for layer, attrs in by_layer.items():
            for attr in attrs:
                observe = observers.get(attr)
                if observe is None and layer == "quantum":
                    observe = counters.quantum_result
                tracer.add(owner, attr, f"{module}.{attr}", layer, observe)
    tracer.add(config.ScenarioConfig, "from_dict", "ScenarioConfig.from_dict", "config")
    for key, runner in list(protocols._RUNNERS.items()):
        observe = counters.qcs_trial if runner.__name__ in QCS_RUNNERS else None
        tracer.add(protocols._RUNNERS, key, f"protocols.{runner.__name__}", "protocols",
                   observe)


class Profile:
    """Per-name totals over the analysed rounds, plus QCS trial durations."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.failed = [0] * n
        self.trial_ns: list[int] = []
        self.rounds = 0  # traced rounds; spans of set-up are analysed but not a round

    def analyse(self, spans: list[list]) -> list[str]:
        """Fold one round's spans in; return nesting problems found (none expected)."""
        problems = []
        child_ns = [0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if end < start:
                problems.append(f"span {i} never closed")
            if parent >= 0:
                _, p_start, p_end, _, _ = spans[parent]
                if parent >= i or not (p_start <= start and end <= p_end):
                    problems.append(f"span {i} not inside its parent {parent}")
                child_ns[parent] += end - start
        trial_ids = {i for i, name in enumerate(self.tracer.names)
                     if name.rsplit(".", 1)[-1] in QCS_RUNNERS}
        for (name_id, start, end, _, failed), children in zip(spans, child_ns):
            own = end - start - children
            if own < 0:
                problems.append(f"negative self time in {self.tracer.names[name_id]}")
            self.calls[name_id] += 1
            self.total_ns[name_id] += end - start
            self.self_ns[name_id] += own
            self.failed[name_id] += failed
            if name_id in trial_ids:
                self.trial_ns.append(end - start)
        return problems

    def by_layer(self, values, layer) -> int:
        return sum(v for v, l in zip(values, self.tracer.layers) if l == layer)

    def by_name(self, values, *suffixes) -> int:
        return sum(v for v, n in zip(values, self.tracer.names)
                   if n.rsplit(".", 1)[-1] in suffixes)


def percentile(values, q) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(profile: Profile, counters: Counters, extra: dict) -> dict:
    """Per-layer metrics as name -> (value, unit): times and counts per traced round.

    `extra` adds the metrics measured outside the spans.
    """
    r = max(profile.rounds, 1)
    per_round_s = lambda ns: ns / r / 1e9
    per_round = lambda count: count / r
    streams = profile.by_name(profile.calls, "trial_stream")
    trials = profile.trial_ns or [0]
    layer = profile.by_layer
    m = {
        "rng.stream_us": (profile.by_name(profile.total_ns, "trial_stream") / streams / 1e3
                          if streams else 0.0, "us"),
        "rng.streams": (per_round(streams), "count"),
        "quantum.pairs_simulated": (per_round(counters.pairs_simulated), "count"),
        "quantum.array_mib": (counters.array_bytes_max / 2**20, "MiB"),
        "estimation.failed": (per_round(layer(profile.failed, "estimation")), "count"),
        "estimation.pairs_used_frac": (counters.n_used / counters.ensemble
                                       if counters.ensemble else 0.0, "frac"),
        "protocols.trial_us_p50": (percentile(trials, 50) / 1e3, "us"),
        "protocols.trial_us_p99": (percentile(trials, 99) / 1e3, "us"),
        "protocols.trial_samples": (len(profile.trial_ns), "count"),
        "protocols.pairwise_trials": (per_round(counters.pairwise_trials), "count"),
        "harness.run_trials_s": (per_round_s(profile.by_name(profile.total_ns, "run_trials")), "s"),
        "harness.summarize_s": (per_round_s(profile.by_name(profile.total_ns, "summarize_trials")), "s"),
        "harness.write_s": (per_round_s(profile.by_name(profile.total_ns, "write_results_csv",
                                                        "_write_json")), "s"),
        "harness.sweep_rebuild_s": (per_round_s(profile.by_name(profile.total_ns,
                                                                "apply_sweep_value")), "s"),
        "config.load_s": (profile.by_name(profile.total_ns, "load_config") / 1e9, "s"),
        "config.from_dict_us": (profile.by_name(profile.total_ns, "from_dict")
                                / max(profile.by_name(profile.calls, "from_dict"), 1) / 1e3, "us"),
        **extra,
    }
    for name in ("quantum", "transport", "clocks", "estimation", "protocols", "harness"):
        m[f"{name}.self_s"] = (per_round_s(layer(profile.self_ns, name)), "s")
    for name in ("quantum", "transport", "clocks", "estimation"):
        m[f"{name}.calls"] = (per_round(layer(profile.calls, name)), "count")
    return m
