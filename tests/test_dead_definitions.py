"""Every top-level function and class in `src/qcs_sim` has a user.

A definition has a user when code in `src/qcs_sim` reads its name outside
the definition's own body, when `qcs_sim.__all__` exports it, or when the
benchmark tracer (`perfbench/spans.py::instrument`) registers it by name.
An import is not a read, so a definition that only the tracer looks up is
kept by the tracer's registration alone, and the guard names it once the
tracer stops.
"""
import ast
from pathlib import Path

import qcs_sim

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcs_sim"
PERFBENCH = TESTS.parent / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level def or class whose name nothing else reads."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = []
    for _, node in statements:
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
        reads.append(names)
    return [f"{module}.{node.name}" for module, node in statements
            if isinstance(node, DEFINITIONS)
            and not any(node.name in names for (_, other), names in zip(statements, reads)
                        if other is not node)]


def _traced_names(monkeypatch) -> set[str]:
    """The attribute names the benchmark tracer registers, without installing it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    spans.instrument(tracer, spans.Counters())
    return {name.rsplit(".", 1)[-1] for name in tracer.names}


def test_every_definition_has_a_user(monkeypatch):
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    kept = set(qcs_sim.__all__) | _traced_names(monkeypatch)
    assert [d for d in unread_definitions(sources) if d.rsplit(".", 1)[-1] not in kept] == []


def test_guard_sees_a_definition_only_its_own_body_reads():
    sources = {
        "a": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from a import used, recursive\n\nclass Unread:\n    pass\n\nx = a.used()\n",
    }
    assert unread_definitions(sources) == ["a.recursive", "b.Unread"]
