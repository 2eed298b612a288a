"""The public surface: README's "Library use" block runs and names exactly
`qcs_sim.__all__`, and every exported error is a `QcsSimError` with a fixed
CLI exit code; only a `ConfigError` exits 2."""
import ast
import re
from pathlib import Path

import pytest

import qcs_sim
from qcs_sim import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs_and_names_every_public_name(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "runs" / "qcs" / "manifest.json").exists()
    documented = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "qcs_sim"
        for alias in node.names
    }
    assert documented == set(qcs_sim.__all__)


EXPORTED_ERRORS = sorted(
    name for name in qcs_sim.__all__
    if isinstance(getattr(qcs_sim, name), type) and issubclass(getattr(qcs_sim, name), Exception)
)


def test_every_exported_error_derives_from_qcs_sim_error():
    assert EXPORTED_ERRORS == ["ConfigError", "DegenerateCountsError", "QcsSimError"]
    for name in EXPORTED_ERRORS:
        assert issubclass(getattr(qcs_sim, name), qcs_sim.QcsSimError), name


#: a config rejected before any trial exits 2; a trial with no estimate, or any other, exits 3
EXIT_CODES = {"ConfigError": 2, "DegenerateCountsError": 3, "QcsSimError": 3}


def test_the_exit_code_table_lists_every_exported_error():
    assert sorted(EXIT_CODES) == EXPORTED_ERRORS


def exit_code_when_run_raises(error, monkeypatch) -> int:
    """cli.main's exit code when `run_experiment` raises error("boom")."""
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "load_config", lambda path: None)
    monkeypatch.setattr(cli, "run_experiment", fail)
    return cli.main(["qcs", "--config", "unused.json", "--out", "unused"])


@pytest.mark.parametrize("name,code", EXIT_CODES.items())
def test_cli_exit_code_of_each_error(name, code, monkeypatch, capsys):
    assert exit_code_when_run_raises(getattr(qcs_sim, name), monkeypatch) == code
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize("error,prefix", [
    (ValueError, "runtime error: ValueError: "),
    (TypeError, "runtime error: TypeError: "),
    (OSError, "i/o error: "),
])
def test_cli_exits_3_on_any_error_but_a_config_error(error, prefix, monkeypatch, capsys):
    # a ValueError that no config check raised is a defect, not a rejected config
    assert exit_code_when_run_raises(error, monkeypatch) == 3
    assert capsys.readouterr().err == f"{prefix}boom\n"
