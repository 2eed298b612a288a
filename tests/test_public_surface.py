"""README's "Library use" block runs, and it names exactly `qcs_sim.__all__`."""
import ast
import re
from pathlib import Path

import qcs_sim

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
