"""scripts/against_parent.py's verdicts: which lines are data rows, which are stamps."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "against_parent.py"
MODEL = '{{\n  "metadata": {{\n    "tool": "admac {tool}"\n  }},\n  "model": {{\n    "slope": {slope}\n  }}\n}}\n'
NONE = {"data rows": None, "stamps": None, "exit status and output": None}


def _script():
    spec = importlib.util.spec_from_file_location("against_parent", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, tool: str = "0.1.0", slope: str = "0.8", extra: bool = False) -> Path:
    root.mkdir()
    (root / "model_male.json").write_text(MODEL.format(tool=tool, slope=slope), encoding="utf-8")
    (root / "estimates.csv").write_text(f"# tool=admac {tool}\niso2,sex,mac\nIT,male,{slope}\n", encoding="utf-8")
    if extra:
        (root / "extra.csv").write_text("a\n", encoding="utf-8")
    return root


def test_verdicts_tell_data_rows_from_stamps(tmp_path):
    compare = _script().compare
    base = _tree(tmp_path / "base")
    assert compare(base, _tree(tmp_path / "same"), ["exit status 0"], ["exit status 0"]) == NONE
    assert compare(base, _tree(tmp_path / "tool", tool="0.2.0"), [], []) == dict(
        NONE, stamps="estimates.csv:1: '# tool=admac 0.1.0' became '# tool=admac 0.2.0'"
    )
    data = compare(base, _tree(tmp_path / "slope", slope="0.9"), [], [])
    assert data == dict(NONE, **{"data rows": "estimates.csv:3: 'IT,male,0.8' became 'IT,male,0.9'"})
    only = compare(base, _tree(tmp_path / "extra", extra=True), ["exit status 0"], ["exit status 1"])
    assert only == {
        "data rows": "extra.csv: not written by REV",
        "stamps": None,
        "exit status and output": "output:1: 'exit status 0' became 'exit status 1'",
    }


def test_a_json_data_row_outside_metadata_is_a_data_row(tmp_path):
    data, stamps = _script().split_lines(_tree(tmp_path / "tree") / "model_male.json")
    assert [number for number, _ in stamps] == [2, 3, 4]
    assert [line for _, line in data] == ["{", '  "model": {', "    \"slope\": 0.8", "  }", "}"]
