"""Fault injection over a stage input: the demo's estimates.csv.

A seeded Hypothesis property damages the file a run of `admac all --seed 42`
wrote: a flipped byte, a cut, an insert, or one data row's field replaced
by any text or by the repr of any float. `validate`, `calibrate` and
`predict` then each run on it through `cli.main`. Each must exit 0, or
exit 1 with the one-line JSON report naming an `AdmacError` subclass or an
`OSError`. With the good file back, a rerun of the three must exit 0 and
leave the output tree byte for byte as the clean run left it.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from admac import errors
from admac.cli import main
from admac.errors import AdmacError

STAGES = ("validate", "calibrate", "predict")
PROFILE = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def run(command: str, out: Path) -> tuple[int, str]:
    """`command`'s exit status and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = main([command, "--seed", "42", "--out", str(out)])
    return status, stderr.getvalue()


def reported_error(stderr: str) -> type:
    """The exception class the one-line report on `stderr` names."""
    (line,) = stderr.strip().splitlines()
    report = json.loads(line)
    assert sorted(report) == ["command", "error", "message"], report
    return getattr(errors, report["error"], None) or getattr(builtins, report["error"])


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The output directory of a clean demo `all --seed 42`, less the snapshots the three stages do not read."""
    out = tmp_path_factory.mktemp("fault-injection") / "clean"
    assert run("all", out)[0] == 0
    shutil.rmtree(out / "snapshots")
    return out


@st.composite
def damaged(draw, good: bytes) -> bytes:
    """`good` with one flipped byte, one cut, one insert, or one data row's field replaced."""
    kind = draw(st.sampled_from(["flip", "cut", "insert", "field"]))
    if kind == "flip":
        at = draw(st.integers(0, len(good) - 1))
        return good[:at] + bytes([good[at] ^ draw(st.integers(1, 255))]) + good[at + 1:]
    if kind == "cut":
        start = draw(st.integers(0, len(good)))
        return good[:start] + good[draw(st.integers(start, len(good))):]
    if kind == "insert":
        at = draw(st.integers(0, len(good)))
        return good[:at] + draw(st.binary(min_size=1, max_size=16)) + good[at:]
    lines = good.decode("utf-8").splitlines(keepends=True)
    data_rows = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    i = draw(st.sampled_from(data_rows))
    fields = lines[i].rstrip("\n").split(",")
    fields[draw(st.integers(0, len(fields) - 1))] = draw(st.text() | st.floats().map(repr))
    lines[i] = ",".join(fields) + "\n"
    return "".join(lines).encode("utf-8", "surrogatepass")


def test_damaged_estimates_end_each_stage_in_success_or_its_report(clean):
    good = (clean / "estimates.csv").read_bytes()
    expected = tree(clean)

    @PROFILE
    @given(data=damaged(good))
    def prop(data):
        with tempfile.TemporaryDirectory(dir=clean.parent) as scratch:
            out = Path(scratch, "out")
            shutil.copytree(clean, out)
            (out / "estimates.csv").write_bytes(data)
            for command in STAGES:
                status, stderr = run(command, out)
                if status:
                    assert status == 1, (command, stderr)
                    assert issubclass(reported_error(stderr), (AdmacError, OSError)), (command, stderr)
            (out / "estimates.csv").write_bytes(good)
            for command in STAGES:
                assert run(command, out)[0] == 0, command
            assert tree(out) == expected

    prop()
