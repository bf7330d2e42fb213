"""Fault injection over stage inputs: the demo's estimates.csv, a fixture's bytes and live replies.

A seeded Hypothesis property damages the file a run of `admac all --seed 42`
wrote: a flipped byte, a cut, an insert, or one data row's field replaced
by any text or by the repr of any float. `validate`, `calibrate` and
`predict` then each run on it through `cli.main`. Each must exit 0, or
exit 1 with the one-line JSON report naming an `AdmacError` subclass or an
`OSError`. With the good file back, a rerun of the three must exit 0 and
leave the output tree byte for byte as the clean run left it.

A second property damages `IT.csv` in a four-country copy of the demo
fixtures in the same ways; `collect` and then `estimate` run on that copy
through `cli.main`, with the same contract, and with the good file back a
rerun of the two leaves the output tree as a clean run of them left it.

A third property fails one call of a two-country live collect: with a
status, with a body that is no count, or with a transport error. The collect
must return or raise an `AdmacError` or an `OSError`; a rerun into the same
cache with a healthy upstream must then succeed, send only the queries the
cache lacks, and snapshot the healthy counts.

Each draws 60 examples, or 600 under `--hypothesis-profile deep` (see
conftest.py), whatever other profile is active.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import shutil
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from admac import errors
from admac.cli import main
from admac.domain import MAX_COUNT, ParentFilter, Sex
from admac.errors import AdmacError
from admac.ingest import BASE_BACKOFF_S, CELL_KEYS, AdsApiClient, Collector, CollectorConfig, Mode, read_cells_csv
from admac.pipeline import RunConfig, packaged_data_path, stage_collect
from conftest import fault_examples

STAGES = ("validate", "calibrate", "predict")
PROFILE = settings(
    derandomize=True,
    database=None,
    max_examples=fault_examples(),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def run(command: str, out: Path, *options: str) -> tuple[int, str]:
    """`command`'s exit status and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        status = main([command, "--seed", "42", "--out", str(out), *options])
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


# --- fixture bytes ---------------------------------------------------------------

FIXTURE_STAGES = ("collect", "estimate")


@pytest.fixture(scope="module")
def four_fixtures(tmp_path_factory):
    """A copy of four demo fixtures, IT among them, and the output of a clean collect and estimate on it."""
    root = tmp_path_factory.mktemp("fixture-bytes")
    fixtures = root / "fixtures"
    fixtures.mkdir()
    for iso2 in ("DE", "IT", "JP", "NG"):
        shutil.copyfile(packaged_data_path("fixtures", f"{iso2}.csv"), fixtures / f"{iso2}.csv")
    out = root / "clean"
    for command in FIXTURE_STAGES:
        assert run(command, out, "--fixture-dir", str(fixtures))[0] == 0, command
    return fixtures, out


def test_a_damaged_fixture_ends_collect_and_estimate_in_success_or_their_report(four_fixtures):
    fixtures, clean = four_fixtures
    good = (fixtures / "IT.csv").read_bytes()
    expected = tree(clean)

    @PROFILE
    @given(data=damaged(good))
    def prop(data):
        with tempfile.TemporaryDirectory(dir=clean.parent) as scratch:
            out = Path(scratch, "out")
            (fixtures / "IT.csv").write_bytes(data)
            try:
                for command in FIXTURE_STAGES:
                    status, stderr = run(command, out, "--fixture-dir", str(fixtures))
                    if status:
                        assert status == 1, (command, stderr)
                        assert issubclass(reported_error(stderr), (AdmacError, OSError)), (command, stderr)
            finally:
                (fixtures / "IT.csv").write_bytes(good)
            for command in FIXTURE_STAGES:
                assert run(command, out, "--fixture-dir", str(fixtures))[0] == 0, command
            assert tree(out) == expected

    prop()


# --- live replies ---------------------------------------------------------------

COUNTRIES = ("IT", "NG")
QUERIES = [(iso2, key) for iso2 in COUNTRIES for key in CELL_KEYS]  # a cold collect's calls, in order
HEALTHY = {query: 1000 + i for i, query in enumerate(QUERIES)}  # a distinct count for each query
FIXED_NOW = datetime(2024, 6, 1, 12, 0, tzinfo=timezone.utc)
DAY_FILE = f"{FIXED_NOW.date().isoformat()}.csv"  # the day file the fixed clock appends to
GOOD = b'{"audience_size": 500}'


class Reply:
    def __init__(self, status_code: int, body: bytes) -> None:
        self.status_code, self.body = status_code, body

    def json(self) -> object:
        return json.loads(self.body)


class Upstream:
    """Answers each query its HEALTHY count, as a JSON body, but for call `fail_at`, which gets
    `fault`: a (status, body) reply or an exception to raise."""

    def __init__(self, fail_at: int | None = None, fault: tuple[int, bytes] | Exception | None = None) -> None:
        self.fail_at, self.fault, self.sent = fail_at, fault, []

    def get(self, url, params, headers, timeout):
        query = params["country"], (Sex(params["sex"]), params["age_min"], ParentFilter(params["parent_filter"]))
        self.sent.append(query)
        if len(self.sent) - 1 == self.fail_at:
            if isinstance(self.fault, Exception):
                raise self.fault
            return Reply(*self.fault)
        return Reply(200, json.dumps({"audience_size": HEALTHY[query]}).encode())


BAD_BODIES = [
    b"<html>",  # not JSON
    b'{"audience_size": 5\xff0}',  # not UTF-8
    b"[500]",  # a JSON list
    b'{"size": 500}',  # no audience_size
    b'{"audience_size": 500.0}',
    b'{"audience_size": true}',
    b'{"audience_size": "500"}',
    b'{"audience_size": -500}',
    b'{"audience_size": %d}' % (MAX_COUNT + 1),  # 2**53
    b'{"audience_size": %s}' % (b"9" * 5000),
    b"[" * 100_000,  # nested past the recursion limit
]
# One list, so each fault is drawn as often as any other: a status, a bad body, a transport error.
FAULTS = [*((status, GOOD) for status in (401, 403, 404, 429)), "5xx", *((200, body) for body in BAD_BODIES),
          ConnectionResetError, TimeoutError]


@st.composite
def faults(draw) -> tuple[int, bytes] | Exception:
    fault = draw(st.sampled_from(FAULTS))
    if fault == "5xx":
        return draw(st.integers(500, 599)), GOOD
    return fault("injected") if isinstance(fault, type) else fault


def live_collect(cfg: RunConfig, upstream: Upstream) -> list[float]:
    """Run `stage_collect` live through `upstream` on a fixed clock; the backoff it asked for."""
    sleeps: list[float] = []
    config = CollectorConfig(mode=Mode.LIVE, cache_dir=cfg.cache_dir)
    client = AdsApiClient(token="tok", session=upstream)
    stage_collect(cfg, Collector(config, client=client, clock=lambda: FIXED_NOW, sleep=sleeps.append))
    return sleeps


@PROFILE
@given(fail_at=st.integers(0, len(QUERIES) - 1), fault=faults())
def test_a_failed_live_reply_ends_the_collect_in_its_contract_and_a_healthy_rerun_mends_it(fail_at, fault):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        cfg = RunConfig(root / "out", mode=Mode.LIVE, cache_dir=root / "cache", countries=COUNTRIES)
        try:
            sleeps = live_collect(cfg, Upstream(fail_at, fault))
        except (AdmacError, OSError):
            pass
        else:
            throttled = not isinstance(fault, Exception) and fault[0] == 429
            assert sleeps == ([BASE_BACKOFF_S] if throttled else [])
        day_file = cfg.cache_dir / DAY_FILE
        cells = read_cells_csv(day_file) if day_file.exists() else {}
        cached = {(iso2, key) for iso2, held in cells.items() for key in held}
        assert all(cell.count == HEALTHY[iso2, key] for iso2, held in cells.items() for key, cell in held.items())
        healthy = Upstream()
        assert live_collect(cfg, healthy) == []
        assert healthy.sent == [query for query in QUERIES if query not in cached]
        for iso2 in COUNTRIES:
            snapshot = read_cells_csv(cfg.snapshots_dir / f"{iso2}.csv", iso2)[iso2]
            assert {key: cell.count for key, cell in snapshot.items()} == {key: HEALTHY[iso2, key] for key in CELL_KEYS}
