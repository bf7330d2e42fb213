from __future__ import annotations

import csv
import hashlib
import http.client
import http.server
import io
import json
import logging
import os
import random
import socket
import threading
import time
import urllib.error
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from admac.domain import AGE_GROUP_LOWERS, LOWER_BOUND_COUNT, MAX_COUNT, AudienceSnapshot, ParentFilter, Sex
from admac.errors import (
    AuthError,
    ConfigError,
    ExcludedCountry,
    FixtureMiss,
    MalformedResponse,
    ParseError,
    RateLimited,
    UpstreamUnavailable,
)
from admac import ingest
from admac.cli import main
from admac.fileio import read_table
from admac.ingest import (
    AdsApiClient,
    CELL_COLUMNS,
    CELL_KEYS,
    Collector,
    CollectorConfig,
    Mode,
    QueryDescriptor,
    _CellStore,
    canonical,
    fixture_countries,
    read_cells_csv,
    utc_text,
    write_cells_csv,
)
from conftest import TS, fail_writes_part_way, full_fixture_rows, make_cell, make_snapshot, write_fixture

IT = "IT"
FIXED_NOW = datetime(2024, 6, 2, 12, 0, tzinfo=timezone.utc)
FIXED_NOW_TEXT = "2024-06-02T12:00:00Z"  # each live cell's collected_at on FIXED_NOW's clock


def fixture_collector(fixture_dir, **kwargs):
    config = CollectorConfig(mode=Mode.FIXTURE, fixture_dir=fixture_dir, **kwargs)
    return Collector(config)


class StubClient:
    """Scripted live client: per-query canned counts or error sequences."""

    def __init__(self, count=1000, fail_plan=None):
        self.count = count
        self.fail_plan = dict(fail_plan or {})  # canonical -> list of exceptions
        self.calls = []
        self.lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.delay = 0.0

    def reach_estimate(self, iso2, key):
        query = canonical(iso2, key)
        with self.lock:
            self.calls.append(query)
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            plan = self.fail_plan.get(query)
        try:
            if self.delay:
                time.sleep(self.delay)
            if plan:
                raise plan.pop(0)
            return self.count
        finally:
            with self.lock:
                self.active -= 1


def collect_one(collector, country):
    """`country`'s snapshot from `collect_snapshots`, complete or not."""
    (snapshot,) = collector.collect_snapshots([country])
    return snapshot


def absent_keys(snapshot):
    """The CELL_KEYS that `snapshot` holds no cell for, in canonical order."""
    return [k for k in CELL_KEYS if k not in snapshot.cells]


def complete(snapshot):
    """True iff `snapshot` holds a cell for every one of the 28 CELL_KEYS."""
    return not absent_keys(snapshot)


def incomplete_warnings(caplog):
    """The messages of the collector's incomplete-snapshot warnings, in order."""
    return [r.getMessage() for r in caplog.records if "incomplete snapshot kept" in r.getMessage()]


def live_collector(tmp_path, client, monkeypatch=None, **constants):
    """A live collector on a fixed clock that records its sleeps; `constants`
    (e.g. MAX_RETRIES=2) are set on the ingest module for the test."""
    for name, value in constants.items():
        monkeypatch.setattr(ingest, name, value)
    sleeps = []
    config = CollectorConfig(mode=Mode.LIVE, cache_dir=tmp_path / "cache")
    collector = Collector(config, client=client, clock=lambda: FIXED_NOW, sleep=sleeps.append)
    return collector, sleeps


# --- config and queries ------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        CollectorConfig(mode=Mode.FIXTURE)
    with pytest.raises(ConfigError):
        CollectorConfig(mode=Mode.LIVE)
    assert CollectorConfig._fields == ("mode", "fixture_dir", "cache_dir")


def test_cell_keys_shape_and_order():
    assert len(CELL_KEYS) == 28
    assert CELL_KEYS[0] == (Sex.FEMALE, 15, ParentFilter.ALL)
    assert CELL_KEYS[1][2] is ParentFilter.PARENTS_0_12M
    # sex blocks, ascending ages within each, all-then-parents within each age
    keys = [(sex.value, lower, flt.value) for sex, lower, flt in CELL_KEYS]
    assert keys == sorted(keys, key=lambda k: (k[0] != "female", k[1], k[2] != "all"))
    assert len(set(keys)) == 28


def test_excluded_country_rejected(fixture_dir):
    write_fixture(fixture_dir, "CU", full_fixture_rows())
    collector = fixture_collector(fixture_dir)
    with pytest.raises(ExcludedCountry):
        collector.collect_snapshots(["CU"])


def test_query_descriptor_validates_age_pair():
    with pytest.raises(ValueError):
        QueryDescriptor(
            country_iso2="IT", sex=Sex.FEMALE, age_min=15, age_max=20,
            parent_filter=ParentFilter.ALL,
        )
    with pytest.raises(ValueError):
        QueryDescriptor(
            country_iso2="IT", sex=Sex.FEMALE, age_min=16, age_max=20,
            parent_filter=ParentFilter.ALL,
        )


def test_query_canonical_serialization_stable():
    q = QueryDescriptor(
        country_iso2="IT", sex=Sex.MALE, age_min=30, age_max=34,
        parent_filter=ParentFilter.PARENTS_0_12M,
    )
    assert q.canonical() == "iso2=IT&sex=male&age_min=30&age_max=34&parent_filter=parent_of_child_0_12m"
    assert canonical(IT, (Sex.MALE, 30, ParentFilter.PARENTS_0_12M)) == q.canonical()


# --- fixture mode -----------------------------------------------------------

def test_fixture_fetch_flags_lower_bound(fixture_dir):
    rows = full_fixture_rows(female_counts={(45, "parent_of_child_0_12m"): 20})
    write_fixture(fixture_dir, "IT", rows)
    collector = fixture_collector(fixture_dir)
    cell = collector.fetch_cell(IT, (Sex.FEMALE, 45, ParentFilter.PARENTS_0_12M))
    assert cell.count == LOWER_BOUND_COUNT
    cell = collector.fetch_cell(IT, (Sex.FEMALE, 15, ParentFilter.ALL))
    assert cell.count == 100_000


def test_fixture_passthrough_count(fixture_dir):
    rows = full_fixture_rows(male_counts={(20, "all"): 125_000})
    write_fixture(fixture_dir, "IT", rows)
    collector = fixture_collector(fixture_dir)
    assert collector.fetch_cell(IT, (Sex.MALE, 20, ParentFilter.ALL)).count == 125_000


def test_fixture_miss_for_absent_row(fixture_dir):
    rows = [r for r in full_fixture_rows() if not (r[0] == "male" and r[1] == 45)]
    write_fixture(fixture_dir, "IT", rows)
    collector = fixture_collector(fixture_dir)
    with pytest.raises(FixtureMiss) as excinfo:
        collector.fetch_cell(IT, (Sex.MALE, 45, ParentFilter.ALL))
    assert str(excinfo.value) == (
        "fixture has no row for iso2=IT&sex=male&age_min=45&age_max=49&parent_filter=all"
    )


def test_fixture_miss_for_absent_file(fixture_dir):
    fixture_dir.mkdir(parents=True)
    collector = fixture_collector(fixture_dir)
    with pytest.raises(FixtureMiss):
        collect_one(collector, IT)


def test_fixture_file_written_after_a_miss_is_read(fixture_dir):
    # the store does not remember that a fixture file was absent: the next call looks again
    fixture_dir.mkdir(parents=True)
    collector = fixture_collector(fixture_dir)
    with pytest.raises(FixtureMiss) as excinfo:
        collect_one(collector, IT)
    assert str(excinfo.value) == f"no fixture file for IT under {fixture_dir}"
    path = write_fixture(fixture_dir, IT, full_fixture_rows())
    assert complete(collect_one(collector, IT))
    assert collector.fixture_digest(IT) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_collect_snapshot_complete(fixture_dir):
    write_fixture(fixture_dir, "IT", full_fixture_rows())
    collector = fixture_collector(fixture_dir)
    snapshot = collect_one(collector, IT)
    assert len(snapshot.cells) == 28
    assert complete(snapshot)
    assert {c.collected_at for c in snapshot.cells.values()} == {"2024-06-01T00:00:00Z"}


def test_collect_snapshot_missing_cell_is_incomplete(fixture_dir, caplog):
    rows = full_fixture_rows()
    write_fixture(fixture_dir, "IT", rows[:-1])
    collector = fixture_collector(fixture_dir)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshot = collect_one(collector, IT)
    assert not complete(snapshot)
    assert len(snapshot.cells) == 27
    assert absent_keys(snapshot) == [CELL_KEYS[-1]]
    assert incomplete_warnings(caplog) == [
        "IT: incomplete snapshot kept (1 of 28 cells failed, first: "
        f"fixture has no row for {canonical('IT', CELL_KEYS[-1])})"
    ]


def test_fixture_mode_is_deterministic(fixture_dir):
    write_fixture(fixture_dir, "IT", full_fixture_rows())
    first = collect_one(fixture_collector(fixture_dir), IT)
    second = collect_one(fixture_collector(fixture_dir), IT)
    assert first == second


def test_fixture_countries_listing(fixture_dir):
    for iso2 in ("IT", "FR", "NG"):
        write_fixture(fixture_dir, iso2, full_fixture_rows())
    assert fixture_countries(fixture_dir) == ["FR", "IT", "NG"]


# --- cell CSV round-trip -------------------------------------------------------

def test_cells_csv_roundtrip(tmp_path):
    rng = random.Random(27)
    path = tmp_path / "cells.csv"
    start = datetime(2024, 6, 1, tzinfo=timezone.utc)
    # all 28 cells in key order, then seeded random subsets of keys in shuffled order
    subsets = [CELL_KEYS] + [rng.sample(CELL_KEYS, rng.randint(1, len(CELL_KEYS))) for _ in range(30)]
    for keys in subsets:
        cells = {
            k: make_cell(rng.randint(0, 10**7), utc_text(start + timedelta(seconds=rng.randint(0, 86_400))))
            for k in keys
        }
        write_cells_csv(path, "IT", cells, meta={"seed": "1"})
        assert path.read_text().startswith("# seed=1\n" + ",".join(CELL_COLUMNS))
        read = read_cells_csv(path)
        assert list(read) == ["IT"] and list(read["IT"].items()) == list(cells.items())


def test_write_cells_csv_matches_csv_writer_and_returns_its_digest(tmp_path):
    snapshot = make_snapshot()
    path = tmp_path / "cells.csv"
    digest = write_cells_csv(path, "IT", snapshot.cells, meta={"seed": "1", "tool": "admac x"})
    buf = io.StringIO()
    buf.write("# seed=1\n# tool=admac x\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CELL_COLUMNS)
    for (sex, lower, flt), c in snapshot.cells.items():
        writer.writerow([
            snapshot.country, sex.value, lower, lower + 4,
            flt.value, c.count, "2024-06-01T00:00:00Z",
        ])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_utc_text_is_one_text_for_any_zone_and_reads_a_naive_time_as_utc():
    utc = datetime(2024, 6, 1, 10, 30, tzinfo=timezone.utc)
    cest = utc.astimezone(timezone(timedelta(hours=2)))
    naive = datetime(2024, 6, 1, 10, 30)
    assert utc_text(utc) == utc_text(cest) == utc_text(naive) == "2024-06-01T10:30:00Z"
    assert utc_text(cest.replace(microsecond=5)) == "2024-06-01T10:30:00.000005Z"
    # an offset west of UTC can carry the time into the next UTC day
    assert utc_text(datetime(2024, 6, 1, 23, 30, tzinfo=timezone(timedelta(hours=-5)))) == "2024-06-02T04:30:00Z"


def test_no_admac_function_keeps_a_process_wide_memo():
    import importlib
    import pkgutil

    import admac

    memoised = []
    for info in pkgutil.iter_modules(admac.__path__, "admac."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            inner = vars(value).values() if isinstance(value, type) else ()
            memoised += [f"{info.name}.{name}" for v in (value, *inner) if hasattr(v, "cache_info")]
    assert memoised == []


VALID_ROW = "IT,female,15,19,all,100,2024-06-01T00:00:00Z"


@pytest.mark.parametrize(
    "bad_row",
    [
        "IT,female,16,20,all,100,2024-06-01T00:00:00Z",  # age_low not a group start
        "IT,female,15,20,all,100,2024-06-01T00:00:00Z",  # age_high does not close the group
        "IT,other,15,19,all,100,2024-06-01T00:00:00Z",  # sex
        "IT,female,15,19,parents,100,2024-06-01T00:00:00Z",  # parent filter
        "IT,female,15,19,all,-5,2024-06-01T00:00:00Z",  # negative count
        f"IT,female,15,19,all,{MAX_COUNT + 1},2024-06-01T00:00:00Z",  # a count no float holds
        "IT,female,15,19,all,100,2024-06-31T00:00:00Z",  # no such day
        "IT,female,15,19,all,100",  # field count
        "I1,female,15,19,all,100,2024-06-01T00:00:00Z",  # iso2
    ],
    ids=[
        "age_low", "age_high", "sex", "filter", "negative_count", "count_past_max", "bad_timestamp",
        "fields", "iso2",
    ],
)
def test_bad_row_raises_parse_error_with_its_line_after_memos_are_warm(tmp_path, bad_row):
    # a good file read first, then the bad one twice: a bad row raises ParseError with its line on every read
    good = tmp_path / "good.csv"
    good.write_text(f"{','.join(CELL_COLUMNS)}\n{VALID_ROW}\n", encoding="utf-8")
    assert len(read_cells_csv(good)) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# seed=1\n{','.join(CELL_COLUMNS)}\n{VALID_ROW}\n\n{bad_row}\n", encoding="utf-8")
    for _ in range(2):  # the second read fails as the first did
        with pytest.raises(ParseError) as caught:
            read_cells_csv(bad)
        assert caught.value.line == 5
        assert str(bad) in str(caught.value)


@pytest.mark.parametrize(
    "second_row",
    [VALID_ROW.replace("IT", "FR", 1), VALID_ROW.replace(",100,", ",200,")],
    ids=["other_country", "same_cell"],
)
def test_one_country_file_refuses_another_country_and_a_second_row_for_a_cell(tmp_path, second_row):
    path = tmp_path / "IT.csv"
    path.write_text(f"{','.join(CELL_COLUMNS)}\n{VALID_ROW}\n\n{second_row}\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_cells_csv(path, "IT")
    assert caught.value.line == 4
    assert str(path) in str(caught.value)
    # read as a day file, the other country's row is its own and a later row for a cell wins
    by_country = read_cells_csv(path)
    counts = {iso2: [c.count for c in cells.values()] for iso2, cells in by_country.items()}
    assert counts == ({"IT": [100], "FR": [100]} if "FR" in second_row else {"IT": [200]})


def test_naive_and_offset_timestamps_read_as_utc_text(tmp_path):
    rows = [
        (ParentFilter.ALL, "2024-06-01T00:00:00Z", "2024-06-01T00:00:00Z"),
        (ParentFilter.PARENTS_0_12M, "2024-06-01T00:00:00", "2024-06-01T00:00:00Z"),
        (ParentFilter.ALL, "2024-06-01T12:30:00.000005+02:00", "2024-06-01T10:30:00.000005Z"),
        (ParentFilter.PARENTS_0_12M, " 2024-06-01T10:30:00.000005", "2024-06-01T10:30:00.000005Z"),
        (ParentFilter.ALL, "2024-06-01", "2024-06-01T00:00:00Z"),
    ]
    lines = [f"IT,female,{lower},{lower + 4},{flt.value},100,{raw}" for lower, (flt, raw, _) in zip((15, 15, 20, 20, 25), rows)]
    path = tmp_path / "cells.csv"
    path.write_text("\n".join([",".join(CELL_COLUMNS), *lines]) + "\n", encoding="utf-8")
    cells = read_cells_csv(path)["IT"]
    assert [c.collected_at for c in cells.values()] == [text for _, _, text in rows]
    assert {type(c.collected_at) for c in cells.values()} == {str}


@pytest.mark.parametrize(
    "fields, key",
    [
        (" Female ,15,19,all", (Sex.FEMALE, 15, ParentFilter.ALL)),
        ("MALE,45,49,parent_of_child_0_12m", (Sex.MALE, 45, ParentFilter.PARENTS_0_12M)),
        ("female, 15,019,all", (Sex.FEMALE, 15, ParentFilter.ALL)),
        ("male,20,24, all ", (Sex.MALE, 20, ParentFilter.ALL)),
    ],
    ids=["spaced_capitalised_sex", "upper_case_sex", "spaced_and_zero_padded_ages", "spaced_filter"],
)
def test_key_fields_written_otherwise_read_as_their_keys(tmp_path, fields, key):
    path = tmp_path / "IT.csv"
    path.write_text(f"{','.join(CELL_COLUMNS)}\nIT,{fields},100,{TS}\n", encoding="utf-8")
    assert read_cells_csv(path, "IT") == {"IT": {key: make_cell(100)}}


def test_each_key_reads_from_its_fields_as_written_and_as_parsed():
    for key in CELL_KEYS:
        sex, low, high, flt = ingest._KEY_FIELDS[key].split(",")
        assert ingest._KEYS_AS_WRITTEN[sex, low, high, flt] == ingest._cell_key(sex, low, high, flt) == key
        assert ingest._cell_key(sex.upper(), f" {low}", f"0{high}", f" {flt} ") == key
    assert len(ingest._KEYS_AS_WRITTEN) == len(CELL_KEYS)


def test_fixture_run_all_reads_each_fixture_once_and_no_snapshot(tmp_path, monkeypatch):
    from admac import ingest, pipeline

    reads = []
    original = ingest.read_cells_csv

    def counting(path, *args, **kwargs):
        reads.append(Path(path).name)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(ingest, "read_cells_csv", counting)
    monkeypatch.setattr(pipeline, "read_cells_csv", counting)
    cfg = pipeline.RunConfig(output_dir=tmp_path / "out", seed=42)
    pipeline.run_all(cfg)
    fixtures = fixture_countries(cfg.fixture_dir)
    assert sorted(reads) == [f"{iso2}.csv" for iso2 in fixtures]
    assert len(list(cfg.snapshots_dir.glob("*.csv"))) == len(fixtures)


# --- live mode -----------------------------------------------------------------

def test_live_snapshot_and_cache_idempotence(tmp_path):
    client = StubClient(count=4321)
    collector, _ = live_collector(tmp_path, client)
    snapshot = collect_one(collector, IT)
    assert len(snapshot.cells) == 28
    assert all(c.count == 4321 for c in snapshot.cells.values())
    assert len(client.calls) == 28
    # same day, same config: served from the write-through cache
    again = collect_one(collector, IT)
    assert len(client.calls) == 28
    assert again == snapshot
    # a fresh collector reading the same cache dir also stays offline
    fresh_client = StubClient(count=9999)
    fresh, _ = live_collector(tmp_path, fresh_client)
    third = collect_one(fresh, IT)
    assert fresh_client.calls == []
    assert third == snapshot


def test_live_retry_backoff_sequence(tmp_path, monkeypatch):
    q = "iso2=IT&sex=female&age_min=15&age_max=19&parent_filter=all"
    client = StubClient(count=777, fail_plan={q: [RateLimited("x"), RateLimited("x")]})
    collector, sleeps = live_collector(tmp_path, client, monkeypatch, MAX_RETRIES=3, BASE_BACKOFF_S=0.25)
    snapshot = collect_one(collector, IT)
    assert snapshot.cells[(Sex.FEMALE, AGE_GROUP_LOWERS[0], ParentFilter.ALL)].count == 777
    assert sleeps == [0.25, 0.5]


def test_live_retries_exhausted_surface_incomplete(tmp_path, monkeypatch, caplog):
    q = "iso2=IT&sex=female&age_min=15&age_max=19&parent_filter=all"
    client = StubClient(fail_plan={q: [RateLimited(f"throttled on {q}")] * 10})
    collector, sleeps = live_collector(tmp_path, client, monkeypatch, MAX_RETRIES=2, BASE_BACKOFF_S=0.1)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshot = collect_one(collector, IT)
    assert not complete(snapshot)
    assert len(snapshot.cells) == 27
    assert absent_keys(snapshot) == [CELL_KEYS[0]]
    assert incomplete_warnings(caplog) == [f"IT: incomplete snapshot kept (1 of 28 cells failed, first: throttled on {q})"]
    # attempts = MAX_RETRIES + 1, delays double per retry
    assert client.calls.count(q) == 3
    assert sleeps == [0.1, 0.2]


def test_live_auth_error_propagates(tmp_path):
    q = "iso2=IT&sex=female&age_min=15&age_max=19&parent_filter=all"
    client = StubClient(fail_plan={q: [AuthError("bad token")]})
    collector, _ = live_collector(tmp_path, client)
    with pytest.raises(AuthError):
        collect_one(collector, IT)


def test_live_malformed_response_counts_as_missing_cell(tmp_path, caplog):
    q = "iso2=IT&sex=male&age_min=45&age_max=49&parent_filter=all"
    client = StubClient(fail_plan={q: [MalformedResponse(f"unparseable body for {q}")]})
    collector, _ = live_collector(tmp_path, client)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshot = collect_one(collector, IT)
    assert not complete(snapshot)
    assert len(snapshot.cells) == 27
    assert [canonical("IT", k) for k in absent_keys(snapshot)] == [q]
    assert incomplete_warnings(caplog) == [
        f"IT: incomplete snapshot kept (1 of 28 cells failed, first: unparseable body for {q})"
    ]


def test_live_requests_never_overlap(tmp_path):
    client = StubClient(count=500)
    client.delay = 0.005
    collector, _ = live_collector(tmp_path, client)
    collect_one(collector, IT)
    assert client.max_active == 1  # requests never overlap


def test_fixture_collect_starts_no_thread(fixture_dir, monkeypatch):
    started = count_thread_starts(monkeypatch)
    write_fixture(fixture_dir, "IT", full_fixture_rows())
    snapshot = collect_one(fixture_collector(fixture_dir), IT)
    assert len(snapshot.cells) == 28
    assert started == []


# --- live mode: one request at a time, one append per country to the day file

FIVE = ["AR", "BR", "DE", "IT", "NG"]


def cache_file(tmp_path):
    """The day file of FIXED_NOW's UTC day."""
    return tmp_path / "cache" / f"{FIXED_NOW.date().isoformat()}.csv"


def cached_rows(path):
    """The (iso2, cell key) of each data row of the cache file at `path`, in file order."""
    rows = read_table(path, CELL_COLUMNS)
    return [(row[0], ingest._cell_key(*row[1:5])) for _, row in rows]


def cached_keys(path, iso2):
    """The keys of `iso2`'s rows in the cache file at `path`, in file order."""
    return [key for code, key in cached_rows(path) if code == iso2]


def record_store_writes(monkeypatch, record):
    """Call `record(iso2, cells)` on every `_CellStore.write`, then write as usual."""
    original = _CellStore.write

    def write(store, iso2, day, cells):
        record(iso2, cells)
        original(store, iso2, day, cells)

    monkeypatch.setattr(_CellStore, "write", write)


def count_thread_starts(monkeypatch):
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_cold_live_collect_starts_no_thread(tmp_path, monkeypatch):
    started = count_thread_starts(monkeypatch)
    client = StubClient(count=500)
    collector, _ = live_collector(tmp_path, client)
    snapshots = list(collector.collect_snapshots(FIVE))
    assert [s.country for s in snapshots] == FIVE
    assert all(isinstance(s, AudienceSnapshot) and complete(s) for s in snapshots)
    assert len(client.calls) == 5 * 28
    assert started == []


def test_cold_live_collects_write_identical_day_files_in_the_requested_order(tmp_path):
    class SlowFirstCountryClient(StubClient):
        def reach_estimate(self, iso2, key):
            if iso2 == FIVE[0]:
                time.sleep(0.002)
            return super().reach_estimate(iso2, key)

    runs = [tmp_path / "first", tmp_path / "second"]
    for run in runs:
        collector, _ = live_collector(run, SlowFirstCountryClient(count=500))
        assert all(complete(s) for s in collector.collect_snapshots(FIVE))
    first, second = (cache_file(run).read_bytes() for run in runs)
    assert first == second
    blocks = [iso2 for iso2, _ in cached_rows(cache_file(runs[0]))]
    assert blocks == [c for c in FIVE for _ in CELL_KEYS]


def test_warm_live_collect_starts_no_thread_and_sends_nothing(tmp_path, monkeypatch):
    client = StubClient(count=500)
    collector, _ = live_collector(tmp_path, client)
    first = list(collector.collect_snapshots(FIVE))
    started = count_thread_starts(monkeypatch)
    assert list(collector.collect_snapshots(FIVE)) == first
    fresh_client = StubClient(count=9999)
    fresh, _ = live_collector(tmp_path, fresh_client)
    assert list(fresh.collect_snapshots(FIVE)) == first
    assert len(client.calls) == 5 * 28
    assert fresh_client.calls == []
    assert started == []


def test_auth_error_stops_dispatch_and_keeps_earlier_countries_cached(tmp_path):
    first_of_it = "iso2=IT&sex=female&age_min=15&age_max=19&parent_filter=all"
    client = StubClient(count=500, fail_plan={first_of_it: [AuthError("token revoked")]})
    collector, _ = live_collector(tmp_path, client)
    with pytest.raises(AuthError):
        collector.collect_snapshots(FIVE)
    earlier = FIVE[:3]
    assert len(client.calls) == len(earlier) * 28 + 1
    path = cache_file(tmp_path)
    for country in earlier:
        assert cached_keys(path, country) == list(CELL_KEYS)
    fresh_client = StubClient(count=9999)
    fresh, _ = live_collector(tmp_path, fresh_client)
    snapshots = list(fresh.collect_snapshots(earlier))
    assert fresh_client.calls == []
    assert all(complete(s) and s.cells[CELL_KEYS[0]].count == 500 for s in snapshots)


def test_collect_ended_by_an_error_warns_of_no_incomplete_snapshot(tmp_path, caplog):
    down = {canonical("AR", CELL_KEYS[0]): [MalformedResponse("bad")], canonical("IT", CELL_KEYS[0]): [UpstreamUnavailable("down")]}
    collector, _ = live_collector(tmp_path, StubClient(fail_plan=down))
    with caplog.at_level(logging.WARNING, logger="admac.ingest"), pytest.raises(UpstreamUnavailable):
        collector.collect_snapshots(FIVE)
    assert incomplete_warnings(caplog) == []  # no snapshot is kept


def test_each_country_is_written_once_as_soon_as_it_resolves(tmp_path, monkeypatch):
    writes = []
    record_store_writes(monkeypatch, lambda iso2, cells: writes.append(iso2))
    seen_on_first_query = {}

    class CheckingClient(StubClient):
        def reach_estimate(self, iso2, key):
            if key == CELL_KEYS[0]:
                seen_on_first_query[iso2] = list(writes)
            return super().reach_estimate(iso2, key)

    collector, _ = live_collector(tmp_path, CheckingClient(count=500))
    list(collector.collect_snapshots(FIVE))
    assert writes == FIVE
    assert seen_on_first_query == {c: FIVE[:i] for i, c in enumerate(FIVE)}


@pytest.mark.parametrize(
    "error",
    [AuthError("token revoked"), KeyboardInterrupt(), UpstreamUnavailable("transport failure")],
    ids=["auth", "interrupt", "upstream"],
)
def test_error_mid_country_still_caches_the_cells_that_arrived(tmp_path, error):
    second_of_it = "iso2=IT&sex=female&age_min=15&age_max=19&parent_filter=parent_of_child_0_12m"
    client = StubClient(count=500, fail_plan={second_of_it: [error]})
    collector, _ = live_collector(tmp_path, client)
    with pytest.raises(type(error)):
        collector.collect_snapshots([IT, "NG"])
    assert len(client.calls) == 2
    assert cached_rows(cache_file(tmp_path)) == [("IT", CELL_KEYS[0])]
    fresh_client = StubClient(count=500)
    fresh, _ = live_collector(tmp_path, fresh_client)
    collect_one(fresh, IT)
    assert len(fresh_client.calls) == 27


def test_failed_cache_flush_keeps_the_previous_file(tmp_path, monkeypatch):
    collector, _ = live_collector(tmp_path, StubClient(count=500))
    collect_one(collector, IT)
    path = cache_file(tmp_path)
    text = path.read_text(encoding="utf-8")

    def disk_full(*args):
        raise OSError("disk full")

    # an older file missing its last cell, and one whose last line is torn, so the load cuts it
    # back to the same whole lines: either way the next collect fetches that cell and appends it
    missing_last, torn_last = text[: text.rstrip("\n").rfind("\n") + 1], text[: text.rstrip("\n").rfind(",")]
    for damaged in (missing_last, torn_last):
        path.write_text(damaged, encoding="utf-8")
        monkeypatch.setattr(os, "write", disk_full)
        client = StubClient(count=600)
        fresh, _ = live_collector(tmp_path, client)
        with pytest.raises(OSError, match="disk full"):
            collect_one(fresh, IT)
        monkeypatch.undo()
        assert len(client.calls) == 1
        assert path.read_text(encoding="utf-8") == missing_last
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        # the previous cells still load: only the lost one is fetched again
        again = StubClient(count=600)
        collect_one(live_collector(tmp_path, again)[0], IT)
        assert len(again.calls) == 1


def test_collect_across_utc_midnight_writes_each_country_to_the_day_it_looked_up(tmp_path):
    before_midnight = datetime(2024, 6, 2, 23, 59, 59, tzinfo=timezone.utc)
    readings = []

    def clock():
        readings.append(None)
        return before_midnight if len(readings) <= 20 else before_midnight + timedelta(seconds=2)

    config = CollectorConfig(mode=Mode.LIVE, cache_dir=tmp_path / "cache")
    collector = Collector(config, client=StubClient(count=500), clock=clock, sleep=lambda s: None)
    snapshots = list(collector.collect_snapshots([IT, "NG"]))
    assert all(isinstance(s, AudienceSnapshot) and complete(s) for s in snapshots)
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["2024-06-02.csv"]
    for iso2 in ("IT", "NG"):
        assert cached_keys(tmp_path / "cache" / "2024-06-02.csv", iso2) == list(CELL_KEYS)


def test_collect_on_a_clock_east_of_utc_appends_to_the_utc_day_of_its_reading(tmp_path):
    # 01:00 at UTC+2 is 23:00 UTC the day before: that day's file, whose stamps all name it
    clock = lambda: datetime(2024, 6, 3, 1, 0, tzinfo=timezone(timedelta(hours=2)))
    config = CollectorConfig(mode=Mode.LIVE, cache_dir=tmp_path / "cache")
    snapshot = collect_one(Collector(config, client=StubClient(count=500), clock=clock, sleep=lambda s: None), IT)
    assert {c.collected_at for c in snapshot.cells.values()} == {"2024-06-02T23:00:00Z"}
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["2024-06-02.csv"]
    rows = read_table(tmp_path / "cache" / "2024-06-02.csv", CELL_COLUMNS)
    assert {row[-1] for _, row in rows} == {"2024-06-02T23:00:00Z"}


def test_partly_cached_collect_across_utc_midnight_answers_hits_for_the_day_it_looked_up(tmp_path):
    before_midnight = datetime(2024, 6, 2, 23, 59, 59, tzinfo=timezone.utc)
    readings = []

    def clock():
        readings.append(None)
        return before_midnight if len(readings) == 1 else before_midnight + timedelta(seconds=2)

    seeded, _ = live_collector(tmp_path, StubClient(count=500))
    collect_one(seeded, IT)
    path = tmp_path / "cache" / "2024-06-02.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-3]), encoding="utf-8")  # the last 3 cells are missing
    client = StubClient(count=500)
    config = CollectorConfig(mode=Mode.LIVE, cache_dir=tmp_path / "cache")
    collector = Collector(config, client=client, clock=clock, sleep=lambda s: None)
    assert complete(collect_one(collector, IT))
    assert len(client.calls) == 3
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.name]
    assert [key for _, key in cached_rows(path)] == list(CELL_KEYS)


def test_country_whose_misses_all_fail_gets_no_cache_write(tmp_path, caplog):
    failing = lambda: StubClient(fail_plan={canonical("IT", k): [MalformedResponse(f"bad {canonical('IT', k)}")] for k in CELL_KEYS})
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshot = collect_one(live_collector(tmp_path, failing())[0], IT)
    assert not complete(snapshot)
    assert len(snapshot.cells) == 0
    assert absent_keys(snapshot) == list(CELL_KEYS)
    assert incomplete_warnings(caplog) == [
        f"IT: incomplete snapshot kept (28 of 28 cells failed, first: bad {canonical('IT', CELL_KEYS[0])})"
    ]
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())
    collect_one(live_collector(tmp_path, StubClient(count=500))[0], IT)
    path = cache_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-3]), encoding="utf-8")
    before = path.stat().st_ino, path.read_bytes()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshot = collect_one(live_collector(tmp_path, failing())[0], IT)
    assert not complete(snapshot)
    assert len(snapshot.cells) == 25
    assert absent_keys(snapshot) == list(CELL_KEYS[-3:])
    assert incomplete_warnings(caplog) == [
        f"IT: incomplete snapshot kept (3 of 28 cells failed, first: bad {canonical('IT', CELL_KEYS[-3])})"
    ]
    assert (path.stat().st_ino, path.read_bytes()) == before


def test_cold_collect_reads_the_store_once_per_country_and_sends_each_query_once(tmp_path, monkeypatch):
    reads = []
    original = _CellStore.cells

    def cells(store, iso2, day=None):
        reads.append(iso2)
        return original(store, iso2, day)

    monkeypatch.setattr(_CellStore, "cells", cells)
    client = StubClient(count=500)
    collector, _ = live_collector(tmp_path, client)
    assert all(complete(s) for s in collector.collect_snapshots(FIVE))
    assert reads == FIVE
    assert sorted(client.calls) == sorted(canonical(c, key) for c in FIVE for key in CELL_KEYS)


def test_excluded_country_fails_before_any_request(tmp_path):
    client = StubClient()
    collector, _ = live_collector(tmp_path, client)
    with pytest.raises(ExcludedCountry, match="SY"):
        collector.collect_snapshots([IT, "SY"])
    assert client.calls == []
    assert not (tmp_path / "cache").exists()


def test_live_collect_yields_incomplete_snapshot_and_caches_what_arrived(tmp_path, caplog):
    q = "iso2=BR&sex=male&age_min=45&age_max=49&parent_filter=all"
    client = StubClient(fail_plan={q: [MalformedResponse(f"unparseable body for {q}")]})
    collector, _ = live_collector(tmp_path, client)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshots = collector.collect_snapshots(FIVE)
    assert [s.country for s in snapshots] == FIVE
    assert not complete(snapshots[1])
    assert len(snapshots[1].cells) == 27
    assert [canonical("BR", k) for k in absent_keys(snapshots[1])] == [q]
    assert incomplete_warnings(caplog) == [
        f"BR: incomplete snapshot kept (1 of 28 cells failed, first: unparseable body for {q})"
    ]
    assert all(complete(s) for i, s in enumerate(snapshots) if i != 1)
    assert len(cached_keys(cache_file(tmp_path), "BR")) == 27


def test_cold_live_collect_creates_one_cache_file_and_a_warm_one_sends_nothing(tmp_path, monkeypatch):
    rewrites = []
    original = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst, **kw: (rewrites.append(dst), original(src, dst, **kw)))
    collector, _ = live_collector(tmp_path, StubClient(count=500))
    first = list(collector.collect_snapshots(FIVE))
    path = cache_file(tmp_path)
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    assert rewrites == []
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CELL_COLUMNS) and lines.count(lines[0]) == 1
    assert all(cached_keys(path, c) == list(CELL_KEYS) for c in FIVE)
    warm = StubClient(count=9999)
    assert list(live_collector(tmp_path, warm)[0].collect_snapshots(FIVE)) == first
    assert warm.calls == []


def test_day_file_whose_last_append_was_cut_short_is_dropped_then_repaired(tmp_path, caplog):
    collector, _ = live_collector(tmp_path, StubClient(count=500))
    list(collector.collect_snapshots(FIVE))  # NG's 28 rows are the last append
    path = cache_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    torn = len(lines) - 9  # 0-based index of NG's 20th row: the append was cut inside it
    path.write_text("".join(lines[:torn]) + lines[torn][:10], encoding="utf-8")
    inode = path.stat().st_ino
    client = StubClient(count=500)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        assert all(complete(s) for s in live_collector(tmp_path, client)[0].collect_snapshots(FIVE))
    assert client.calls == [canonical("NG", key) for key in CELL_KEYS[19:]]
    assert any(str(path) in r.getMessage() and f"line {torn + 1}" in r.getMessage() for r in caplog.records)
    assert path.stat().st_ino == inode  # cut back in place, then appended to
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count(",".join(CELL_COLUMNS)) == 1
    assert all(cached_keys(path, c) == list(CELL_KEYS) for c in FIVE)
    again = StubClient(count=500)
    assert all(complete(s) for s in live_collector(tmp_path, again)[0].collect_snapshots(FIVE))
    assert again.calls == []


def test_day_file_whose_last_row_parses_without_a_line_break_drops_that_row(tmp_path, caplog):
    collect_one(live_collector(tmp_path, StubClient(count=500))[0], IT)
    path = cache_file(tmp_path)
    path.write_text(path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")  # the last row still parses
    inode = path.stat().st_ino
    client = StubClient(count=500)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        list(live_collector(tmp_path, client)[0].collect_snapshots([IT, "NG"]))
    assert sorted(client.calls) == sorted(
        [canonical("IT", CELL_KEYS[-1])] + [canonical("NG", key) for key in CELL_KEYS]
    )
    assert any(str(path) in r.getMessage() and "line 29" in r.getMessage() for r in caplog.records)
    assert path.stat().st_ino == inode  # cut back in place, then appended to
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count(",".join(CELL_COLUMNS)) == 1
    assert cached_keys(path, "IT") == cached_keys(path, "NG") == list(CELL_KEYS)


@pytest.mark.parametrize("left", ["", "iso2,sex,age"], ids=["empty", "torn_header"])
def test_day_file_cut_short_at_its_creation_is_refetched_and_rewritten(tmp_path, caplog, left):
    path = cache_file(tmp_path)
    path.parent.mkdir()
    path.write_text(left, encoding="utf-8")
    client = StubClient(count=500)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        assert complete(collect_one(live_collector(tmp_path, client)[0], IT))
    assert len(client.calls) == 28
    assert any(str(path) in r.getMessage() for r in caplog.records)
    assert cached_keys(path, "IT") == list(CELL_KEYS)


def _tear_last_line(path):
    """Cut the file inside its last row, as an interrupted append leaves it."""
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.rstrip("\n").rfind(",")], encoding="utf-8")


def test_torn_last_cache_line_is_dropped_and_refetched(tmp_path, caplog):
    countries = ["FR", IT]
    collector, _ = live_collector(tmp_path, StubClient(count=500))
    list(collector.collect_snapshots(countries))  # IT's cells are the last 28 lines
    path = cache_file(tmp_path)
    _tear_last_line(path)
    client = StubClient(count=500)
    fresh, _ = live_collector(tmp_path, client)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshots = list(fresh.collect_snapshots(countries))
    assert all(isinstance(s, AudienceSnapshot) and complete(s) for s in snapshots)
    assert client.calls == ["iso2=IT&sex=male&age_min=45&age_max=49&parent_filter=parent_of_child_0_12m"]
    assert any(str(path) in r.getMessage() and "line 57" in r.getMessage() for r in caplog.records)
    assert path.read_text(encoding="utf-8").endswith("\n")
    assert all(cached_keys(path, c) == list(CELL_KEYS) for c in countries)


def test_whole_day_file_is_read_as_it_is_and_a_torn_line_is_counted_from_the_first_byte(tmp_path, caplog):
    collect_one(live_collector(tmp_path, StubClient(count=500))[0], IT)
    path = cache_file(tmp_path)
    whole = path.read_bytes()
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        collect_one(live_collector(tmp_path, StubClient())[0], IT)
    assert caplog.records == [] and path.read_bytes() == whole
    # a blank first line is line 1, so the torn 28th row is line 30
    path.write_bytes(b"\n" + whole)
    _tear_last_line(path)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        collect_one(live_collector(tmp_path, StubClient(count=500))[0], IT)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: cut off torn last line 30; its cell is fetched again"
    ]


def test_day_file_cut_inside_its_last_timestamp_refetches_that_cell(tmp_path, caplog):
    collect_one(live_collector(tmp_path, StubClient(count=500))[0], IT)
    path = cache_file(tmp_path)
    text = path.read_text(encoding="utf-8")
    torn = text[: text.rfind("T")]  # the date alone still parses, as midnight
    assert torn.endswith(",500,2024-06-02")
    path.write_text(torn, encoding="utf-8")
    client = StubClient(count=500)
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        snapshot = collect_one(live_collector(tmp_path, client)[0], IT)
    assert client.calls == [canonical("IT", CELL_KEYS[-1])]
    assert any(str(path) in r.getMessage() and "line 29" in r.getMessage() for r in caplog.records)
    assert all(c.collected_at == FIXED_NOW_TEXT for c in snapshot.cells.values())
    assert path.read_text(encoding="utf-8") == text  # cut back to its 28 whole lines, then appended to
    again = StubClient(count=500)
    collect_one(live_collector(tmp_path, again)[0], IT)
    assert again.calls == []


def test_append_that_fails_part_way_leaves_the_file_at_its_last_line_break(tmp_path, monkeypatch, capsys):
    NG = "NG"
    collect_one(live_collector(tmp_path, StubClient(count=500))[0], IT)
    path = cache_file(tmp_path)
    before = path.read_bytes()
    fail_writes_part_way(monkeypatch)
    client = StubClient(count=500)
    with pytest.raises(OSError):
        live_collector(tmp_path, client)[0].collect_snapshots([IT, NG])
    monkeypatch.undo()
    assert len(client.calls) == 28
    assert path.read_bytes() == before
    again = StubClient(count=500)
    assert all(complete(s) for s in live_collector(tmp_path, again)[0].collect_snapshots([IT, NG]))
    assert sorted(again.calls) == sorted(canonical("NG", key) for key in CELL_KEYS)
    # through the CLI: the one-line JSON report, and the day file as it was
    monkeypatch.setattr(ingest, "AdsApiClient", lambda token: StubClient(count=500))
    cache = tmp_path / "cli-cache"
    args = ["collect", "--mode", "live", "--cache-dir", str(cache), "--out", str(tmp_path / "out"), "--countries"]
    assert main(args + ["IT"]) == 0
    (day,) = cache.iterdir()
    before = day.read_bytes()
    capsys.readouterr()
    fail_writes_part_way(monkeypatch)
    assert main(args + ["IT,NG"]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == "OSError"
    assert day.read_bytes() == before


def _deny(monkeypatch, owner, name, path):
    """Make `owner.name` raise PermissionError on `path` alone, as a read-only cache directory does."""
    original = getattr(owner, name)

    def denied(target, *args, **kwargs):
        if Path(target) == path:
            raise PermissionError(13, "Permission denied", str(target))
        return original(target, *args, **kwargs)

    monkeypatch.setattr(owner, name, denied)


REPAIRS = ("removed it, its cells are fetched again", "cut off torn last line")


def _repairs_logged(caplog) -> list[str]:
    return [text for r in caplog.records for text in REPAIRS if text in r.getMessage()]


@pytest.mark.parametrize(
    "damage, owner, name, repair",
    [("unparseable", Path, "unlink", REPAIRS[0]), ("torn", os, "truncate", REPAIRS[1])],
    ids=["unlink", "truncate"],
)
def test_day_file_the_run_cannot_repair_ends_it_and_is_left_for_the_next(
    tmp_path, monkeypatch, capsys, caplog, damage, owner, name, repair
):
    monkeypatch.setenv("ADS_API_TOKEN", "tok")
    monkeypatch.setattr(ingest, "AdsApiClient", lambda token: StubClient(count=500))
    cache, out = tmp_path / "cache", tmp_path / "out"
    args = ["collect", "--mode", "live", "--cache-dir", str(cache), "--out", str(out), "--countries", "IT,NG"]
    assert main(args) == 0
    (day,) = cache.iterdir()
    if damage == "unparseable":
        day.write_text(day.read_text(encoding="utf-8").replace(",500,", ",5x00,", 1), encoding="utf-8")
    else:
        _tear_last_line(day)
    damaged = day.read_bytes()
    kept = {p.relative_to(out): p.is_file() and p.read_bytes() for p in out.rglob("*")}
    capsys.readouterr()
    caplog.clear()
    with monkeypatch.context() as fault, caplog.at_level(logging.WARNING, logger="admac.ingest"):
        _deny(fault, owner, name, day)
        assert main(args) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    report = json.loads(line)
    assert report["error"] == "PermissionError" and str(day) in report["message"]
    # the repair was not made, so no line claims it was
    assert _repairs_logged(caplog) == []
    assert day.read_bytes() == damaged
    assert {p.relative_to(out): p.is_file() and p.read_bytes() for p in out.rglob("*")} == kept
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        assert main(args) == 0
    assert _repairs_logged(caplog) == [repair]
    assert cached_keys(day, IT) == cached_keys(day, "NG") == list(CELL_KEYS)


TWO = [IT, "NG"]
TWO_QUERIES = [canonical(c, key) for c in TWO for key in CELL_KEYS]


def test_bad_cache_line_with_a_line_break_is_removed_and_refetched(tmp_path, caplog):
    first = list(live_collector(tmp_path, StubClient(count=100))[0].collect_snapshots(TWO))
    path = cache_file(tmp_path)
    good = path.read_bytes()
    lines = good.decode("utf-8").splitlines(keepends=True)
    assert len(lines) == 1 + len(TWO_QUERIES)
    # each data line, the last (fully written) one included, with a bad count or a bad iso2
    for i in range(1, len(lines)):
        for bad_line in (lines[i].replace(",100,", ",1x00,"), "I1" + lines[i][2:]):
            path.write_text("".join(lines[:i] + [bad_line] + lines[i + 1:]), encoding="utf-8")
            caplog.clear()
            client = StubClient(count=100)
            with caplog.at_level(logging.WARNING, logger="admac.ingest"):
                assert list(live_collector(tmp_path, client)[0].collect_snapshots(TWO)) == first
            assert client.calls == TWO_QUERIES
            assert any(str(path) in r.getMessage() and f"line {i + 1}" in r.getMessage() for r in caplog.records)
            assert path.read_bytes() == good
            again = StubClient(count=100)
            assert list(live_collector(tmp_path, again)[0].collect_snapshots(TWO)) == first
            assert again.calls == []


def test_day_file_cut_at_any_byte_refetches_exactly_the_lost_cells(tmp_path):
    first = list(live_collector(tmp_path, StubClient(count=500))[0].collect_snapshots(TWO))
    path = cache_file(tmp_path)
    good = path.read_bytes()
    for offset in range(len(good) + 1):
        path.write_bytes(good[:offset])
        kept = max(good.count(b"\n", 0, offset) - 1, 0)  # whole data lines after the header
        client = StubClient(count=500)
        assert list(live_collector(tmp_path, client)[0].collect_snapshots(TWO)) == first
        assert client.calls == TWO_QUERIES[kept:]
        assert path.read_bytes() == good
        again = StubClient(count=500)
        assert list(live_collector(tmp_path, again)[0].collect_snapshots(TWO)) == first
        assert again.calls == []


def test_non_utf8_cache_file_is_cut_back_or_removed_and_refetched(tmp_path, caplog):
    collector, _ = live_collector(tmp_path, StubClient(count=500))
    collect_one(collector, IT)
    path = cache_file(tmp_path)
    good = path.read_bytes()
    # a bad byte after the last line break is a torn tail: cut off, no cell lost; one inside a
    # file that still ends in a line break loses the whole day file: removed, every cell refetched
    for damaged, lost, says in ((good + b"\xff", 0, "line 30"), (good.replace(b"female", b"f\xffmale", 1), 28, "UTF-8")):
        path.write_bytes(damaged)
        caplog.clear()
        client = StubClient(count=500)
        fresh, _ = live_collector(tmp_path, client)
        with caplog.at_level(logging.WARNING, logger="admac.ingest"):
            assert complete(collect_one(fresh, IT))
        assert len(client.calls) == lost
        assert any(str(path) in r.getMessage() and says in r.getMessage() for r in caplog.records)
        assert path.read_bytes() == good
        collect_one(fresh, "NG")  # appended to the repaired file
        assert cached_keys(path, "IT") == cached_keys(path, "NG") == list(CELL_KEYS)
        again = StubClient(count=500)
        live_collector(tmp_path, again)[0].collect_snapshots([IT, "NG"])
        assert again.calls == []


def test_torn_last_fixture_line_still_raises(fixture_dir):
    path = write_fixture(fixture_dir, "IT", full_fixture_rows())
    _tear_last_line(path)
    with pytest.raises(ParseError) as caught:
        collect_one(fixture_collector(fixture_dir), IT)
    assert caught.value.line == 29


def test_live_fetch_cell_sends_a_miss_once_and_appends_its_one_line(tmp_path):
    client = StubClient(count=700)
    collector, _ = live_collector(tmp_path, client)
    key = CELL_KEYS[5]
    assert collector.fetch_cell(IT, key) == make_cell(700, FIXED_NOW_TEXT)
    assert client.calls == [canonical(IT, key)]
    path = cache_file(tmp_path)
    assert path.read_text(encoding="utf-8").count("\n") == 2  # the header and the cell's line
    assert cached_rows(path) == [(IT, key)]
    assert collector.fetch_cell(IT, key) == make_cell(700, FIXED_NOW_TEXT)
    assert len(client.calls) == 1
    fresh = StubClient(count=9999)
    assert live_collector(tmp_path, fresh)[0].fetch_cell(IT, key).count == 700
    assert fresh.calls == []
    # a failed miss raises its per-cell error and writes nothing
    before = path.read_bytes()
    other = CELL_KEYS[6]
    failing = StubClient(fail_plan={canonical(IT, other): [MalformedResponse("bad")]})
    with pytest.raises(MalformedResponse, match="bad"):
        live_collector(tmp_path, failing)[0].fetch_cell(IT, other)
    assert failing.calls == [canonical(IT, other)]
    assert path.read_bytes() == before
    cold = StubClient(fail_plan={canonical(IT, key): [MalformedResponse("bad")]})
    with pytest.raises(MalformedResponse):
        live_collector(tmp_path / "cold", cold)[0].fetch_cell(IT, key)
    assert not (tmp_path / "cold").exists()


def test_live_mode_requires_token(tmp_path, monkeypatch):
    monkeypatch.delenv("ADS_API_TOKEN", raising=False)
    config = CollectorConfig(mode=Mode.LIVE, cache_dir=tmp_path / "cache")
    with pytest.raises(AuthError):
        Collector(config)


# --- HTTP client boundary ---------------------------------------------------

class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    def __init__(self, response):
        self.response = response
        self.requests = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.requests.append((url, params, headers))
        return self.response


# IT's female 25-29 cell, all users: the one query the client tests send.
QUERY = (IT, (Sex.FEMALE, 25, ParentFilter.ALL))


def test_client_parses_success():
    session = FakeSession(FakeResponse(200, {"audience_size": 123456}))
    client = AdsApiClient(token="tok", session=session)
    assert client.reach_estimate(*QUERY) == 123456
    url, params, headers = session.requests[0]
    assert url.endswith("/reach_estimate")
    assert params["country"] == "IT" and params["age_min"] == 25
    assert headers["Authorization"] == "Bearer tok"


@pytest.mark.parametrize(
    "status,exc",
    [(401, AuthError), (403, AuthError), (429, RateLimited), (500, MalformedResponse)],
)
def test_client_maps_statuses(status, exc):
    client = AdsApiClient(token="tok", session=FakeSession(FakeResponse(status, {})))
    with pytest.raises(exc):
        client.reach_estimate(*QUERY)


def test_client_rejects_bad_payloads():
    for payload in (
        {"weird": 1}, {"audience_size": "soon"}, ValueError("not json"), {"audience_size": -4},
        {"audience_size": "12"}, {"audience_size": True}, {"audience_size": 12.7},
        {"audience_size": MAX_COUNT + 1}, {"audience_size": 10**400},
    ):
        client = AdsApiClient(token="tok", session=FakeSession(FakeResponse(200, payload)))
        with pytest.raises(MalformedResponse):
            client.reach_estimate(*QUERY)


def test_client_reads_the_largest_count_a_float_holds():
    client = AdsApiClient(token="tok", session=FakeSession(FakeResponse(200, {"audience_size": MAX_COUNT})))
    assert client.reach_estimate(*QUERY) == MAX_COUNT


def test_client_reads_a_zero_count():
    client = AdsApiClient(token="tok", session=FakeSession(FakeResponse(200, {"audience_size": 0})))
    assert client.reach_estimate(*QUERY) == 0


def test_readme_states_the_retry_and_timeout_constants():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    assert f"`MAX_RETRIES` ({ingest.MAX_RETRIES}) times after `BASE_BACKOFF_S` ({ingest.BASE_BACKOFF_S:g} s)" in readme
    assert f"`REQUEST_TIMEOUT_S` ({ingest.REQUEST_TIMEOUT_S:g} s)" in readme


def test_client_requires_token():
    with pytest.raises(AuthError):
        AdsApiClient(token="")


class RaisingSession:
    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls += 1
        raise self.exc


def test_client_maps_transport_errors_to_upstream_unavailable():
    for exc in (
        ConnectionError("reset by peer"), TimeoutError("timed out"),
        urllib.error.URLError(ConnectionRefusedError("refused")), http.client.RemoteDisconnected("closed"),
    ):
        client = AdsApiClient(token="tok", session=RaisingSession(exc))
        with pytest.raises(UpstreamUnavailable, match="transport failure"):
            client.reach_estimate(*QUERY)


# --- the default session on the wire ------------------------------------------

class _Upstream(http.server.BaseHTTPRequestHandler):
    """Records each GET's path and Authorization header, then answers with the server's
    `reply`: (status, headers, body), or raw bytes written as they are."""

    def do_GET(self):
        self.server.seen.append((self.path, self.headers["Authorization"]))
        reply = self.server.reply
        if isinstance(reply, bytes):
            self.wfile.write(reply)
            return
        status, headers, body = reply
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(body))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def upstream(monkeypatch):
    """A local HTTP server for `_Upstream`, reached with no proxy; shut down and joined after."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Upstream)
    server.daemon_threads = False  # so server_close joins every handler thread
    server.seen, server.reply = [], (200, {}, b"")
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _wire_client(server, token="tok", port=None):
    return AdsApiClient(token=token, base_url=f"http://127.0.0.1:{port or server.server_port}/v1")


def test_default_session_sends_the_query_and_reads_the_count(upstream):
    upstream.reply = (200, {"Content-Type": "application/json"}, b'{"audience_size": 123456}')
    assert _wire_client(upstream).reach_estimate(*QUERY) == 123456
    path = "/v1/reach_estimate?country=IT&sex=female&age_min=25&age_max=29&parent_filter=all"
    assert upstream.seen == [(path, "Bearer tok")]


@pytest.mark.parametrize(
    "status,body,exc",
    [
        (401, b"{}", AuthError), (403, b"{}", AuthError), (429, b"{}", RateLimited),
        (500, b"{}", MalformedResponse), (200, b"<html>", MalformedResponse),
        (200, b"[" * 100_000, MalformedResponse),
    ],
    ids=["401", "403", "429", "500", "not_json", "nested_too_deep"],
)
def test_default_session_maps_statuses_and_bodies(upstream, status, body, exc):
    upstream.reply = (status, {}, body)
    with pytest.raises(exc):
        _wire_client(upstream).reach_estimate(*QUERY)
    assert len(upstream.seen) == 1


def test_default_session_follows_no_redirect(upstream):
    # another host name for the same server: a followed redirect would reach it again
    elsewhere = f"http://localhost:{upstream.server_port}/v1/reach_estimate"
    upstream.reply = (302, {"Location": elsewhere}, b"")
    with pytest.raises(MalformedResponse, match="unexpected status 302"):
        _wire_client(upstream).reach_estimate(*QUERY)
    assert len(upstream.seen) == 1


@pytest.mark.parametrize(
    "raw",
    [b"garbage\r\n\r\n", b"", b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{", None],
    ids=["garbage_status_line", "closed_without_reply", "incomplete_body", "closed_port"],
)
def test_default_session_maps_broken_replies_to_upstream_unavailable(upstream, raw):
    port = None
    if raw is None:
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
    upstream.reply = raw
    with pytest.raises(UpstreamUnavailable, match="transport failure"):
        _wire_client(upstream, port=port).reach_estimate(*QUERY)


@pytest.mark.parametrize("token", ["tok\n", "Bearer tok", "to k", "t\u00f6k", "=tok", "tok=a"])
def test_bad_token_raises_auth_error_before_anything_is_sent(upstream, token):
    with pytest.raises(AuthError, match="not a bearer token"):
        _wire_client(upstream, token=token).reach_estimate(*QUERY)
    assert upstream.seen == []
    AdsApiClient(token="A-._~+/9==", session=FakeSession(None))  # every b64token character passes


def test_live_collect_ends_at_the_first_transport_failure_and_a_rerun_succeeds(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ADS_API_TOKEN", "tok")
    out = tmp_path / "out"
    args = ["collect", "--mode", "live", "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    args += ["--countries", "IT,NG"]
    down = RaisingSession(ConnectionError("name resolution failed"))
    monkeypatch.setattr(ingest, "AdsApiClient", lambda token: AdsApiClient(token, session=down))
    assert main(args) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    report = json.loads(line)
    assert report["error"] == "UpstreamUnavailable" and "transport failure" in report["message"]
    assert down.calls == 1
    assert not (out / "snapshots").exists()
    healthy = FakeSession(FakeResponse(200, {"audience_size": 500}))
    monkeypatch.setattr(ingest, "AdsApiClient", lambda token: AdsApiClient(token, session=healthy))
    assert main(args) == 0
    assert len(healthy.requests) == 2 * 28
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["IT.csv", "NG.csv"]


class OneCellSession(FakeSession):
    """Answers `count` for IT's male 30-34 parents cell and 500 for every other query."""

    def __init__(self, count):
        super().__init__(None)
        self.count = count

    def get(self, url, params=None, headers=None, timeout=None):
        self.requests.append((url, params, headers))
        odd = (params["country"], params["sex"], params["age_min"], params["parent_filter"])
        hit = odd == ("IT", "male", 30, "parent_of_child_0_12m")
        return FakeResponse(200, {"audience_size": self.count if hit else 500})


@pytest.mark.parametrize("count", [MAX_COUNT + 1, 10**400], ids=["two_to_the_53", "401_digits"])
def test_live_count_no_float_holds_is_a_failed_cell_and_is_not_cached(tmp_path, monkeypatch, caplog, count):
    monkeypatch.setenv("ADS_API_TOKEN", "tok")
    out, cache = tmp_path / "out", tmp_path / "cache"
    flags = ["--mode", "live", "--cache-dir", str(cache), "--out", str(out), "--countries", "IT"]
    odd = OneCellSession(count)
    monkeypatch.setattr(ingest, "AdsApiClient", lambda token: AdsApiClient(token, session=odd))
    with caplog.at_level(logging.WARNING, logger="admac.ingest"):
        assert main(["collect", *flags]) == 0
    key = (Sex.MALE, 30, ParentFilter.PARENTS_0_12M)
    assert incomplete_warnings(caplog) == [
        f"IT: incomplete snapshot kept (1 of 28 cells failed, first: audience_size {count} is not a count"
        f" for {canonical(IT, key)})"
    ]
    (day_file,) = cache.glob("*.csv")
    assert cached_keys(day_file, "IT") == [k for k in CELL_KEYS if k != key]
    assert main(["estimate", *flags]) == 0
    assert "IT,male,,false,incomplete_snapshot" in (out / "estimates.csv").read_text(encoding="utf-8")
    healthy = FakeSession(FakeResponse(200, {"audience_size": 500}))
    monkeypatch.setattr(ingest, "AdsApiClient", lambda token: AdsApiClient(token, session=healthy))
    assert main(["collect", *flags]) == 0 and main(["estimate", *flags]) == 0
    assert [params for _, params, _ in healthy.requests] == [
        {"country": "IT", "sex": "male", "age_min": 30, "age_max": 34, "parent_filter": "parent_of_child_0_12m"}
    ]
    assert "IT,male,32.5,true," in (out / "estimates.csv").read_text(encoding="utf-8")
