from __future__ import annotations

import csv
import errno
import functools
import importlib.util
import os
from pathlib import Path

import pytest
from hypothesis import settings

from admac.domain import AGE_GROUP_LOWERS, AudienceCell, AudienceSnapshot, ParentFilter, Sex
from admac.pipeline import packaged_data_path

WORLD_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "world.py"

TS = "2024-06-01T00:00:00Z"

# CI's deeper step runs the fault-injection properties (test_fault_injection.py) under
# `--hypothesis-profile deep`.
settings.register_profile("deep", max_examples=600)


def fault_examples() -> int:
    """A fault-injection property's example count: 600 while the `deep` profile is active, else 60."""
    deep = settings.get_profile("deep")
    return deep.max_examples if settings.default is deep else 60


def make_cell(count, when=TS):
    return AudienceCell(count=count, collected_at=when)


def make_snapshot(
    iso2="IT",
    female_totals=None,
    female_parents=None,
    male_totals=None,
    male_parents=None,
):
    """Snapshot from per-age count lists; missing sexes get bland defaults."""
    defaults_total = [100_000] * 7
    defaults_parents = [5_000] * 7
    counts = {
        Sex.FEMALE: (female_totals or defaults_total, female_parents or defaults_parents),
        Sex.MALE: (male_totals or defaults_total, male_parents or defaults_parents),
    }
    cells = {}
    for sex, (totals, parents) in counts.items():
        for lower, total, parent in zip(AGE_GROUP_LOWERS, totals, parents):
            cells[sex, lower, ParentFilter.ALL] = make_cell(total)
            cells[sex, lower, ParentFilter.PARENTS_0_12M] = make_cell(parent)
    return AudienceSnapshot(country=iso2, cells=cells)


def read_csv(path):
    """A CSV artifact as (metadata, header, rows), read with the csv module
    alone: the `# key=value` lines fill the metadata, other `#` lines and
    blank lines are skipped, and the header is the first row left."""
    meta, lines = {}, []
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
            elif line.strip():
                lines.append(line)
    rows = list(csv.reader(lines))
    return meta, rows[0] if rows else [], rows[1:]


def fail_writes_part_way(monkeypatch) -> None:
    """Make `os.write` write half of its first buffer, then fail as a full disk does."""
    original, calls = os.write, []

    def write(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return original(fd, bytes(data[: len(data) // 2]))

    monkeypatch.setattr(os, "write", write)


def write_fixture(fixture_dir: Path, iso2: str, rows) -> Path:
    """Write a fixture CSV; rows are (sex, age_low, parent_filter, count)."""
    fixture_dir.mkdir(parents=True, exist_ok=True)
    path = fixture_dir / f"{iso2}.csv"
    lines = ["iso2,sex,age_low,age_high,parent_filter,count,collected_at"]
    for sex, age_low, flt, count in rows:
        lines.append(f"{iso2},{sex},{age_low},{age_low + 4},{flt},{count},2024-06-01T00:00:00Z")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def full_fixture_rows(female_counts=None, male_counts=None):
    """28 (sex, age_low, filter, count) rows; counts maps override defaults."""
    rows = []
    for sex in ("female", "male"):
        overrides = (female_counts if sex == "female" else male_counts) or {}
        for lower in AGE_GROUP_LOWERS:
            for flt, default in (("all", 100_000), ("parent_of_child_0_12m", 5_000)):
                count = overrides.get((lower, flt), default)
                rows.append((sex, lower, flt, count))
    return rows


@pytest.fixture
def fixture_dir(tmp_path):
    return tmp_path / "fixtures"


@functools.cache
def world_script():
    """`bench/world.py`, loaded by file path as a module of its own."""
    spec = importlib.util.spec_from_file_location("world", WORLD_SCRIPT)
    world = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(world)
    return world


def generate_world(out_dir: Path, seed: int, n_countries: int) -> tuple[Path, Path]:
    """A seeded `bench/world.py` world under `out_dir`: (fixture dir, truth table)."""
    world_script().generate_world(out_dir, packaged_data_path("continents.csv"), seed, n_countries=n_countries)
    return out_dir / "fixtures", out_dir / "truth.csv"


@pytest.fixture(scope="session")
def small_worlds(tmp_path_factory):
    """Two seeded worlds, of 20 and of 60 countries: name -> (fixture dir, truth table)."""
    return {
        f"world-{n}": generate_world(tmp_path_factory.mktemp(f"world-{n}"), seed, n)
        for seed, n in ((3, 20), (8, 60))
    }
