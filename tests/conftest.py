from __future__ import annotations

import errno
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

from admac.domain import (
    AudienceCell,
    AudienceSnapshot,
    ParentFilter,
    Sex,
    age_grid,
)
from admac.fileio import read_table

TS = datetime(2024, 6, 1, tzinfo=timezone.utc)


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
        for group, total, parent in zip(age_grid(), totals, parents):
            cells[sex, group, ParentFilter.ALL] = make_cell(total)
            cells[sex, group, ParentFilter.PARENTS_0_12M] = make_cell(parent)
    return AudienceSnapshot(country=iso2, cells=cells)


def read_csv(path):
    """A CSV artifact as (metadata, header, rows), each row without its line number."""
    meta, header, rows = read_table(path)
    return meta, header, [row for _, row in rows]


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
        for group in age_grid():
            for flt, default in (("all", 100_000), ("parent_of_child_0_12m", 5_000)):
                count = overrides.get((group.lower, flt), default)
                rows.append((sex, group.lower, flt, count))
    return rows


@pytest.fixture
def fixture_dir(tmp_path):
    return tmp_path / "fixtures"
