from __future__ import annotations

from datetime import datetime
from pathlib import Path

import pytest

from admac.domain import (
    AgeGroup,
    AudienceCell,
    CountryRef,
    FertilitySchedule,
    ParentFilter,
    Sex,
    age_grid,
    iso2_code,
)
from admac.errors import ParseError
from admac.ingest import CELL_KEYS, file_country
from conftest import make_cell, make_snapshot


def test_age_grid_is_the_seven_canonical_groups():
    grid = age_grid()
    assert [str(g) for g in grid] == [
        "15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45-49",
    ]
    assert [g.lower for g in grid] == sorted(g.lower for g in grid)


def test_grid_midpoints():
    grid = age_grid()
    assert grid[0].midpoint == 17.5
    assert grid[-1].midpoint == 47.5
    assert all(g.midpoint - g.lower == 2.5 for g in grid)


def test_grid_covers_each_age_exactly_once():
    grid = age_grid()
    for age in range(15, 50):
        owners = [g for g in grid if g.lower <= age <= g.upper]
        assert len(owners) == 1, age


@pytest.mark.parametrize("lower", [14, 16, 50, 0, -5])
def test_non_canonical_age_group_rejected(lower):
    with pytest.raises(ValueError):
        AgeGroup(lower)


@pytest.mark.parametrize("iso2", ["I", "ITA", "it", "1T", "ÄÖ", "\uff29\uff34", "ß"])
def test_bad_iso2_rejected(iso2):
    # "ß" upper-cases to "SS", so the letters are checked before the case is;
    # "it" is a code in any case, but not where capitals are required
    if iso2 == "it":
        assert iso2_code(iso2) == "IT"
    else:
        with pytest.raises(ValueError):
            iso2_code(iso2)
    with pytest.raises(ParseError):
        file_country(Path(f"{iso2}.csv"))


def test_cell_rejects_negative_count_and_naive_timestamp():
    with pytest.raises(ValueError):
        make_cell(-1)
    with pytest.raises(ValueError):
        AudienceCell(count=100, collected_at=datetime(2024, 6, 1))


def test_complete_snapshot_has_28_cells_and_lookup_works():
    snap = make_snapshot()
    assert len(snap.cells) == 28 and set(snap.cells) == set(CELL_KEYS)
    assert snap.cells[(Sex.MALE, AgeGroup(30), ParentFilter.PARENTS_0_12M)].count == 5_000
    assert snap.cells[(Sex.MALE, AgeGroup(30), ParentFilter.ALL)].count == 100_000


def test_value_objects_are_read_only_hashable_and_ordered():
    snap = make_snapshot()
    for obj, attr in ((snap, "cells"), (snap.cells[CELL_KEYS[0]], "count"), (snap.country, "iso2"), (AgeGroup(15), "lower")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert snap == make_snapshot()
    assert sorted([CountryRef(iso2="IT"), CountryRef(iso2="FR")]) == [CountryRef(iso2="FR"), CountryRef(iso2="IT")]
    assert len({CountryRef(iso2="IT"), CountryRef(iso2="IT")}) == 1
    assert sorted(reversed(age_grid())) == list(age_grid())


def test_schedule_validates_shape_and_sign():
    country = "IT"
    with pytest.raises(ValueError):
        FertilitySchedule(country=country, sex=Sex.FEMALE, rates=(0.1,) * 6)
    with pytest.raises(ValueError):
        FertilitySchedule(country=country, sex=Sex.FEMALE, rates=(0.1,) * 6 + (-0.1,))


def test_schedule_admits_rate_above_one_with_warning(caplog):
    country = "IT"
    with caplog.at_level("WARNING"):
        FertilitySchedule(country=country, sex=Sex.FEMALE, rates=(0.1,) * 6 + (1.5,))
    assert "exceeds 1" in caplog.text
