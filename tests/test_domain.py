from __future__ import annotations

from datetime import datetime
from pathlib import Path

import pytest

from admac.domain import (
    AGE_GROUP_LOWERS,
    GROUP_WIDTH,
    AudienceCell,
    CountryRef,
    FertilitySchedule,
    ParentFilter,
    Sex,
    age_group,
    iso2_code,
)
from admac.errors import ParseError
from admac.ingest import CELL_KEYS, file_country
from conftest import make_cell, make_snapshot


def test_age_grid_is_the_seven_canonical_groups():
    grid = AGE_GROUP_LOWERS
    assert [f"{g}-{g + GROUP_WIDTH - 1}" for g in grid] == [
        "15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45-49",
    ]
    assert list(grid) == sorted(grid)
    assert [age_group(g, g + GROUP_WIDTH - 1) for g in grid] == list(grid)


def test_grid_covers_each_age_exactly_once():
    grid = AGE_GROUP_LOWERS
    for age in range(15, 50):
        owners = [g for g in grid if g <= age <= g + GROUP_WIDTH - 1]
        assert len(owners) == 1, age


@pytest.mark.parametrize("lower", [14, 16, 50, 0, -5])
def test_non_canonical_age_group_rejected(lower):
    with pytest.raises(ValueError, match=rf"^age group must start at one of \(15, 20, 25, 30, 35, 40, 45\), got {lower}$"):
        age_group(lower, lower + GROUP_WIDTH - 1)


@pytest.mark.parametrize("lower, upper", [(15, 20), (15, 18), (45, 50), (20, 19)])
def test_age_group_whose_upper_bound_does_not_close_it_rejected(lower, upper):
    with pytest.raises(ValueError, match=rf"^age_high {upper} does not close the {lower}-{lower + 4} group$"):
        age_group(lower, upper)


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
    assert snap.cells[(Sex.MALE, 30, ParentFilter.PARENTS_0_12M)].count == 5_000
    assert snap.cells[(Sex.MALE, 30, ParentFilter.ALL)].count == 100_000


def test_value_objects_are_read_only_hashable_and_ordered():
    snap = make_snapshot()
    for obj, attr in ((snap, "cells"), (snap.cells[CELL_KEYS[0]], "count"), (snap.country, "iso2")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert snap == make_snapshot()
    assert sorted([CountryRef(iso2="IT"), CountryRef(iso2="FR")]) == [CountryRef(iso2="FR"), CountryRef(iso2="IT")]
    assert len({CountryRef(iso2="IT"), CountryRef(iso2="IT")}) == 1


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
