"""Core value types: the age grid, countries, audience cells and schedules.

Every record here is immutable, so instances can be shared freely; a
snapshot's cell dict is built once, by its reader or collector, and is not
changed after. Records are named tuples: equality, hashing and ordering
are those of the tuple of their fields (so a record also equals a plain
tuple of the same values). A record with invariants checks them in
`__new__` and raises ValueError. A record's country is its ISO2 code, a
plain string in capitals (`iso2_code`), and an age band is named by its
lower bound, a plain int in `AGE_GROUP_LOWERS` (`age_group`). A continent
is its label, a plain string in `CONTINENTS`.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from datetime import datetime, timezone
from enum import Enum

logger = logging.getLogger(__name__)

GROUP_WIDTH = 5
# The lower bounds of the seven canonical age groups 15-19 .. 45-49, ascending.
AGE_GROUP_LOWERS = (15, 20, 25, 30, 35, 40, 45)


class Sex(str, Enum):
    FEMALE = "female"
    MALE = "male"


class ParentFilter(str, Enum):
    """Audience filter: everyone, or parents with a child aged 0-12 months."""

    ALL = "all"
    PARENTS_0_12M = "parent_of_child_0_12m"


# The six continent labels a continent map may use, in a fixed order.
CONTINENTS = ("Africa", "Asia", "Europe", "NorthAmerica", "Oceania", "SouthAmerica")


def age_group(lower: int, upper: int) -> int:
    """The age band `lower`-`upper` (inclusive) as its lower bound; ValueError
    unless `lower` starts a canonical band and `upper` closes it."""
    if lower not in AGE_GROUP_LOWERS:
        raise ValueError(f"age group must start at one of {AGE_GROUP_LOWERS}, got {lower}")
    if upper != lower + GROUP_WIDTH - 1:
        raise ValueError(f"age_high {upper} does not close the {lower}-{lower + GROUP_WIDTH - 1} group")
    return lower


def iso2_code(text: str) -> str:
    """`text` as an ISO-3166 alpha-2 code in capitals: two ASCII letters, in
    any case. The letters are checked before upper-casing, which can turn
    one letter into two ("ß" into "SS"). ValueError otherwise."""
    if len(text) != 2 or not (text.isascii() and text.isalpha()):
        raise ValueError(f"iso2 must be two ASCII capital letters, got {text!r}")
    return text.upper()


class CountryRef(namedtuple("CountryRef", "iso2")):
    """A country keyed by ISO-3166 alpha-2 code. The program keys countries
    by the code itself (`iso2_code`); only bench/traced.py still builds
    this wrapper, for its kernel inputs."""

    __slots__ = ()

    def __new__(cls, iso2: str) -> CountryRef:
        if len(iso2) != 2 or not (iso2.isascii() and iso2.isalpha() and iso2.isupper()):
            raise ValueError(f"iso2 must be two ASCII capital letters, got {iso2!r}")
        return tuple.__new__(cls, (iso2,))


# The platform never reports an audience below this; a count of exactly
# LOWER_BOUND_COUNT is indistinguishable from "20 or fewer, possibly none".
LOWER_BOUND_COUNT = 20


class AudienceCell(namedtuple("AudienceCell", "count collected_at")):
    """One audience count and when it was collected. Its key and country
    belong to the snapshot, or the file row, that holds it."""

    __slots__ = ()

    def __new__(cls, count: int, collected_at: datetime) -> AudienceCell:
        if count < 0:
            raise ValueError(f"audience count must be non-negative, got {count}")
        if collected_at.tzinfo is None:
            raise ValueError("collected_at must be timezone-aware (UTC)")
        return tuple.__new__(cls, (count, collected_at))


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


# (sex, age group, filter); an age group is named by its lower bound.
CellKey = tuple[Sex, int, ParentFilter]


class AudienceSnapshot(namedtuple("AudienceSnapshot", "country cells")):
    """All cells collected for one country in one pass: `cells` maps each
    cell's key to the cell, in the order its rows are written.

    A complete snapshot holds 7 age groups x 2 sexes x 2 filters = 28 cells.
    Partial snapshots are representable (collection can fail per cell).
    """

    __slots__ = ()


class FertilitySchedule(namedtuple("FertilitySchedule", "country sex rates")):
    """Per-age-group fertility proxy rates for one (country, sex).

    Rates are parents-with-infant over total audience, one per age group in
    grid order. A rate above 1 can only come from inconsistent upstream
    counts; it is admitted but flagged so the data error stays visible.
    """

    __slots__ = ()

    def __new__(cls, country: str, sex: Sex, rates: tuple[float, ...]) -> FertilitySchedule:
        if len(rates) != len(AGE_GROUP_LOWERS):
            raise ValueError(f"schedule needs {len(AGE_GROUP_LOWERS)} rates, got {len(rates)}")
        for lower, rate in zip(AGE_GROUP_LOWERS, rates):
            if not rate >= 0.0:
                raise ValueError(f"rate for {lower}-{lower + GROUP_WIDTH - 1} must be non-negative, got {rate}")
            if rate > 1.0:
                logger.warning(
                    "%s/%s: rate %.6g for ages %d-%d exceeds 1; numerator larger than exposure",
                    country, sex.value, rate, lower, lower + GROUP_WIDTH - 1,
                )
        return tuple.__new__(cls, (country, sex, rates))
