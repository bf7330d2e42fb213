"""Core value types: the age grid, countries, audience cells and schedules.

Everything here is an immutable value object; instances can be shared freely
between threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

logger = logging.getLogger(__name__)

AGE_LOWER = 15
AGE_UPPER = 49
GROUP_WIDTH = 5
AGE_GROUP_LOWERS = (15, 20, 25, 30, 35, 40, 45)
N_AGE_GROUPS = len(AGE_GROUP_LOWERS)


class Sex(str, Enum):
    FEMALE = "female"
    MALE = "male"


class ParentFilter(str, Enum):
    """Audience filter: everyone, or parents with a child aged 0-12 months."""

    ALL = "all"
    PARENTS_0_12M = "parent_of_child_0_12m"


class Continent(str, Enum):
    AFRICA = "Africa"
    ASIA = "Asia"
    EUROPE = "Europe"
    NORTH_AMERICA = "NorthAmerica"
    OCEANIA = "Oceania"
    SOUTH_AMERICA = "SouthAmerica"


@dataclass(frozen=True, order=True)
class AgeGroup:
    """A 5-year reproductive age band, e.g. 15-19."""

    lower: int
    width: int = GROUP_WIDTH

    def __post_init__(self) -> None:
        if self.lower not in AGE_GROUP_LOWERS:
            raise ValueError(f"age group must start at one of {AGE_GROUP_LOWERS}, got {self.lower}")
        if self.width != GROUP_WIDTH:
            raise ValueError(f"age groups are {GROUP_WIDTH} years wide, got {self.width}")

    @property
    def upper(self) -> int:
        """Inclusive upper bound (19 for the 15-19 group)."""
        return self.lower + self.width - 1

    @property
    def midpoint(self) -> float:
        return self.lower + self.width / 2

    def __str__(self) -> str:
        return f"{self.lower}-{self.upper}"


# The seven canonical age groups 15-19 .. 45-49, ascending.
AGE_GRID: tuple[AgeGroup, ...] = tuple(AgeGroup(lower) for lower in AGE_GROUP_LOWERS)


def age_grid() -> tuple[AgeGroup, ...]:
    """The seven canonical age groups 15-19 .. 45-49, ascending (AGE_GRID)."""
    return AGE_GRID


@dataclass(frozen=True, order=True)
class CountryRef:
    """A country keyed by ISO-3166 alpha-2 code."""

    iso2: str
    name: str = ""
    continent: Continent | None = None

    def __post_init__(self) -> None:
        if len(self.iso2) != 2 or not self.iso2.isalpha() or not self.iso2.isupper():
            raise ValueError(f"iso2 must be a 2-letter uppercase code, got {self.iso2!r}")


# The platform never reports an audience below this; a count of exactly
# LOWER_BOUND_COUNT is indistinguishable from "20 or fewer, possibly none".
LOWER_BOUND_COUNT = 20


@dataclass(frozen=True)
class AudienceCell:
    """One audience count for (country, sex, age group, parent filter)."""

    country: CountryRef
    sex: Sex
    age_group: AgeGroup
    parent_filter: ParentFilter
    count: int
    collected_at: datetime

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"audience count must be non-negative, got {self.count}")
        if self.collected_at.tzinfo is None:
            raise ValueError("collected_at must be timezone-aware (UTC)")

    @property
    def at_lower_bound(self) -> bool:
        """True iff the platform returned its floor value."""
        return self.count == LOWER_BOUND_COUNT

    @property
    def key(self) -> tuple[Sex, AgeGroup, ParentFilter]:
        return (self.sex, self.age_group, self.parent_filter)


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


@dataclass(frozen=True)
class AudienceSnapshot:
    """All cells collected for one country in one pass.

    A complete snapshot holds 7 age groups x 2 sexes x 2 filters = 28 cells.
    Partial snapshots are representable (collection can fail per cell); use
    :meth:`is_complete` / :meth:`is_complete_for` before deriving indicators.
    """

    country: CountryRef
    cells: tuple[AudienceCell, ...]
    collected_at: datetime
    _by_key: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_key = {}
        for cell in self.cells:
            if cell.country.iso2 != self.country.iso2:
                raise ValueError(f"cell for {cell.country.iso2} in snapshot for {self.country.iso2}")
            if cell.key in by_key:
                raise ValueError(f"duplicate cell {cell.key} in snapshot for {self.country.iso2}")
            by_key[cell.key] = cell
        object.__setattr__(self, "_by_key", by_key)

    def cell(self, sex: Sex, group: AgeGroup, parent_filter: ParentFilter) -> AudienceCell | None:
        return self._by_key.get((sex, group, parent_filter))

    def cells_for(self, sex: Sex) -> tuple[AudienceCell, ...]:
        return tuple(c for c in self.cells if c.sex == sex)

    def is_complete_for(self, sex: Sex) -> bool:
        return all(
            self.cell(sex, g, f) is not None
            for g in AGE_GRID
            for f in ParentFilter
        )

    def is_complete(self) -> bool:
        return all(self.is_complete_for(sex) for sex in Sex)


@dataclass(frozen=True)
class FertilitySchedule:
    """Per-age-group fertility proxy rates for one (country, sex).

    Rates are parents-with-infant over total audience, one per age group in
    grid order. A rate above 1 can only come from inconsistent upstream
    counts; it is admitted but flagged so the data error stays visible.
    """

    country: CountryRef
    sex: Sex
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rates) != N_AGE_GROUPS:
            raise ValueError(f"schedule needs {N_AGE_GROUPS} rates, got {len(self.rates)}")
        for group, rate in zip(AGE_GRID, self.rates):
            if not rate >= 0.0:
                raise ValueError(f"rate for {group} must be non-negative, got {rate}")
            if rate > 1.0:
                logger.warning(
                    "%s/%s: rate %.6g for ages %s exceeds 1; numerator larger than exposure",
                    self.country.iso2, self.sex.value, rate, group,
                )
