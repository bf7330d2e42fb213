"""Audience snapshots -> fertility schedules -> MAC, with the lower-bound
eligibility rule applied."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import Iterable

from .domain import (
    AGE_GRID,
    AudienceSnapshot,
    FertilitySchedule,
    ParentFilter,
    Sex,
)
from .errors import IncompleteSnapshot, ZeroExposure, ZeroSchedule


class IneligibilityReason(str, Enum):
    LOWER_BOUND_CELL = "lower_bound_cell"
    INCOMPLETE_SNAPSHOT = "incomplete_snapshot"
    ZERO_SCHEDULE = "zero_schedule"
    ZERO_EXPOSURE = "zero_exposure"


class LowerBoundPolicy(str, Enum):
    """Which floor-valued cells disqualify a country.

    ANY: any of the sex's 14 cells at the floor taints numerator or
    denominator (conservative default). PARENTS_ONLY: only floor-valued
    parent cells disqualify.
    """

    ANY = "any"
    PARENTS_ONLY = "parents-only"


class MacEstimate(namedtuple("MacEstimate", "country sex mac eligible ineligibility_reason")):
    """One (country, sex) MAC, or the reason it is ineligible."""

    __slots__ = ()

    def __new__(
        cls,
        country: object,
        sex: Sex,
        mac: float | None,
        eligible: bool,
        ineligibility_reason: IneligibilityReason | None = None,
    ) -> MacEstimate:
        if eligible and ineligibility_reason is not None:
            raise ValueError("eligible estimate cannot carry an ineligibility reason")
        if not eligible and ineligibility_reason is None:
            raise ValueError("ineligible estimate must carry a reason")
        return tuple.__new__(cls, (country, sex, mac, eligible, ineligibility_reason))


def asfr(parents_count: int, total_count: int) -> float:
    """Fertility-proxy rate: parents of an infant over the exposed audience.

    A value above 1 is possible only through inconsistent counts; it is
    returned as-is, not clamped (`FertilitySchedule` logs it).
    """
    if parents_count < 0:
        raise ValueError(f"parents_count must be non-negative, got {parents_count}")
    if total_count < 0:
        raise ValueError(f"total_count must be non-negative, got {total_count}")
    if total_count == 0:
        raise ZeroExposure("exposure population is zero")
    return parents_count / total_count


def schedule_from_snapshot(snapshot: AudienceSnapshot, sex: Sex) -> FertilitySchedule:
    """Per-age-group rates from a snapshot's parent and total cells."""
    rates = []
    missing = []
    for group in AGE_GRID:
        parents = snapshot.cell(sex, group, ParentFilter.PARENTS_0_12M)
        total = snapshot.cell(sex, group, ParentFilter.ALL)
        if parents is None or total is None:
            missing.append(str(group))
            continue
        rates.append(asfr(parents.count, total.count))
    if missing:
        raise IncompleteSnapshot(
            f"{snapshot.country.iso2}/{sex.value}: missing cells for ages {', '.join(missing)}"
        )
    return FertilitySchedule(country=snapshot.country, sex=sex, rates=tuple(rates))


def _kahan_sum(values: Iterable[float]) -> float:
    """Compensated summation; the order of `values` is preserved."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def mac(schedule: FertilitySchedule) -> float:
    """Mean age at childbearing: rate-weighted mean of group midpoints.

    Sums run in ascending age order with Kahan compensation so the result
    is bit-identical across platforms. The value always lands in
    [17.5, 47.5], the midpoints of the first and last groups.
    """
    weighted = _kahan_sum(g.midpoint * r for g, r in zip(AGE_GRID, schedule.rates))
    total = _kahan_sum(schedule.rates)
    if total == 0.0:
        raise ZeroSchedule(
            f"{schedule.country.iso2}/{schedule.sex.value}: all rates are zero"
        )
    return weighted / total


def estimate_country(
    snapshot: AudienceSnapshot,
    sex: Sex,
    lower_bound_policy: LowerBoundPolicy = LowerBoundPolicy.ANY,
) -> MacEstimate:
    """MAC for one (country, sex), or the reason none can be trusted.

    Ineligibility is data, not failure: floor-valued cells, incomplete
    snapshots, all-zero schedules and an age group whose exposure count is
    zero come back as ineligible estimates carrying their reason.
    """
    cells = snapshot.cells_for(sex)
    if lower_bound_policy is LowerBoundPolicy.ANY:
        relevant = cells
    else:
        relevant = tuple(c for c in cells if c.parent_filter is ParentFilter.PARENTS_0_12M)
    if any(c.at_lower_bound for c in relevant):
        return MacEstimate(
            country=snapshot.country,
            sex=sex,
            mac=None,
            eligible=False,
            ineligibility_reason=IneligibilityReason.LOWER_BOUND_CELL,
        )
    try:
        value = mac(schedule_from_snapshot(snapshot, sex))
    except IncompleteSnapshot:
        reason = IneligibilityReason.INCOMPLETE_SNAPSHOT
    except ZeroSchedule:
        reason = IneligibilityReason.ZERO_SCHEDULE
    except ZeroExposure:
        reason = IneligibilityReason.ZERO_EXPOSURE
    else:
        return MacEstimate(country=snapshot.country, sex=sex, mac=value, eligible=True)
    return MacEstimate(country=snapshot.country, sex=sex, mac=None, eligible=False, ineligibility_reason=reason)
