"""Audience snapshots -> MAC estimates.

`estimate_country` alone decides whether a (country, sex) is eligible and,
if not, why; `mac` is the kernel it applies to the eligible ones.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Iterable

from .domain import (
    AGE_GROUP_LOWERS,
    GROUP_WIDTH,
    LOWER_BOUND_COUNT,
    AudienceSnapshot,
    FertilitySchedule,
    ParentFilter,
    Sex,
)
from .errors import ZeroSchedule


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
    """One (country, sex) MAC, or the reason it is ineligible.

    Construction holds the four invariants, else raises ValueError: an
    eligible estimate has a finite `mac` and no reason; an ineligible one
    has a reason and no `mac`.
    """

    __slots__ = ()

    def __new__(
        cls,
        country: str,
        sex: Sex,
        mac: float | None,
        eligible: bool,
        ineligibility_reason: IneligibilityReason | None = None,
    ) -> MacEstimate:
        if eligible and (ineligibility_reason is not None or mac is None or not math.isfinite(mac)):
            raise ValueError(f"an eligible estimate needs a finite mac and no reason, got {mac!r}")
        if not eligible and (ineligibility_reason is None or mac is not None):
            raise ValueError(f"an ineligible estimate needs a reason and no mac, got {mac!r}")
        return tuple.__new__(cls, (country, sex, mac, eligible, ineligibility_reason))


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
    weighted = _kahan_sum((lower + GROUP_WIDTH / 2) * r for lower, r in zip(AGE_GROUP_LOWERS, schedule.rates))
    total = _kahan_sum(schedule.rates)
    if total == 0.0:
        raise ZeroSchedule(f"{schedule.country}/{schedule.sex.value}: all rates are zero")
    return weighted / total


def estimate_country(
    snapshot: AudienceSnapshot,
    sex: Sex,
    lower_bound_policy: LowerBoundPolicy = LowerBoundPolicy.ANY,
) -> MacEstimate:
    """MAC for one (country, sex), or the reason none can be trusted.

    Ineligibility is data, not failure. When several reasons apply, the
    first of these wins:

    1. LOWER_BOUND_CELL: a floor-valued cell that `lower_bound_policy` counts;
    2. ZERO_EXPOSURE: an age group with both cells present and a total of 0;
    3. INCOMPLETE_SNAPSHOT: any of the sex's 14 cells missing;
    4. ZERO_SCHEDULE: no parents in any age group.

    Otherwise each group's rate is parents over total, and the estimate is
    `mac` of that schedule.
    """
    policy = LowerBoundPolicy(lower_bound_policy)
    cells = snapshot.cells
    totals, parents = (
        [cells[sex, g, f].count if (sex, g, f) in cells else None for g in AGE_GROUP_LOWERS]
        for f in (ParentFilter.ALL, ParentFilter.PARENTS_0_12M)
    )
    if LOWER_BOUND_COUNT in (parents + totals if policy is LowerBoundPolicy.ANY else parents):
        reason = IneligibilityReason.LOWER_BOUND_CELL
    elif any(t == 0 and p is not None for t, p in zip(totals, parents)):
        reason = IneligibilityReason.ZERO_EXPOSURE
    elif None in totals or None in parents:
        reason = IneligibilityReason.INCOMPLETE_SNAPSHOT
    elif not any(parents):
        reason = IneligibilityReason.ZERO_SCHEDULE
    else:
        rates = tuple(p / t for p, t in zip(parents, totals))
        value = mac(FertilitySchedule(country=snapshot.country, sex=sex, rates=rates))
        return MacEstimate(country=snapshot.country, sex=sex, mac=value, eligible=True)
    return MacEstimate(country=snapshot.country, sex=sex, mac=None, eligible=False, ineligibility_reason=reason)
