from __future__ import annotations

import random

import pytest

from admac.domain import (
    AudienceSnapshot,
    CountryRef,
    FertilitySchedule,
    Sex,
)
from admac.errors import IncompleteSnapshot, ZeroExposure, ZeroSchedule
from admac.indicators import (
    IneligibilityReason,
    LowerBoundPolicy,
    asfr,
    estimate_country,
    mac,
    schedule_from_snapshot,
)
from conftest import make_snapshot
from oracles import mac_from_raw_cells, mac_weighted_mean

COUNTRY = CountryRef(iso2="IT")


def sched(rates):
    return FertilitySchedule(country=COUNTRY, sex=Sex.FEMALE, rates=tuple(rates))


# --- asfr ----------------------------------------------------------------

def test_asfr_basics():
    assert asfr(0, 1000) == 0.0
    assert asfr(50, 1000) == 0.05
    with pytest.raises(ZeroExposure):
        asfr(20, 0)
    with pytest.raises(ValueError):
        asfr(-1, 10)


def test_asfr_above_one_admitted_with_warning(caplog):
    assert asfr(1500, 1000) == 1.5
    parents = [5_000] * 7
    parents[2] = 150_000  # ages 25-29: more parents than people
    snap = make_snapshot(female_totals=[100_000] * 7, female_parents=parents)
    with caplog.at_level("WARNING"):
        est = estimate_country(snap, Sex.FEMALE)
    assert est.eligible
    assert [r.getMessage() for r in caplog.records if "exceeds 1" in r.getMessage()] == [
        "IT/female: rate 1.5 for ages 25-29 exceeds 1; numerator larger than exposure"
    ]


# --- schedules -----------------------------------------------------------

def test_schedule_from_snapshot_divides_cellwise():
    rng = random.Random(1)
    totals = [rng.randint(10_000, 500_000) for _ in range(7)]
    parents = [rng.randint(100, 9_000) for _ in range(7)]
    snap = make_snapshot(female_totals=totals, female_parents=parents)
    schedule = schedule_from_snapshot(snap, Sex.FEMALE)
    assert schedule.rates == tuple(p / t for p, t in zip(parents, totals))


def test_schedule_from_incomplete_snapshot_raises():
    snap = make_snapshot()
    partial = AudienceSnapshot(
        country=snap.country,
        cells=tuple(c for c in snap.cells if not (c.sex is Sex.FEMALE and c.age_group.lower == 30)),
    )
    with pytest.raises(IncompleteSnapshot, match="30-34"):
        schedule_from_snapshot(partial, Sex.FEMALE)
    # the other sex is untouched
    schedule_from_snapshot(partial, Sex.MALE)


# --- mac -------------------------------------------------------------------

def test_mac_uniform_is_exactly_center():
    for value in (1.0, 0.5, 0.05, 0.125):
        assert mac(sched([value] * 7)) == 32.5


def test_mac_single_group_is_its_midpoint():
    rates = [0.0] * 7
    rates[2] = 0.07  # 25-29
    assert mac(sched(rates)) == 27.5


def test_mac_matches_weighted_mean_oracle():
    rates = [0.01, 0.05, 0.10, 0.08, 0.04, 0.01, 0.001]
    expected = mac_weighted_mean(rates, reverse=True)  # arbitrary-order summation
    assert mac(sched(rates)) == pytest.approx(expected, rel=1e-12)


def test_mac_zero_schedule_raises():
    with pytest.raises(ZeroSchedule):
        mac(sched([0.0] * 7))


def test_mac_properties_random_schedules():
    rng = random.Random(2)
    for _ in range(300):
        rates = [rng.uniform(0.0, 0.2) for _ in range(7)]
        rates[rng.randrange(7)] += 1e-4  # keep the sum positive
        value = mac(sched(rates))
        assert 17.5 <= value <= 47.5
        for c in (1e-6, 3.0, 1e6):
            scaled = mac(sched([c * r for r in rates]))
            assert abs(scaled - value) <= 1e-12 * abs(value)


def test_mac_strictly_increases_when_mass_moves_older():
    rng = random.Random(4)
    for _ in range(200):
        rates = [rng.uniform(0.01, 0.2) for _ in range(7)]
        i = rng.randrange(6)
        j = rng.randrange(i + 1, 7)
        delta = rates[i] * 0.5
        shifted = list(rates)
        shifted[i] -= delta
        shifted[j] += delta
        assert mac(sched(shifted)) > mac(sched(rates))


def test_mac_composition_matches_single_pass_oracle():
    rng = random.Random(8)
    for _ in range(1000):
        totals = [rng.randint(1_000, 900_000) for _ in range(7)]
        parents = [rng.randint(21, 900) for _ in range(7)]
        snap = make_snapshot(male_totals=totals, male_parents=parents)
        value = mac(schedule_from_snapshot(snap, Sex.MALE))
        expected = mac_from_raw_cells(parents, totals, reverse=bool(rng.getrandbits(1)))
        assert abs(value - expected) <= 1e-12 * abs(expected)


# --- eligibility -----------------------------------------------------------

def test_one_floored_parent_cell_disqualifies():
    parents = [5000] * 7
    parents[6] = 20
    snap = make_snapshot(female_parents=parents)
    est = estimate_country(snap, Sex.FEMALE)
    assert not est.eligible
    assert est.ineligibility_reason is IneligibilityReason.LOWER_BOUND_CELL
    assert est.mac is None
    # male cells are clean, so the male estimate is unaffected
    assert estimate_country(snap, Sex.MALE).eligible


def test_floored_exposure_cell_honors_policy():
    totals = [100_000] * 7
    totals[0] = 20
    snap = make_snapshot(female_totals=totals)
    strict = estimate_country(snap, Sex.FEMALE, LowerBoundPolicy.ANY)
    assert not strict.eligible
    assert strict.ineligibility_reason is IneligibilityReason.LOWER_BOUND_CELL
    relaxed = estimate_country(snap, Sex.FEMALE, LowerBoundPolicy.PARENTS_ONLY)
    assert relaxed.eligible


def test_clean_snapshot_yields_mac():
    snap = make_snapshot()
    est = estimate_country(snap, Sex.FEMALE)
    assert est.eligible and est.ineligibility_reason is None
    assert est.mac == mac(schedule_from_snapshot(snap, Sex.FEMALE))
    assert 17.5 <= est.mac <= 47.5


def test_zero_parents_reported_as_zero_schedule():
    snap = make_snapshot(female_parents=[0] * 7)
    est = estimate_country(snap, Sex.FEMALE)
    assert not est.eligible
    assert est.ineligibility_reason is IneligibilityReason.ZERO_SCHEDULE


@pytest.mark.parametrize("policy", list(LowerBoundPolicy))
def test_zero_exposure_reported_as_reason(policy):
    # ages 30-34 have neither people nor parents: no rate, so no MAC, but not a failed run
    snap = make_snapshot(
        female_totals=[100_000] * 3 + [0] + [100_000] * 3, female_parents=[5_000] * 3 + [0] + [5_000] * 3
    )
    est = estimate_country(snap, Sex.FEMALE, policy)
    assert not est.eligible and est.mac is None
    assert est.ineligibility_reason is IneligibilityReason.ZERO_EXPOSURE
    assert estimate_country(snap, Sex.MALE, policy).eligible


def test_incomplete_snapshot_reported_as_reason():
    snap = make_snapshot()
    partial = AudienceSnapshot(
        country=snap.country,
        cells=tuple(c for c in snap.cells if not (c.sex is Sex.FEMALE and c.age_group.lower == 45)),
    )
    est = estimate_country(partial, Sex.FEMALE)
    assert not est.eligible
    assert est.ineligibility_reason is IneligibilityReason.INCOMPLETE_SNAPSHOT


def test_lower_bound_check_runs_before_completeness():
    snap = make_snapshot(female_parents=[20] + [5000] * 6)
    partial = AudienceSnapshot(
        country=snap.country,
        cells=tuple(c for c in snap.cells if not (c.sex is Sex.FEMALE and c.age_group.lower == 45)),
    )
    est = estimate_country(partial, Sex.FEMALE)
    assert est.ineligibility_reason is IneligibilityReason.LOWER_BOUND_CELL
