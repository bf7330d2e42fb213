from __future__ import annotations

import math
import random

import pytest

from admac.domain import (
    AGE_GROUP_LOWERS,
    LOWER_BOUND_COUNT,
    AudienceSnapshot,
    FertilitySchedule,
    ParentFilter,
    Sex,
)
from admac.errors import ZeroSchedule
from admac.indicators import (
    IneligibilityReason,
    LowerBoundPolicy,
    MacEstimate,
    estimate_country,
    mac,
)
from admac.ingest import CELL_KEYS
from conftest import make_cell, make_snapshot
from oracles import mac_exact_from_raw_cells, mac_from_raw_cells, mac_weighted_mean

COUNTRY = "IT"


def sched(rates):
    return FertilitySchedule(country=COUNTRY, sex=Sex.FEMALE, rates=tuple(rates))


# --- rates (parents over total) --------------------------------------------

def test_asfr_basics():
    snap = make_snapshot(female_totals=[1_000] * 3 + [2_000] * 4, female_parents=[0, 50, 80, 100, 60, 30, 0])
    assert estimate_country(snap, Sex.FEMALE).mac == mac(sched([0.0, 0.05, 0.08, 0.05, 0.03, 0.015, 0.0]))
    zero = make_snapshot(female_totals=[100_000] * 6 + [0], female_parents=[5_000] * 6 + [0])
    assert estimate_country(zero, Sex.FEMALE).ineligibility_reason is IneligibilityReason.ZERO_EXPOSURE


def test_asfr_above_one_admitted_with_warning(caplog):
    parents = [5_000] * 7
    parents[2] = 150_000  # ages 25-29: more parents than people
    snap = make_snapshot(female_totals=[100_000] * 7, female_parents=parents)
    with caplog.at_level("WARNING"):
        est = estimate_country(snap, Sex.FEMALE)
    assert est.eligible
    assert [r.getMessage() for r in caplog.records if "exceeds 1" in r.getMessage()] == [
        "IT/female: rate 1.5 for ages 25-29 exceeds 1; numerator larger than exposure"
    ]
    assert est.mac == mac(sched([0.05, 0.05, 1.5, 0.05, 0.05, 0.05, 0.05]))


# --- schedules -----------------------------------------------------------

def test_schedule_from_snapshot_divides_cellwise():
    rng = random.Random(1)
    totals = [rng.randint(10_000, 500_000) for _ in range(7)]
    parents = [rng.randint(100, 9_000) for _ in range(7)]
    snap = make_snapshot(female_totals=totals, female_parents=parents)
    assert estimate_country(snap, Sex.FEMALE).mac == mac(sched([p / t for p, t in zip(parents, totals)]))


def test_schedule_from_incomplete_snapshot_raises():
    snap = make_snapshot()
    partial = AudienceSnapshot(
        country=snap.country,
        cells={k: c for k, c in snap.cells.items() if not (k[0] is Sex.FEMALE and k[1] == 30)},
    )
    est = estimate_country(partial, Sex.FEMALE)
    assert est.ineligibility_reason is IneligibilityReason.INCOMPLETE_SNAPSHOT
    # the other sex is untouched
    assert estimate_country(partial, Sex.MALE).eligible


# --- mac -------------------------------------------------------------------

def test_mac_uniform_is_exactly_center():
    for value in (1.0, 0.5, 0.05, 0.125):
        assert mac(sched([value] * 7)) == 32.5


def test_mac_single_group_is_its_midpoint():
    # every band's midpoint, 15-19 to 45-49, each alone carrying the rate
    for index, midpoint in enumerate([17.5, 22.5, 27.5, 32.5, 37.5, 42.5, 47.5]):
        rates = [0.0] * 7
        rates[index] = 0.07
        assert mac(sched(rates)) == midpoint, AGE_GROUP_LOWERS[index]


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
        value = estimate_country(snap, Sex.MALE).mac
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


def test_estimate_holds_a_finite_mac_or_a_reason_and_is_eligible_when_it_holds_no_reason():
    reason = IneligibilityReason.ZERO_SCHEDULE
    assert MacEstimate._fields == ("country", "sex", "mac", "ineligibility_reason")
    assert MacEstimate(COUNTRY, Sex.MALE, 31.5) == (COUNTRY, Sex.MALE, 31.5, None)
    assert MacEstimate(COUNTRY, Sex.MALE, 31.5).eligible is True
    assert MacEstimate(COUNTRY, Sex.MALE, None, reason).eligible is False
    for mac_value, why in [(None, None), (31.5, reason), (math.nan, None), (math.inf, None), (math.nan, reason)]:
        with pytest.raises(ValueError):
            MacEstimate(COUNTRY, Sex.MALE, mac_value, why)
    with pytest.raises(AttributeError):
        MacEstimate(COUNTRY, Sex.MALE, 31.5).eligible = False


def test_clean_snapshot_yields_mac():
    snap = make_snapshot()
    est = estimate_country(snap, Sex.FEMALE)
    assert est.eligible and est.ineligibility_reason is None
    assert est.mac == mac(sched([5_000 / 100_000] * 7))
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
        cells={k: c for k, c in snap.cells.items() if not (k[0] is Sex.FEMALE and k[1] == 45)},
    )
    est = estimate_country(partial, Sex.FEMALE)
    assert not est.eligible
    assert est.ineligibility_reason is IneligibilityReason.INCOMPLETE_SNAPSHOT


def test_lower_bound_check_runs_before_completeness():
    snap = make_snapshot(female_parents=[20] + [5000] * 6)
    partial = AudienceSnapshot(
        country=snap.country,
        cells={k: c for k, c in snap.cells.items() if not (k[0] is Sex.FEMALE and k[1] == 45)},
    )
    est = estimate_country(partial, Sex.FEMALE)
    assert est.ineligibility_reason is IneligibilityReason.LOWER_BOUND_CELL


def test_policy_given_as_text_means_what_it_says():
    snap = make_snapshot(female_totals=[20] + [100_000] * 6)
    for policy in ("any", LowerBoundPolicy.ANY):
        est = estimate_country(snap, Sex.FEMALE, policy)
        assert est.ineligibility_reason is IneligibilityReason.LOWER_BOUND_CELL, policy
    for policy in ("parents-only", LowerBoundPolicy.PARENTS_ONLY):
        assert estimate_country(snap, Sex.FEMALE, policy).eligible, policy
    with pytest.raises(ValueError):
        estimate_country(snap, Sex.FEMALE, "none")


# --- reason precedence -------------------------------------------------------

def _without(snap, sex, cells):
    """`snap` minus the (age lower, filter) cells of `sex`."""
    kept = {k: c for k, c in snap.cells.items() if not (k[0] is sex and (k[1], k[2]) in cells)}
    return AudienceSnapshot(country=snap.country, cells=kept)


ALL, PARENTS = ParentFilter.ALL, ParentFilter.PARENTS_0_12M


@pytest.mark.parametrize(
    "totals, parents, missing, policy, reason",
    [
        # a zero total in any group with both cells beats a missing cell in another
        ([100_000] * 3 + [0] + [100_000] * 3, None, {(45, ALL)}, "any", "zero_exposure"),
        ([100_000] * 3 + [0] + [100_000] * 3, None, {(15, PARENTS)}, "parents-only", "zero_exposure"),
        # a floor cell the policy counts beats a missing cell
        (None, [20] + [5_000] * 6, {(45, PARENTS)}, "parents-only", "lower_bound_cell"),
        ([20] + [100_000] * 6, None, {(45, ALL)}, "any", "lower_bound_cell"),
        # a floor total the policy ignores leaves the missing cell to decide
        ([20] + [100_000] * 6, None, {(45, ALL)}, "parents-only", "incomplete_snapshot"),
        # a zero total whose parent cell is missing is a missing cell, not zero exposure
        ([100_000] * 3 + [0] + [100_000] * 3, None, {(30, PARENTS)}, "any", "incomplete_snapshot"),
        # a floor total beats a zero total only when the policy counts it
        ([20] + [0] + [100_000] * 5, None, set(), "any", "lower_bound_cell"),
        ([20] + [0] + [100_000] * 5, None, set(), "parents-only", "zero_exposure"),
        # zero exposure and a missing cell both beat an all-zero schedule
        ([0] + [100_000] * 6, [0] * 7, set(), "any", "zero_exposure"),
        (None, [0] * 7, {(45, ALL)}, "any", "incomplete_snapshot"),
    ],
)
def test_reason_precedence_table(totals, parents, missing, policy, reason):
    snap = _without(make_snapshot(female_totals=totals, female_parents=parents), Sex.FEMALE, missing)
    est = estimate_country(snap, Sex.FEMALE, LowerBoundPolicy(policy))
    assert est.ineligibility_reason is IneligibilityReason(reason)
    assert not est.eligible and est.mac is None
    assert estimate_country(snap, Sex.MALE, LowerBoundPolicy(policy)).eligible


def _oracle_reason(counts, policy):
    """The documented precedence, from one sex's {(age lower, filter): count}."""
    counted = [n for (_, flt), n in counts.items() if policy is LowerBoundPolicy.ANY or flt is PARENTS]
    if LOWER_BOUND_COUNT in counted:
        return IneligibilityReason.LOWER_BOUND_CELL
    if any(counts.get((g, ALL)) == 0 and (g, PARENTS) in counts for g in AGE_GROUP_LOWERS):
        return IneligibilityReason.ZERO_EXPOSURE
    if len(counts) < 2 * len(AGE_GROUP_LOWERS):
        return IneligibilityReason.INCOMPLETE_SNAPSHOT
    if not any(counts[(g, PARENTS)] for g in AGE_GROUP_LOWERS):
        return IneligibilityReason.ZERO_SCHEDULE
    return None


def _random_snapshot(rng):
    """Cells with missing, zero and floor counts mixed in, inserted in random order."""
    p_missing, p_floor, p_zero = (rng.choice((0.0, 0.02, 0.1)) for _ in range(3))
    counts = {sex: {} for sex in Sex}
    cells = []
    for sex in Sex:
        no_parents = rng.random() < 0.1
        for lower in AGE_GROUP_LOWERS:
            for flt in ParentFilter:
                if rng.random() < p_missing:
                    continue
                draw = rng.random()
                if draw < p_floor:
                    count = LOWER_BOUND_COUNT
                elif draw < p_floor + p_zero or (no_parents and flt is PARENTS):
                    count = 0
                elif flt is ALL:
                    count = rng.randint(10_000, 900_000)
                else:
                    count = rng.randint(LOWER_BOUND_COUNT + 1, 9_000)
                counts[sex][(lower, flt)] = count
                cells.append(((sex, lower, flt), make_cell(count)))
    rng.shuffle(cells)
    return AudienceSnapshot(country=COUNTRY, cells=dict(cells)), counts


def test_reasons_and_macs_match_oracle_on_random_snapshots():
    rng = random.Random(24)
    seen = {policy: [] for policy in LowerBoundPolicy}
    for _ in range(2_000):
        snap, counts = _random_snapshot(rng)
        in_key_order = AudienceSnapshot(COUNTRY, {k: snap.cells[k] for k in CELL_KEYS if k in snap.cells})
        for sex in Sex:
            for policy in LowerBoundPolicy:
                est = estimate_country(snap, sex, policy)
                assert estimate_country(in_key_order, sex, policy) == est
                expected = _oracle_reason(counts[sex], policy)
                assert est.ineligibility_reason is expected, (counts[sex], policy)
                assert est.eligible is (expected is None)
                seen[policy].append(expected)
                if expected is None:
                    parents = [counts[sex][(g, PARENTS)] for g in AGE_GROUP_LOWERS]
                    totals = [counts[sex][(g, ALL)] for g in AGE_GROUP_LOWERS]
                    oracle = mac_exact_from_raw_cells(parents, totals)
                    assert abs(est.mac - oracle) <= 2 * math.ulp(oracle), (est.mac, oracle)
    # every outcome is drawn often enough to be checked under both policies
    for outcomes in seen.values():
        for outcome in (None, *IneligibilityReason):
            assert outcomes.count(outcome) >= 100, outcome
