"""Seeded workload inputs for the benchmark: a synthetic world and the
expected outcome of the bundled demo.

The world follows the logic of `scripts/gen_demo_fixtures.py` (same age
profile, parent-rate curve, floor rule and truth regressions) over every
country of the bundled `continents.csv` that the platform serves. Shares
are drawn as exact counts, not per-country coin flips, so every seed
gives the pipeline the same amount of work and only the values differ.

Stdlib only: the benchmark process never imports admac, so the program's
import cost is paid by the measured child processes alone.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

CELL_COLUMNS = ["iso2", "sex", "age_low", "age_high", "parent_filter", "count", "collected_at"]
SEXES = ("female", "male")
AGE_LOWERS = (15, 20, 25, 30, 35, 40, 45)
FLOOR = 20
COLLECTED_AT = "2024-06-01T00:00:00Z"
# Mirrors admac.ingest.DEFAULT_EXCLUDED: a world country the program skips
# would show as a country-count mismatch in the output check.
EXCLUDED = frozenset({"CU", "IR", "KP", "SY", "SD"})

TOTAL_SHAPE = [1.00, 1.06, 1.10, 1.04, 0.95, 0.86, 0.78]
PARENT_RATE_SIGMA = 5.5
PARENT_RATE_LEVEL = {"female": 0.085, "male": 0.072}
MALE_PEAK_SHIFT = 3.2
TRUTH_MODEL = {"female": (2.0, 0.93, 0.5), "male": (7.451, 0.811, 0.55)}
TRUTH_PERIOD = {"female": "2010-2017", "male": "2006-2015"}

# `admac all --seed` value of the demo workload.
DEMO_SEED = 42

DEFAULT_FLOOR_SHARE = 0.15
DEFAULT_REFERENCE_COVERAGE = 0.60


def world_countries(continents_csv: Path) -> list[str]:
    with open(continents_csv, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return sorted(row[0].strip().upper() for row in rows[1:] if row and row[0].strip().upper() not in EXCLUDED)


def _parent_rate(midpoint: float, peak: float, level: float) -> float:
    return level * math.exp(-0.5 * ((midpoint - peak) / PARENT_RATE_SIGMA) ** 2)


def _mac(parents: list[int], totals: list[int]) -> float:
    rates = [p / t for p, t in zip(parents, totals)]
    mids = [lower + 2.5 for lower in AGE_LOWERS]
    return sum(m * r for m, r in zip(mids, rates)) / sum(rates)


def world_pair_count(n_countries: int) -> int:
    """Validation pairs per sex in a default world of this size, for any seed."""
    eligible = n_countries - round(DEFAULT_FLOOR_SHARE * n_countries)
    return round(DEFAULT_REFERENCE_COVERAGE * eligible)


def generate_world(
    out_dir: Path,
    continents_csv: Path,
    seed: int,
    n_countries: int | None = None,
    floor_share: float = DEFAULT_FLOOR_SHARE,
    coverage: float = DEFAULT_REFERENCE_COVERAGE,
) -> dict:
    """Write fixtures/<ISO2>.csv and truth.csv under out_dir; return the
    expected pipeline outcome (also written to expected.json)."""
    rng = random.Random(seed)
    pool = world_countries(continents_csv)
    if n_countries is None:
        n_countries = len(pool)
    if not 1 <= n_countries <= len(pool):
        raise ValueError(f"country count must be in 1..{len(pool)}, got {n_countries}")
    countries = sorted(rng.sample(pool, n_countries))
    floored = set(rng.sample(countries, round(floor_share * n_countries)))
    eligible = [c for c in countries if c not in floored]

    fixtures = out_dir / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    mac_fb: dict[tuple[str, str], float] = {}
    for iso2 in countries:
        peak_f = rng.uniform(25.5, 32.5)
        base = math.exp(rng.uniform(math.log(1e5), math.log(2e7)))
        rows = []
        for sex in SEXES:
            peak = peak_f if sex == "female" else peak_f + MALE_PEAK_SHIFT + rng.uniform(-0.4, 0.4)
            sex_scale = 1.0 if sex == "female" else 1.04
            totals, parents = [], []
            for lower, shape in zip(AGE_LOWERS, TOTAL_SHAPE):
                total = int(round(base * sex_scale * shape * rng.uniform(0.96, 1.04)))
                rate = _parent_rate(lower + 2.5, peak, PARENT_RATE_LEVEL[sex]) * rng.uniform(0.92, 1.08)
                count = max(int(round(total * rate)), FLOOR + 1)
                if iso2 in floored and lower == 45:
                    count = FLOOR
                totals.append(total)
                parents.append(count)
            mac_fb[(iso2, sex)] = _mac(parents, totals)
            for lower, total, count in zip(AGE_LOWERS, totals, parents):
                rows.append([iso2, sex, lower, lower + 4, "all", total, COLLECTED_AT])
                rows.append([iso2, sex, lower, lower + 4, "parent_of_child_0_12m", count, COLLECTED_AT])
        with open(fixtures / f"{iso2}.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CELL_COLUMNS)
            writer.writerows(rows)

    truth_rows = []
    expected = {"countries": countries, "eligible": {}, "pairs": {}, "predictions": {}}
    for sex in SEXES:
        covered = set(rng.sample(eligible, round(coverage * len(eligible))))
        covered |= set(rng.sample(sorted(floored), round(coverage * len(floored))))
        intercept, slope, sigma = TRUTH_MODEL[sex]
        for iso2 in sorted(covered):
            value = intercept + slope * mac_fb[(iso2, sex)] + rng.gauss(0.0, sigma)
            truth_rows.append([iso2, sex, f"{value:.2f}", TRUTH_PERIOD[sex]])
        pairs = sum(1 for c in eligible if c in covered)
        expected["eligible"][sex] = len(eligible)
        expected["pairs"][sex] = pairs
        expected["predictions"][sex] = len(eligible) - pairs
    truth_rows.sort()
    with open(out_dir / "truth.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["iso2", "sex", "mac", "period"])
        writer.writerows(truth_rows)
    (out_dir / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return expected


def data_rows(path: Path) -> list[list[str]]:
    """Rows of a CSV after its `#` comment lines and header."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return rows[1:]


def demo_expectation(data_dir: Path) -> dict:
    """Expected outcome of `admac all` on the bundled demo data, worked out
    from the bundled files alone: a sex is ineligible when any of its cells
    sits at the floor, and eligible estimates without a truth row are
    predicted."""
    countries = sorted(p.stem.upper() for p in (data_dir / "fixtures").glob("*.csv"))
    floored = {sex: set() for sex in SEXES}
    for iso2 in countries:
        for row in data_rows(data_dir / "fixtures" / f"{iso2}.csv"):
            if int(row[5]) == FLOOR:
                floored[row[1]].add(iso2)
    truth = {(row[0], row[1]) for row in data_rows(data_dir / "ground_truth.csv")}
    expected = {"countries": countries, "eligible": {}, "pairs": {}, "predictions": {}}
    for sex in SEXES:
        eligible = [c for c in countries if c not in floored[sex]]
        pairs = sum(1 for c in eligible if (c, sex) in truth)
        expected["eligible"][sex] = len(eligible)
        expected["pairs"][sex] = pairs
        expected["predictions"][sex] = len(eligible) - pairs
    return expected


def read_world_counts(world_dir: Path) -> dict[tuple[str, str, int, str], int]:
    """(iso2, sex, age_low, parent_filter) -> count, for the fake upstream."""
    counts = {}
    for path in sorted((world_dir / "fixtures").glob("*.csv")):
        for iso2, sex, age_low, _, flt, count, _ in data_rows(path):
            counts[(iso2, sex, int(age_low), flt)] = int(count)
    return counts
