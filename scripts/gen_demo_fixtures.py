#!/usr/bin/env python3
"""Regenerate the bundled demo dataset (fixtures + ground truth).

The demo covers 21 countries across six continents with plausible audience
magnitudes and age profiles. Three countries (EG, CL, NZ) get a
floor-valued 45-49 parents cell in both sexes so the lower-bound exclusion
path is exercised end to end; a handful of countries are left out of the
ground-truth table so the predict stage has gaps to fill.

Deterministic: same script, same bytes. Run from the repo root after an
editable install:

    python scripts/gen_demo_fixtures.py
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

from admac.domain import AGE_GROUP_LOWERS, GROUP_WIDTH

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "admac" / "data"
COLLECTED_AT = "2024-06-01T00:00:00Z"

# iso2 -> (peak childbearing age for women, female 15-19 audience size)
COUNTRIES = {
    "NG": (26.2, 4_200_000),
    "EG": (26.8, 3_100_000),
    "ZA": (27.8, 1_600_000),
    "KE": (25.9, 1_200_000),
    "IN": (26.9, 18_000_000),
    "JP": (31.4, 1_900_000),
    "TR": (28.1, 2_600_000),
    "IT": (31.9, 1_300_000),
    "FR": (30.5, 1_700_000),
    "DE": (31.1, 1_800_000),
    "ES": (32.1, 1_200_000),
    "PL": (29.4, 1_100_000),
    "US": (29.1, 8_500_000),
    "MX": (27.6, 4_900_000),
    "CA": (30.6, 1_000_000),
    "AU": (30.9, 750_000),
    "NZ": (30.1, 160_000),
    "BR": (27.5, 6_800_000),
    "AR": (29.0, 1_500_000),
    "CL": (29.7, 620_000),
    "CO": (27.3, 1_800_000),
}

# countries whose 45-49 parents cells sit at the platform floor (both sexes)
FLOORED = {"EG", "CL", "NZ"}

# countries deliberately absent from the ground-truth table
NO_TRUTH_FEMALE = {"KE", "TR", "CO"}
NO_TRUTH_MALE = {"KE", "TR", "MX", "PL"}

# relative audience size by age group (young-skewed platform population)
TOTAL_SHAPE = [1.00, 1.06, 1.10, 1.04, 0.95, 0.86, 0.78]

PARENT_RATE_SIGMA = 5.5
PARENT_RATE_LEVEL = {"female": 0.085, "male": 0.072}
MALE_PEAK_SHIFT = 3.2


def parent_rate(midpoint: float, peak: float, level: float) -> float:
    return level * math.exp(-0.5 * ((midpoint - peak) / PARENT_RATE_SIGMA) ** 2)


def computed_mac(parents: list[int], totals: list[int]) -> float:
    rates = [p / t for p, t in zip(parents, totals)]
    mids = [lower + GROUP_WIDTH / 2 for lower in AGE_GROUP_LOWERS]
    return sum(m * r for m, r in zip(mids, rates)) / sum(rates)


def main() -> None:
    rng = random.Random(987)
    fixtures_dir = DATA_DIR / "fixtures"
    fixtures_dir.mkdir(parents=True, exist_ok=True)

    mac_fb: dict[tuple[str, str], float] = {}
    for iso2 in sorted(COUNTRIES):
        peak_f, base = COUNTRIES[iso2]
        rows = []
        for sex in ("female", "male"):
            peak = peak_f if sex == "female" else peak_f + MALE_PEAK_SHIFT + rng.uniform(-0.4, 0.4)
            level = PARENT_RATE_LEVEL[sex]
            sex_scale = 1.0 if sex == "female" else 1.04
            totals = []
            parents = []
            for lower, shape in zip(AGE_GROUP_LOWERS, TOTAL_SHAPE):
                total = int(round(base * sex_scale * shape * rng.uniform(0.96, 1.04)))
                rate = parent_rate(lower + GROUP_WIDTH / 2, peak, level) * rng.uniform(0.92, 1.08)
                count = int(round(total * rate))
                # keep clear of the floor unless this cell is floored on purpose
                count = max(count, 21)
                if iso2 in FLOORED and lower == 45:
                    count = 20
                totals.append(total)
                parents.append(count)
            mac_fb[(iso2, sex)] = computed_mac(parents, totals)
            for lower, total, count in zip(AGE_GROUP_LOWERS, totals, parents):
                upper = lower + GROUP_WIDTH - 1
                rows.append([iso2, sex, lower, upper, "all", total, COLLECTED_AT])
                rows.append([iso2, sex, lower, upper, "parent_of_child_0_12m", count, COLLECTED_AT])
        with open(fixtures_dir / f"{iso2}.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["iso2", "sex", "age_low", "age_high", "parent_filter", "count", "collected_at"])
            writer.writerows(rows)

    truth_rows = []
    for iso2 in sorted(COUNTRIES):
        if iso2 not in NO_TRUTH_FEMALE:
            value = 2.0 + 0.93 * mac_fb[(iso2, "female")] + rng.gauss(0.0, 0.5)
            truth_rows.append([iso2, "female", f"{value:.2f}", "2010-2017"])
        if iso2 not in NO_TRUTH_MALE:
            value = 7.451 + 0.811 * mac_fb[(iso2, "male")] + rng.gauss(0.0, 0.55)
            truth_rows.append([iso2, "male", f"{value:.2f}", "2006-2015"])
    with open(DATA_DIR / "ground_truth.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["iso2", "sex", "mac", "period"])
        writer.writerows(truth_rows)

    print(f"wrote {len(COUNTRIES)} fixtures and {len(truth_rows)} truth rows under {DATA_DIR}")


if __name__ == "__main__":
    main()
