"""Reference MAC tables, the country->continent mapping, and the join that
produces validation pairs."""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .domain import Continent, CountryRef, Sex
from .errors import ParseError
from .fileio import read_table

logger = logging.getLogger(__name__)

# Reference MACs outside this window are treated as data errors and skipped.
MAC_MIN = 10.0
MAC_MAX = 60.0

TRUTH_COLUMNS = ["iso2", "sex", "mac", "period"]
CONTINENT_COLUMNS = ["iso2", "continent"]


class GroundTruthRecord(NamedTuple):
    country: CountryRef
    sex: Sex
    mac: float
    period: str


class ValidationPair(NamedTuple):
    """A country's platform-derived MAC joined with its reference MAC."""

    country: CountryRef
    sex: Sex
    mac_fb: float
    mac_truth: float


class JoinResult(NamedTuple):
    pairs: list[ValidationPair]
    unmatched_estimates: list[tuple[CountryRef, Sex, float]]
    unmatched_truth: list[GroundTruthRecord]
    truth: list[GroundTruthRecord]  # the one record kept per (iso2, sex), matched or not


def load_continent_map(path: str | Path, *, data: bytes | None = None) -> dict[str, Continent]:
    """Bundled-style `iso2,continent` CSV into a lookup dict.

    A second row for one iso2 raises ParseError, since either row could be
    the one meant.
    """
    _, _, rows = read_table(path, CONTINENT_COLUMNS, data=data)
    mapping: dict[str, Continent] = {}
    for lineno, row in rows:
        if len(row) != 2:
            logger.warning("%s:%d: expected 2 fields, got %d; skipped", path, lineno, len(row))
            continue
        iso2, cont = row[0].strip().upper(), row[1].strip()
        if iso2 in mapping:
            raise ParseError(f"{path}: a second row for {iso2}", line=lineno)
        try:
            mapping[iso2] = Continent(cont)
        except ValueError:
            logger.warning("%s:%d: unknown continent %r; skipped", path, lineno, cont)
    return mapping


def load_ground_truth(path: str | Path, *, data: bytes | None = None) -> list[GroundTruthRecord]:
    """Load `iso2,sex,mac,period` reference rows, in file order, duplicates
    included (`join_pairs` resolves them).

    Rows that violate the record invariants (unknown sex, unparseable or
    out-of-range MAC, bad iso2) are reported with their line number and
    skipped; a structurally broken file raises ParseError.
    """
    _, _, rows = read_table(path, TRUTH_COLUMNS, data=data)
    records: list[GroundTruthRecord] = []
    for lineno, row in rows:
        if len(row) != 4:
            logger.warning("%s:%d: expected 4 fields, got %d; skipped", path, lineno, len(row))
            continue
        iso2_raw, sex_raw, mac_raw, period = (f.strip() for f in row)
        iso2 = iso2_raw.upper()
        try:
            country = CountryRef(iso2=iso2)
        except ValueError as exc:
            logger.warning("%s:%d: %s; skipped", path, lineno, exc)
            continue
        try:
            sex = Sex(sex_raw.lower())
        except ValueError:
            logger.warning("%s:%d: unknown sex %r; skipped", path, lineno, sex_raw)
            continue
        try:
            mac = float(mac_raw)
        except ValueError:
            logger.warning("%s:%d: unparseable mac %r; skipped", path, lineno, mac_raw)
            continue
        if not MAC_MIN <= mac <= MAC_MAX:
            logger.warning(
                "%s:%d: mac %.6g outside [%g, %g]; skipped", path, lineno, mac, MAC_MIN, MAC_MAX
            )
            continue
        records.append(GroundTruthRecord(country=country, sex=sex, mac=mac, period=period))
    return records


_YEAR_RE = re.compile(r"(\d{4})")


def _period_sort_key(period: str) -> tuple[int, str]:
    """Latest 4-digit year in the period text, then the text itself."""
    years = _YEAR_RE.findall(period)
    return (max(int(y) for y in years) if years else 0, period)


def _resolve_truth_duplicates(truth: Iterable[GroundTruthRecord]) -> dict[tuple[str, Sex], GroundTruthRecord]:
    resolved: dict[tuple[str, Sex], GroundTruthRecord] = {}
    for rec in truth:
        key = (rec.country.iso2, rec.sex)
        prev = resolved.get(key)
        if prev is None:
            resolved[key] = rec
            continue
        # content-based tiebreak keeps the join permutation-invariant even
        # for byte-equal periods
        keep = max(prev, rec, key=lambda r: (_period_sort_key(r.period), r.mac))
        logger.warning(
            "join ambiguity: duplicate truth rows for (%s, %s); keeping period %r",
            key[0], key[1].value, keep.period,
        )
        resolved[key] = keep
    return resolved


def join_pairs(
    estimates: Sequence[tuple[CountryRef, Sex, float]],
    truth: Sequence[GroundTruthRecord],
) -> JoinResult:
    """Inner join of platform estimates with reference records on (iso2, sex).

    Duplicate truth rows resolve to the most recent period (ties broken on
    content), with a warning; the kept records are `JoinResult.truth`, so a
    caller that shows truth values shows the ones the pairs hold. A second
    estimate for one (iso2, sex) raises ValueError. Every output list is
    ordered by (iso2, sex) and the whole join is invariant under
    permutation of either input.
    """
    est_by_key: dict[tuple[str, Sex], tuple[CountryRef, Sex, float]] = {}
    for est in estimates:
        country, sex, _ = est
        key = (country.iso2, sex)
        if key in est_by_key:
            raise ValueError(f"a second estimate for ({key[0]}, {key[1].value})")
        est_by_key[key] = est
    truth_by_key = _resolve_truth_duplicates(truth)

    pairs: list[ValidationPair] = []
    unmatched_estimates: list[tuple[CountryRef, Sex, float]] = []
    for key in sorted(est_by_key, key=lambda k: (k[0], k[1].value)):
        country, sex, mac_fb = est_by_key[key]
        rec = truth_by_key.get(key)
        if rec is None:
            unmatched_estimates.append(est_by_key[key])
            continue
        pairs.append(
            ValidationPair(country=country, sex=sex, mac_fb=mac_fb, mac_truth=rec.mac)
        )
    kept = [truth_by_key[key] for key in sorted(truth_by_key, key=lambda k: (k[0], k[1].value))]
    unmatched_truth = [rec for rec in kept if (rec.country.iso2, rec.sex) not in est_by_key]
    return JoinResult(pairs, unmatched_estimates, unmatched_truth, kept)
