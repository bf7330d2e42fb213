"""Reference MAC tables, the country->continent mapping, and the join that
produces validation pairs."""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .domain import CONTINENTS, Sex, decimal_number, iso2_code
from .errors import ParseError
from .fileio import read_table

logger = logging.getLogger(__name__)

# Reference MACs outside this window are treated as data errors and skipped.
MAC_MIN = 10.0
MAC_MAX = 60.0

TRUTH_COLUMNS = ["iso2", "sex", "mac", "period"]
CONTINENT_COLUMNS = ["iso2", "continent"]


class GroundTruthRecord(NamedTuple):
    country: str
    sex: Sex
    mac: float
    period: str


class ValidationPair(NamedTuple):
    """A country's platform-derived MAC joined with its reference MAC."""

    country: str
    sex: Sex
    mac_fb: float
    mac_truth: float


class JoinResult(NamedTuple):
    pairs: list[ValidationPair]
    unmatched_estimates: list[tuple[str, Sex, float]]
    truth: list[GroundTruthRecord]  # the one record kept per (iso2, sex), matched or not


def _read(parse: Callable[[str], Any], text: str, what: str) -> Any:
    """`parse(text)`; the ValueError it raises becomes one naming `text` as `what`."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{what} {text!r}") from None


def load_continent_map(path: str | Path, *, data: bytes | None = None) -> dict[str, str]:
    """Bundled-style `iso2,continent` CSV into a lookup dict.

    A row with a wrong field count, an iso2 that is not two ASCII letters or
    an unknown continent is skipped with one warning naming its line and the
    first of these. A second row for one iso2, whatever its continent,
    raises ParseError, since either row could be the one meant.
    """
    rows = read_table(path, CONTINENT_COLUMNS, data=data)
    mapping: dict[str, str] = {}
    for lineno, row in rows:
        try:
            if len(row) != 2:
                raise ValueError(f"expected 2 fields, got {len(row)}")
            iso2 = iso2_code(row[0].strip())
            if iso2 in mapping:
                raise ParseError(f"{path}: a second row for {iso2}", line=lineno)
            continent = row[1].strip()
            if continent not in CONTINENTS:
                raise ValueError(f"unknown continent {continent!r}")
            mapping[iso2] = continent
        except ValueError as exc:
            logger.warning("%s:%d: %s; skipped", path, lineno, exc)
    return mapping


def load_ground_truth(path: str | Path, *, data: bytes | None = None) -> list[GroundTruthRecord]:
    """Load `iso2,sex,mac,period` reference rows, in file order, duplicates
    included (`join_pairs` resolves them).

    A row with a wrong field count, a bad iso2, an unknown sex or an
    unparseable or out-of-range MAC is skipped with one warning naming its
    line and the first of these; a structurally broken file raises ParseError.
    """
    rows = read_table(path, TRUTH_COLUMNS, data=data)
    records: list[GroundTruthRecord] = []
    for lineno, row in rows:
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            iso2, sex_raw, mac_raw, period = (f.strip() for f in row)
            country = iso2_code(iso2)
            sex = _read(lambda text: Sex(text.lower()), sex_raw, "unknown sex")
            mac = _read(decimal_number, mac_raw, "unparseable mac")
            if not MAC_MIN <= mac <= MAC_MAX:
                raise ValueError(f"mac {mac:.6g} outside [{MAC_MIN:g}, {MAC_MAX:g}]")
        except ValueError as exc:
            logger.warning("%s:%d: %s; skipped", path, lineno, exc)
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
        key = (rec.country, rec.sex)
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
    estimates: Sequence[tuple[str, Sex, float]],
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
    est_by_key: dict[tuple[str, Sex], tuple[str, Sex, float]] = {}
    for est in estimates:
        country, sex, _ = est
        key = (country, sex)
        if key in est_by_key:
            raise ValueError(f"a second estimate for ({key[0]}, {key[1].value})")
        est_by_key[key] = est
    truth_by_key = _resolve_truth_duplicates(truth)

    pairs: list[ValidationPair] = []
    unmatched_estimates: list[tuple[str, Sex, float]] = []
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
    return JoinResult(pairs, unmatched_estimates, kept)
