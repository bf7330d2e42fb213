"""Audience collection: live ads-reach API client, fixture replay, per-day
cache, retry with exponential backoff and bounded request concurrency.

Fixture files and cache files share one CSV schema
(`iso2,sex,age_low,age_high,parent_filter,count,collected_at`), so a
recorded live session can be replayed as a fixture unchanged.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import requests

from .domain import (
    AgeGroup,
    AudienceCell,
    AudienceSnapshot,
    CountryRef,
    ParentFilter,
    Sex,
    age_grid,
    utc_now,
)
from .errors import (
    AuthError,
    ConfigError,
    ExcludedCountry,
    FixtureMiss,
    MalformedResponse,
    ParseError,
    RateLimited,
    SnapshotIncomplete,
)
from .fileio import atomic_write_text

logger = logging.getLogger(__name__)

CELL_COLUMNS = ["iso2", "sex", "age_low", "age_high", "parent_filter", "count", "collected_at"]

# The platform does not expose audience data for these countries.
DEFAULT_EXCLUDED = frozenset({"CU", "IR", "KP", "SY", "SD"})

TOKEN_ENV_VAR = "ADS_API_TOKEN"


class Mode(str, Enum):
    LIVE = "live"
    FIXTURE = "fixture"


@dataclass(frozen=True)
class QueryDescriptor:
    """One reach query; its canonical serialization doubles as a cache key."""

    country_iso2: str
    sex: Sex
    age_min: int
    age_max: int
    parent_filter: ParentFilter

    def __post_init__(self) -> None:
        group = AgeGroup(self.age_min)  # raises if not a canonical lower bound
        if self.age_max != group.upper:
            raise ValueError(
                f"(age_min, age_max) must match a 5-year group, got ({self.age_min}, {self.age_max})"
            )

    @property
    def age_group(self) -> AgeGroup:
        return AgeGroup(self.age_min)

    def canonical(self) -> str:
        """Deterministic, fixed-field-order serialization."""
        return (
            f"iso2={self.country_iso2}&sex={self.sex.value}"
            f"&age_min={self.age_min}&age_max={self.age_max}"
            f"&parent_filter={self.parent_filter.value}"
        )

    def cache_key(self, day: date) -> str:
        return f"{self.canonical()}&date={day.isoformat()}"


@dataclass(frozen=True)
class CollectorConfig:
    mode: Mode = Mode.FIXTURE
    fixture_dir: Path | None = None
    cache_dir: Path | None = None
    max_in_flight: int = 4
    base_backoff: float = 0.5
    max_retries: int = 3
    excluded_countries: frozenset[str] = DEFAULT_EXCLUDED

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.mode is Mode.FIXTURE and self.fixture_dir is None:
            raise ConfigError("fixture mode needs fixture_dir")
        if self.mode is Mode.LIVE and self.cache_dir is None:
            raise ConfigError("live mode needs cache_dir (responses are written through)")


# --------------------------------------------------------------------------
# cell CSV serialization (fixtures and cache share it)
# --------------------------------------------------------------------------

def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_timestamp(raw: str) -> datetime:
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def cell_to_row(cell: AudienceCell) -> list[str]:
    return [
        cell.country.iso2,
        cell.sex.value,
        str(cell.age_group.lower),
        str(cell.age_group.upper),
        cell.parent_filter.value,
        str(cell.count),
        format_timestamp(cell.collected_at),
    ]


def row_to_cell(row: Sequence[str], country: CountryRef | None = None) -> AudienceCell:
    iso2, sex, age_low, age_high, flt, count, collected_at = (f.strip() for f in row)
    group = AgeGroup(int(age_low))
    if int(age_high) != group.upper:
        raise ValueError(f"age_high {age_high} does not close the {group} group")
    if country is None or country.iso2 != iso2.upper():
        country = CountryRef(iso2=iso2.upper())
    return AudienceCell(
        country=country,
        sex=Sex(sex.lower()),
        age_group=group,
        parent_filter=ParentFilter(flt),
        count=int(count),
        collected_at=parse_timestamp(collected_at),
    )


def write_cells_csv(path: str | Path, cells: Sequence[AudienceCell], meta: dict[str, str] | None = None) -> None:
    buf = io.StringIO()
    for key, value in (meta or {}).items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CELL_COLUMNS)
    for cell in cells:
        writer.writerow(cell_to_row(cell))
    atomic_write_text(path, buf.getvalue())


def read_cells_csv(path: str | Path, country: CountryRef | None = None) -> list[AudienceCell]:
    path = Path(path)
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    rows = list(csv.reader(lines))
    if not rows:
        raise ParseError(f"{path} has no header row", line=1)
    header = [h.strip().lower() for h in rows[0]]
    if header != CELL_COLUMNS:
        raise ParseError(f"{path} has header {rows[0]!r}; expected {CELL_COLUMNS}", line=1)
    cells = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CELL_COLUMNS):
            raise ParseError(f"{path}: expected {len(CELL_COLUMNS)} fields", line=lineno)
        try:
            cells.append(row_to_cell(row, country))
        except (ValueError, KeyError) as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from exc
    return cells


def fixture_countries(fixture_dir: str | Path) -> list[str]:
    """ISO2 codes that have a fixture file, ascending."""
    return sorted(p.stem.upper() for p in Path(fixture_dir).glob("*.csv"))


# --------------------------------------------------------------------------
# live client boundary
# --------------------------------------------------------------------------

class AdsApiClient:
    """The single boundary to the ads-reach HTTP API.

    Endpoint path and response parsing live here and nowhere else; if the
    upstream API changes shape, this class changes and the pipeline does
    not. The wire contract used: GET {base_url}/reach_estimate with the
    query's fields as parameters and a bearer token, answering
    {"audience_size": <int>}.

    `requests` is imported only when no `session` is injected, so fixture
    runs and tests with a fake session never load it.
    """

    def __init__(
        self,
        token: str,
        base_url: str = "https://ads-api.example.com/v1",
        session: requests.Session | None = None,
        timeout: float = 30.0,
    ) -> None:
        if not token:
            raise AuthError(f"no API token; set {TOKEN_ENV_VAR} or pass one explicitly")
        self._token = token
        self._base_url = base_url.rstrip("/")
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._timeout = timeout

    def reach_estimate(self, query: QueryDescriptor) -> int:
        try:
            response = self._session.get(
                f"{self._base_url}/reach_estimate",
                params={
                    "country": query.country_iso2,
                    "sex": query.sex.value,
                    "age_min": query.age_min,
                    "age_max": query.age_max,
                    "parent_filter": query.parent_filter.value,
                },
                headers={"Authorization": f"Bearer {self._token}"},
                timeout=self._timeout,
            )
        except OSError as exc:  # requests.RequestException subclasses OSError
            raise MalformedResponse(f"transport failure for {query.canonical()}: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthError(f"token rejected ({response.status_code})")
        if response.status_code == 429:
            raise RateLimited(f"throttled on {query.canonical()}")
        if response.status_code != 200:
            raise MalformedResponse(
                f"unexpected status {response.status_code} for {query.canonical()}"
            )
        try:
            payload = response.json()
            count = int(payload["audience_size"])
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(f"unparseable body for {query.canonical()}: {exc}") from exc
        if count < 0:
            raise MalformedResponse(f"negative audience_size {count} for {query.canonical()}")
        return count


# --------------------------------------------------------------------------
# fixture store and per-day cache
# --------------------------------------------------------------------------

class _FixtureStore:
    def __init__(self, fixture_dir: Path) -> None:
        self._dir = fixture_dir
        self._lock = threading.Lock()
        self._by_country: dict[str, dict[tuple, AudienceCell]] = {}

    def _load(self, iso2: str) -> dict[tuple, AudienceCell]:
        with self._lock:
            if iso2 not in self._by_country:
                path = self._dir / f"{iso2}.csv"
                if not path.exists():
                    raise FixtureMiss(f"no fixture file for {iso2} under {self._dir}")
                cells = read_cells_csv(path)
                self._by_country[iso2] = {
                    (c.sex, c.age_group, c.parent_filter): c for c in cells
                }
            return self._by_country[iso2]

    def preload(self, iso2: str) -> None:
        """Raise FixtureMiss now if the country has no fixture file at all."""
        self._load(iso2)

    def get(self, query: QueryDescriptor) -> AudienceCell:
        cells = self._load(query.country_iso2)
        key = (query.sex, query.age_group, query.parent_filter)
        cell = cells.get(key)
        if cell is None:
            raise FixtureMiss(f"fixture has no row for {query.canonical()}")
        return cell


class _CellCache:
    """Write-through cache of live responses, one CSV per (country, day)."""

    def __init__(self, cache_dir: Path) -> None:
        self._dir = cache_dir
        self._lock = threading.Lock()
        self._loaded: dict[str, dict[tuple, AudienceCell]] = {}

    def _path(self, iso2: str, day: date) -> Path:
        return self._dir / f"{iso2}_{day.isoformat()}.csv"

    def _load(self, iso2: str, day: date) -> dict[tuple, AudienceCell]:
        file_key = f"{iso2}_{day.isoformat()}"
        if file_key not in self._loaded:
            path = self._path(iso2, day)
            cells = read_cells_csv(path) if path.exists() else []
            self._loaded[file_key] = {
                (c.sex, c.age_group, c.parent_filter): c for c in cells
            }
        return self._loaded[file_key]

    def get(self, query: QueryDescriptor, day: date) -> AudienceCell | None:
        with self._lock:
            cells = self._load(query.country_iso2, day)
            return cells.get((query.sex, query.age_group, query.parent_filter))

    def put(self, cell: AudienceCell, day: date) -> None:
        with self._lock:
            path = self._path(cell.country.iso2, day)
            new_file = not path.exists()
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                if new_file:
                    writer.writerow(CELL_COLUMNS)
                writer.writerow(cell_to_row(cell))
            cells = self._load(cell.country.iso2, day)
            cells[(cell.sex, cell.age_group, cell.parent_filter)] = cell


# --------------------------------------------------------------------------
# collector
# --------------------------------------------------------------------------

class Collector:
    """Collects audience snapshots; safe to share across threads.

    Fixture lookups are in-memory and run inline, starting no thread. Live
    fetches run in a pool, up to config.max_in_flight at a time. Either
    way snapshot assembly gathers results in canonical query order, so
    completion order never affects output.
    """

    def __init__(
        self,
        config: CollectorConfig,
        client: AdsApiClient | None = None,
        clock: Callable[[], datetime] = utc_now,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self._clock = clock
        self._sleep = sleep
        self._fixtures = _FixtureStore(Path(config.fixture_dir)) if config.fixture_dir else None
        self._cache = _CellCache(Path(config.cache_dir)) if config.cache_dir else None
        if config.mode is Mode.LIVE and client is None:
            client = AdsApiClient(token=os.environ.get(TOKEN_ENV_VAR, ""))
        self._client = client

    def build_queries(self, country: CountryRef) -> list[QueryDescriptor]:
        """All 28 descriptors for a country: sex, then age, then filter."""
        if country.iso2 in self.config.excluded_countries:
            raise ExcludedCountry(f"platform provides no data for {country.iso2}")
        return [
            QueryDescriptor(
                country_iso2=country.iso2,
                sex=sex,
                age_min=group.lower,
                age_max=group.upper,
                parent_filter=flt,
            )
            for sex in (Sex.FEMALE, Sex.MALE)
            for group in age_grid()
            for flt in (ParentFilter.ALL, ParentFilter.PARENTS_0_12M)
        ]

    def fetch_cell(self, query: QueryDescriptor) -> AudienceCell:
        if self.config.mode is Mode.FIXTURE:
            assert self._fixtures is not None
            return self._fixtures.get(query)
        return self._fetch_live(query)

    def _fetch_live(self, query: QueryDescriptor) -> AudienceCell:
        assert self._client is not None and self._cache is not None
        today = self._clock().date()
        cached = self._cache.get(query, today)
        if cached is not None:
            return cached
        attempts = self.config.max_retries + 1
        for attempt in range(1, attempts + 1):
            try:
                count = self._client.reach_estimate(query)
                break
            except RateLimited:
                if attempt == attempts:
                    raise
                delay = self.config.base_backoff * 2 ** (attempt - 1)
                logger.info(
                    "throttled on %s; retry %d/%d after %.2fs",
                    query.canonical(), attempt, self.config.max_retries, delay,
                )
                self._sleep(delay)
        cell = AudienceCell(
            country=CountryRef(iso2=query.country_iso2),
            sex=query.sex,
            age_group=query.age_group,
            parent_filter=query.parent_filter,
            count=count,
            collected_at=self._clock(),
        )
        self._cache.put(cell, today)
        return cell

    def collect_snapshot(self, country: CountryRef) -> AudienceSnapshot:
        """All 28 cells for a country, or SnapshotIncomplete with what came back.

        A country with no fixture file at all is a configuration problem,
        not partial data, and raises FixtureMiss directly.
        """
        queries = self.build_queries(country)
        if self.config.mode is Mode.FIXTURE:
            assert self._fixtures is not None
            self._fixtures.preload(country.iso2)
            return self._assemble(country, queries, [partial(self.fetch_cell, q) for q in queries])
        with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
            futures = [pool.submit(self.fetch_cell, q) for q in queries]
            return self._assemble(country, queries, [f.result for f in futures])

    def _assemble(
        self,
        country: CountryRef,
        queries: list[QueryDescriptor],
        results: list[Callable[[], AudienceCell]],
    ) -> AudienceSnapshot:
        """Call each query's result in order, collecting the per-cell failures."""
        cells: list[AudienceCell] = []
        failures: list[tuple[QueryDescriptor, Exception]] = []
        for query, result in zip(queries, results):
            try:
                cells.append(result())
            except (FixtureMiss, RateLimited, MalformedResponse) as exc:
                failures.append((query, exc))
        if failures:
            raise SnapshotIncomplete(
                f"{country.iso2}: {len(failures)} of {len(queries)} cells failed "
                f"(first: {failures[0][1]})",
                cells=cells,
                missing=[q for q, _ in failures],
            )
        return AudienceSnapshot(
            country=country,
            cells=tuple(cells),
            collected_at=max(c.collected_at for c in cells),
        )
