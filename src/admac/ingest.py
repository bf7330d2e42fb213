"""Audience collection: live ads-reach API client (stdlib `urllib`, no
redirects), fixture replay, per-day cache and retry with exponential backoff.

Fixtures (one `<ISO2>.csv` per country) and the live cache (one
`<YYYY-MM-DD>.csv` per UTC day, every country's cells in it, appended to
country by country in the order requested; read, it keeps only its whole
lines) share one CSV schema
(`iso2,sex,age_low,age_high,parent_filter,count,collected_at`) and one
store, which alone reports a missing fixture file. A collect answers every hit
from the store, and one rule takes a miss: a fixture's is a per-cell FixtureMiss,
a live one is sent from the calling thread, and a throttled query is retried
`MAX_RETRIES` times, waiting `BASE_BACKOFF_S` seconds and then twice as long.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from collections import namedtuple
from datetime import date, datetime, timezone
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

from .domain import (
    AGE_GROUP_LOWERS,
    GROUP_WIDTH,
    AudienceCell,
    AudienceSnapshot,
    CellKey,
    ParentFilter,
    Sex,
    age_group,
    iso2_code,
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
    UpstreamUnavailable,
)
from .fileio import append_lines, metadata_header, read_table

logger = logging.getLogger(__name__)

CELL_COLUMNS = ["iso2", "sex", "age_low", "age_high", "parent_filter", "count", "collected_at"]

# The platform does not expose audience data for these countries.
DEFAULT_EXCLUDED = frozenset({"CU", "IR", "KP", "SY", "SD"})

BASE_BACKOFF_S = 0.5  # wait before the first retry of a throttled query; doubles per retry
MAX_RETRIES = 3  # retries of one throttled query before it fails
REQUEST_TIMEOUT_S = 30.0  # socket timeout of each live request

TOKEN_ENV_VAR = "ADS_API_TOKEN"
_BEARER_TOKEN = re.compile(r"[A-Za-z0-9._~+/-]+=*")  # RFC 6750 b64token

# A country's 28 cells in canonical query order: sex, then age, then filter.
CELL_KEYS: tuple[CellKey, ...] = tuple(
    (sex, lower, flt)
    for sex in (Sex.FEMALE, Sex.MALE)
    for lower in AGE_GROUP_LOWERS
    for flt in (ParentFilter.ALL, ParentFilter.PARENTS_0_12M)
)
# Each key's query fields by name, in canonical order: the request parameters that follow the
# country, and the one place an age group's upper bound is spelled.
_QUERY_FIELDS: dict[CellKey, dict[str, str | int]] = {
    (sex, lower, flt): {
        "sex": sex.value, "age_min": lower, "age_max": lower + GROUP_WIDTH - 1, "parent_filter": flt.value
    }
    for sex, lower, flt in CELL_KEYS
}
# Each key's canonical query text after its "iso2=<code>&".
_QUERY_TEXT: dict[CellKey, str] = {
    key: "&".join(f"{name}={value}" for name, value in fields.items())
    for key, fields in _QUERY_FIELDS.items()
}


class Mode(str, Enum):
    LIVE = "live"
    FIXTURE = "fixture"


class QueryDescriptor(namedtuple("QueryDescriptor", "country_iso2 sex age_min age_max parent_filter")):
    """One reach query."""

    __slots__ = ()

    def __new__(
        cls, country_iso2: str, sex: Sex, age_min: int, age_max: int, parent_filter: ParentFilter
    ) -> QueryDescriptor:
        age_group(age_min, age_max)
        return tuple.__new__(cls, (country_iso2, sex, age_min, age_max, parent_filter))

    @property
    def cell_key(self) -> CellKey:
        return self.sex, self.age_min, self.parent_filter

    def canonical(self) -> str:
        """Deterministic, fixed-field-order serialization."""
        return f"iso2={self.country_iso2}&{_QUERY_TEXT[self.cell_key]}"


class CollectorConfig(namedtuple("CollectorConfig", "mode fixture_dir cache_dir")):
    __slots__ = ()

    def __new__(
        cls, mode: Mode = Mode.FIXTURE, fixture_dir: Path | None = None, cache_dir: Path | None = None
    ) -> CollectorConfig:
        mode = Mode(mode)
        if mode is Mode.FIXTURE and fixture_dir is None:
            raise ConfigError("fixture mode needs fixture_dir")
        if mode is Mode.LIVE and cache_dir is None:
            raise ConfigError("live mode needs cache_dir (responses are written through)")
        return tuple.__new__(cls, (mode, fixture_dir, cache_dir))


# --------------------------------------------------------------------------
# cell CSV serialization (fixtures and cache share it)
# --------------------------------------------------------------------------

@lru_cache(maxsize=256)
def format_timestamp(dt: datetime) -> str:
    # memoised: equal instants in different zones compare equal and give equal text
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@lru_cache(maxsize=256)
def parse_timestamp(raw: str) -> datetime:
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


_HEADER_LINE = ",".join(CELL_COLUMNS) + "\n"
# The sex,age_low,age_high,parent_filter fields of each key's row.
_KEY_FIELDS: dict[CellKey, str] = {
    key: ",".join(str(value) for value in fields.values()) for key, fields in _QUERY_FIELDS.items()
}


@lru_cache(maxsize=256)
def _cell_key(sex: str, age_low: str, age_high: str, flt: str) -> CellKey:
    """The cell key a row's key fields name; ValueError if they name none."""
    lower = age_group(int(age_low), int(age_high))
    return Sex(sex.strip().lower()), lower, ParentFilter(flt.strip())


def _cell_lines(iso2: str, cells: dict[CellKey, AudienceCell]) -> str:
    """`iso2`'s `cells` as cell CSV data rows, in the dict's order, each ending in a line break."""
    return "".join(
        f"{iso2},{_KEY_FIELDS[key]},{c.count},{format_timestamp(c.collected_at)}\n"
        for key, c in cells.items()
    )


def write_cells_csv(
    path: str | Path, iso2: str, cells: dict[CellKey, AudienceCell], meta: dict[str, str]
) -> str:
    """Write `iso2`'s cells as a cell CSV with one plain write, into a directory the
    caller alone sees; returns the SHA-256 hex digest of the bytes written."""
    data = (metadata_header(meta) + _HEADER_LINE + _cell_lines(iso2, cells)).encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def read_cells_csv(
    path: str | Path, iso2: str | None = None, *, data: bytes | None = None
) -> dict[str, dict[CellKey, AudienceCell]]:
    """The cells of a cell CSV by country, then by key in file order, read with `fileio.read_table`.

    With `iso2` (a fixture or snapshot) the result holds that country alone,
    every row must name it and a second row for one cell is an error.
    Without it (a day file) each code is checked once, and a later row for a
    cell wins. `data` is the file's bytes when the caller has already read
    them (the live cache passes only its whole lines). A malformed row, or
    one these rules refuse, raises ParseError with its file line.
    """
    rows = read_table(path, CELL_COLUMNS, data=data)
    by_country: dict[str, dict[CellKey, AudienceCell]] = {} if iso2 is None else {iso2: {}}
    for lineno, row in rows:
        try:
            if len(row) != len(CELL_COLUMNS):
                raise ValueError(f"expected {len(CELL_COLUMNS)} fields")
            code, sex, age_low, age_high, flt, count, collected_at = row
            code = iso2_code(code.strip())
            cells = by_country.get(code)
            if cells is None:
                if iso2 is not None:
                    raise ValueError(f"row names {code} in a file for {iso2}")
                cells = by_country[code] = {}
            key = _cell_key(sex, age_low, age_high, flt)
            if iso2 is not None and key in cells:
                raise ValueError(f"a second row for cell {_KEY_FIELDS[key]}")
            cells[key] = AudienceCell(int(count), parse_timestamp(collected_at.strip()))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from exc
    return by_country


def file_country(path: Path) -> str:
    """The ISO2 code an `<ISO2>.csv` file is named for, in capitals as admac names its files;
    ParseError naming the file otherwise."""
    try:
        if iso2_code(path.stem) != path.stem:
            raise ValueError(f"{path.stem!r} is not in capitals")
    except ValueError as exc:
        raise ParseError(f"{path}: file name is not <ISO2>.csv ({exc})") from None
    return path.stem


def fixture_countries(fixture_dir: str | Path) -> list[str]:
    """ISO2 codes that have a fixture file, ascending; a file named otherwise raises ParseError."""
    return sorted(file_country(p) for p in Path(fixture_dir).glob("*.csv"))


# --------------------------------------------------------------------------
# live client boundary
# --------------------------------------------------------------------------

class _Reply(namedtuple("_Reply", "status_code body")):
    def json(self) -> object:
        return json.loads(self.body)


class _UrllibSession:
    """`AdsApiClient`'s default session: one `urllib.request` GET per call, on a new connection,
    through the proxies the environment names. It follows no redirect (urllib would send the
    token on to the host named), and a reply that breaks off raises ConnectionError."""

    def __init__(self) -> None:
        import urllib.request  # here, not at module level: it is slow to import

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args: object) -> None:  # the 3xx is answered as it is
                return None

        self._open = urllib.request.build_opener(NoRedirect).open

    def get(self, url: str, params: dict, headers: dict, timeout: float) -> _Reply:
        import http.client
        import urllib.request

        request = urllib.request.Request(f"{url}?{urllib.parse.urlencode(params)}", headers=headers)
        try:
            with self._open(request, timeout=timeout) as reply:
                return _Reply(reply.status, reply.read())
        except urllib.error.HTTPError as reply:  # every status but 2xx, read and closed
            with reply:
                return _Reply(reply.code, reply.read())
        except http.client.HTTPException as exc:  # a bad status line, an incomplete read
            raise ConnectionError(f"broken reply: {exc!r}") from exc


class AdsApiClient:
    """The single boundary to the ads-reach HTTP API.

    Endpoint path and response parsing live here and nowhere else; if the
    upstream API changes shape, this class changes and the pipeline does
    not. The wire contract used: GET {base_url}/reach_estimate with the
    query's fields as parameters and a bearer token, answering
    {"audience_size": <int>}. A transport failure raises
    UpstreamUnavailable, which is not a per-cell error: it ends the collect.

    `session` (default `_UrllibSession`) has `get(url, params=, headers=, timeout=)`
    returning an object with `.status_code` and `.json()`.
    """

    def __init__(
        self, token: str, base_url: str = "https://ads-api.example.com/v1", session: object = None
    ) -> None:
        if not token:
            raise AuthError(f"no API token; set {TOKEN_ENV_VAR} or pass one explicitly")
        if not _BEARER_TOKEN.fullmatch(token):
            raise AuthError("API token is not a bearer token (letters, digits, -._~+/, then any =)")
        self._url = f"{base_url.rstrip('/')}/reach_estimate"
        self._headers = {"Authorization": f"Bearer {token}"}
        self._session = session if session is not None else _UrllibSession()

    def reach_estimate(self, query: QueryDescriptor) -> int:
        try:
            response = self._session.get(
                self._url,
                params={"country": query.country_iso2, **_QUERY_FIELDS[query.cell_key]},
                headers=dict(self._headers),  # a copy: the session may change it
                timeout=REQUEST_TIMEOUT_S,
            )
        except OSError as exc:
            raise UpstreamUnavailable(f"transport failure for {query.canonical()}: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthError(f"token rejected ({response.status_code})")
        if response.status_code == 429:
            raise RateLimited(f"throttled on {query.canonical()}")
        if response.status_code != 200:
            raise MalformedResponse(
                f"unexpected status {response.status_code} for {query.canonical()}"
            )
        try:
            count = response.json()["audience_size"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise MalformedResponse(f"unparseable body for {query.canonical()}: {exc}") from exc
        if type(count) is not int or count < 0:  # a bool, float or string is no count
            raise MalformedResponse(f"audience_size {count!r} is not a count for {query.canonical()}")
        return count


# --------------------------------------------------------------------------
# cell store: fixtures and the per-day cache
# --------------------------------------------------------------------------

class _CellStore:
    """A directory of cell CSVs, each file read once into one dict per
    country keyed by (sex, age group, filter).

    Fixtures are `<ISO2>.csv` and only read. The live cache is one
    `<YYYY-MM-DD>.csv` per UTC day holding every country's cells of that
    day. `write` appends a country's new cells to it, in canonical order,
    as whole lines; the header is written only into an empty file. One
    rule repairs what a crash or other damage leaves, where a day file is
    read: it keeps its whole lines. Bytes after the last line break are cut
    off in place, and a file whose whole lines do not parse is removed,
    each with a warning naming the file and line; the lost cells are
    fetched again.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._files: dict[tuple[str, date | None], dict[CellKey, AudienceCell]] = {}
        self._digests: dict[str, str] = {}  # of fixture files
        self._days: set[date] = set()  # day files read

    def _path(self, name: str) -> Path:
        return self.directory / f"{name}.csv"

    def cells(self, iso2: str, day: date | None = None) -> dict[CellKey, AudienceCell]:
        """`iso2`'s cells by key, from `day`'s cache file (empty if it has none) or from its fixture
        (day None); FixtureMiss if that file does not exist, which the next call looks for again."""
        if day is not None:
            if day not in self._days:
                self._days.add(day)
                self._files.update(((code, day), cells) for code, cells in self._read_day(day).items())
            return self._files.get((iso2, day), {})
        if (iso2, None) not in self._files:
            path = self._path(iso2)
            if not path.exists():
                raise FixtureMiss(f"no fixture file for {iso2} under {self.directory}")
            data = path.read_bytes()
            self._digests[iso2] = hashlib.sha256(data).hexdigest()
            self._files[iso2, None] = read_cells_csv(path, iso2, data=data)[iso2]
        return self._files[iso2, None]

    def _read_day(self, day: date) -> dict[str, dict[CellKey, AudienceCell]]:
        """`day`'s cache file read by country, kept to its whole lines (see the class docstring)."""
        path = self._path(day.isoformat())
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return {}
        end = data.rfind(b"\n") + 1
        try:
            cells = read_cells_csv(path, data=data[:end])
        except ParseError as exc:  # bad bytes, a bad row or header, or no complete line
            logger.warning("%s; removed it, its cells are fetched again", exc)
            path.unlink()
            return {}
        if end < len(data):
            line = data.count(b"\n", 0, end) + 1
            logger.warning("%s: cut off torn last line %d; its cell is fetched again", path, line)
            os.truncate(path, end)
        return cells

    def digest(self, iso2: str) -> str | None:
        """SHA-256 hex digest of `iso2`'s fixture file as loaded, or None when none was."""
        return self._digests.get(iso2)

    def write(self, iso2: str, day: date, cells: dict[CellKey, AudienceCell]) -> None:
        """Append the `cells` this store does not hold yet to `iso2`'s cells for `day`, looked up
        with `cells` before: to the day file in the dict's order, then, once that succeeded, in
        memory."""
        held = self._files.get((iso2, day), {})
        new = {key: c for key, c in cells.items() if held.get(key) != c}
        if new:
            append_lines(self._path(day.isoformat()), _cell_lines(iso2, new), _HEADER_LINE)
            self._files[iso2, day] = {**held, **new}


# --------------------------------------------------------------------------
# collector
# --------------------------------------------------------------------------

# Per-cell failures, a fixture miss too: they leave a snapshot incomplete instead of ending the run.
_CELL_ERRORS = (FixtureMiss, RateLimited, MalformedResponse)


def _query(iso2: str, key: CellKey) -> QueryDescriptor:
    """The query for a CELL_KEYS entry."""
    sex, lower, flt = key
    return QueryDescriptor(iso2, sex, lower, _QUERY_FIELDS[key]["age_max"], flt)


class Collector:
    """Collects audience snapshots; `collect_snapshots` is its entry point.

    One `_CellStore` answers every lookup: the fixture directory (day None)
    or the live cache's file for the UTC day the call looked up. A collect
    checks every requested country for exclusion, then looks each one up
    in the store, then goes through the countries one at a time, each in
    canonical query order, on the calling thread: a held cell is taken, and
    `_fetch` takes one the store lacks. Once a country's cells are done, or
    an error or an interrupt ends the call inside that country, its fetched
    cells are appended to the day file, once.
    """

    def __init__(
        self,
        config: CollectorConfig,
        client: AdsApiClient | None = None,
        clock: Callable[[], datetime] = utc_now,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._clock = clock
        self._sleep = sleep
        self._live = config.mode is Mode.LIVE
        self._store = _CellStore(Path(config.cache_dir if self._live else config.fixture_dir))
        if self._live and client is None:
            client = AdsApiClient(token=os.environ.get(TOKEN_ENV_VAR, ""))
        self._client = client

    def fetch_cell(self, query: QueryDescriptor, day: date | None = None) -> AudienceCell:
        """The query's cell: from its fixture, or live from the `day` cache file (default:
        today) or fetched into it."""
        iso2 = query.country_iso2
        key = query.cell_key
        day = (day or self._clock().date()) if self._live else None
        cell = self._store.cells(iso2, day).get(key)
        if cell is None:
            cell = self._fetch(iso2, key, day)
            self._store.write(iso2, day, {key: cell})
        return cell

    def fixture_digest(self, iso2: str) -> str | None:
        """SHA-256 of the fixture file this collector read for `iso2`, or None when it read none."""
        return self._store.digest(iso2)

    def _fetch(self, iso2: str, key: CellKey, day: date | None) -> AudienceCell:
        """The cell for `key`, which the store lacks: FixtureMiss in fixture mode (day None), else sent."""
        if day is None:
            raise FixtureMiss(f"fixture has no row for {_query(iso2, key).canonical()}")
        return self._request(iso2, key)

    def _request(self, iso2: str, key: CellKey) -> AudienceCell:
        """The cell for `key` from the client; throttled attempts are retried with backoff."""
        assert self._client is not None
        query = _query(iso2, key)
        for attempt in range(1, MAX_RETRIES + 2):
            try:
                count = self._client.reach_estimate(query)
                break
            except RateLimited:
                if attempt > MAX_RETRIES:
                    raise
                delay = BASE_BACKOFF_S * 2 ** (attempt - 1)
                logger.info(
                    "throttled on %s; retry %d/%d after %.2fs",
                    query.canonical(), attempt, MAX_RETRIES, delay,
                )
                self._sleep(delay)
        return AudienceCell(count=count, collected_at=self._clock())

    def collect_snapshots(self, countries: Sequence[str]) -> list[AudienceSnapshot]:
        """The snapshot of each country (an ISO2 code), in the order given.

        A country whose cells did not all arrive from the store or `_fetch`
        gets a snapshot of the cells that did, and a warning naming its first
        failure. An excluded country raises ExcludedCountry, and the store
        FixtureMiss for one with no fixture file or ParseError for a bad one;
        each before any request is sent or cell written.
        """
        for iso2 in countries:
            if iso2 in DEFAULT_EXCLUDED:
                raise ExcludedCountry(f"platform provides no data for {iso2}")
        day = self._clock().date() if self._live else None
        stored = [self._store.cells(iso2, day) for iso2 in countries]
        snapshots, incomplete = [], []
        for iso2, held in zip(countries, stored):
            cells: dict[CellKey, AudienceCell] = {}
            fetched: dict[CellKey, AudienceCell] = {}
            failures: list[Exception] = []
            try:
                for key in CELL_KEYS:
                    cell = held.get(key)
                    if cell is None:
                        try:
                            cell = fetched[key] = self._fetch(iso2, key, day)
                        except _CELL_ERRORS as exc:
                            failures.append(exc)
                            continue
                    cells[key] = cell
            finally:
                if fetched:
                    self._store.write(iso2, day, fetched)
            if failures:
                incomplete.append((iso2, len(failures), failures[0]))
            snapshots.append(AudienceSnapshot(country=iso2, cells=cells))
        for iso2, failed, first in incomplete:  # only once every snapshot is made
            logger.warning(
                "%s: incomplete snapshot kept (%d of %d cells failed, first: %s)",
                iso2, failed, len(CELL_KEYS), first,
            )
        return snapshots
