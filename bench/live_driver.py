"""Live-mode `run_all` over a generated world, against a fake upstream.

The fake is a duck-typed session handed to `AdsApiClient(session=...)`,
the same seam the unit tests use, so no socket is ever opened. It answers
every reach query from the world's fixture counts as a JSON body. A seeded
~2% of queries, picked by a hash of `QueryDescriptor.canonical()` rather
than by call order, get HTTP 429 on their first attempt only, so the number
of retries repeats exactly whatever order the collector's threads run in.
The clock is fixed and `sleep` records the requested backoff, so
artifacts are byte-identical across runs.

Run as a script it performs one operation and prints one JSON line:

    python bench/live_driver.py --world DIR --out DIR --cache DIR --seed N
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from world import read_world_counts  # noqa: E402

from admac.domain import ParentFilter, Sex  # noqa: E402
from admac.ingest import AdsApiClient, Collector, CollectorConfig, Mode, QueryDescriptor  # noqa: E402
from admac.pipeline import RunConfig, packaged_data_path, run_all  # noqa: E402

THROTTLE_SHARE = 0.02
FIXED_NOW = datetime(2024, 6, 1, 12, 0, tzinfo=timezone.utc)
TOKEN = "bench-token"


class FakeResponse:
    def __init__(self, status_code: int, text: str) -> None:
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


class FakeSession:
    """Answers GET reach_estimate from in-memory counts; never touches a network."""

    def __init__(self, counts: dict, seed: int) -> None:
        self._counts = counts
        self._seed = seed
        self._lock = threading.Lock()
        self._throttled: set[str] = set()
        self.calls = 0

    def _throttles(self, canonical: str) -> bool:
        digest = hashlib.sha256(f"{self._seed}:{canonical}".encode()).digest()
        return int.from_bytes(digest[:8], "big") < THROTTLE_SHARE * 2**64

    def get(self, url, params=None, headers=None, timeout=None):
        query = QueryDescriptor(
            country_iso2=params["country"],
            sex=Sex(params["sex"]),
            age_min=params["age_min"],
            age_max=params["age_max"],
            parent_filter=ParentFilter(params["parent_filter"]),
        )
        canonical = query.canonical()
        with self._lock:
            self.calls += 1
            first_attempt = canonical not in self._throttled
            if first_attempt and self._throttles(canonical):
                self._throttled.add(canonical)
                return FakeResponse(429, "{}")
        count = self._counts[(query.country_iso2, query.sex.value, query.age_min, query.parent_filter.value)]
        return FakeResponse(200, json.dumps({"audience_size": count}))

    @property
    def throttled(self) -> int:
        return len(self._throttled)


class LiveRun:
    """One live-mode run: its config, collector, fake session and recorded sleeps."""

    def __init__(self, world_dir: Path, out_dir: Path, cache_dir: Path, seed: int, counts: dict | None = None) -> None:
        counts = read_world_counts(world_dir) if counts is None else counts
        self.session = FakeSession(counts, seed)
        self.sleeps: list[float] = []
        self.cfg = RunConfig(
            output_dir=out_dir,
            mode=Mode.LIVE,
            cache_dir=cache_dir,
            truth_path=world_dir / "truth.csv",
            continent_map_path=packaged_data_path("continents.csv"),
            seed=seed,
            countries=tuple(sorted({key[0] for key in counts})),
        )

    def collector(self) -> Collector:
        client = AdsApiClient(token=TOKEN, session=self.session)
        config = CollectorConfig(mode=Mode.LIVE, cache_dir=self.cfg.cache_dir)
        return Collector(config, client=client, clock=lambda: FIXED_NOW, sleep=self.sleeps.append)

    def report(self) -> dict:
        return {
            "client_calls": self.session.calls,
            "throttled": self.session.throttled,
            "sleeps": len(self.sleeps),
            "backoff_s": sum(self.sleeps),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    run = LiveRun(args.world, args.out, args.cache, args.seed)
    run_all(run.cfg, run.collector())
    print(json.dumps(run.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
