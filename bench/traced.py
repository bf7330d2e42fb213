"""Traced in-process run of one workload, giving the per-layer metrics.

Tracing is added from outside the program: each listed public function is
wrapped, and every module-level name in `admac` that refers to it is
rebound to the wrapper, so calls through `from x import f` bindings are
seen too. A wrapper records one span per call (name, start, end, and the
span that caused it on the same thread) and counters at the same boundary.
Spans stay in memory and are written out at the end.

Untraced and traced `run_all` passes alternate in one process, after one
untraced warm-up pass, so the tracing overhead is measured on the same
process state. The statistical kernels are then timed alone at n = 21 and
at the world's validation-pair count.

    python bench/traced.py --workload world --world DIR --work DIR \
        --seed N --seconds S --n-world PAIRS --spans FILE

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

from checks import check_outputs, combined_digest
from live_driver import LiveRun
from world import DEMO_SEED, demo_expectation, read_world_counts

from admac import fileio, groundtruth, indicators, ingest, pipeline, predict, special, stats
from admac.domain import CountryRef, FertilitySchedule, Sex
from admac.groundtruth import ValidationPair

MIN_PAIRS = 2
KERNEL_RESERVE_S = 3.0
STAGES = ("collect", "estimate", "validate", "calibrate", "predict")


class Tracer:
    """Wraps functions in place and records spans and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: collections.Counter = collections.Counter()

    def reset(self) -> None:
        self.spans = []
        self.counts = collections.Counter()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name, fn, hook, span):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span:
                tracer.count(name)
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count(f"{name}!{type(exc).__name__}")
                raise
            finally:
                tracer.spans.append((sid, parent, name, start, time.perf_counter_ns()))
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, hook=None, span: bool = True) -> None:
        original = getattr(owner, attr)
        wrapped = self._wrap(name, original, hook, span)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for key, m in sorted(sys.modules.items()) if key == "admac" or key.startswith("admac.")]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapped)
                    self._restore.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def install_layers(self) -> None:
        t = self.install
        t(pipeline, "run_all", "pipeline.run_all")
        for stage in STAGES:
            t(pipeline, f"stage_{stage}", f"pipeline.stage_{stage}")
        t(pipeline, "load_estimates", "pipeline.load_estimates")
        t(ingest, "read_cells_csv", "ingest.read_cells_csv")
        t(ingest, "write_cells_csv", "ingest.write_cells_csv")
        t(ingest.Collector, "fetch_cell", "ingest.Collector.fetch_cell")
        t(ingest.AdsApiClient, "reach_estimate", "ingest.AdsApiClient.reach_estimate")
        t(threading.Thread, "start", "threading.Thread.start", span=False)
        t(indicators, "estimate_country", "indicators.estimate_country")
        t(indicators, "mac", "indicators.mac")
        t(groundtruth, "load_ground_truth", "groundtruth.load_ground_truth")
        t(groundtruth, "load_continent_map", "groundtruth.load_continent_map")
        t(groundtruth, "join_pairs", "groundtruth.join_pairs")
        t(stats, "spearman", "stats.spearman")
        t(stats, "ols_fit_xy", "stats.ols_fit_xy")
        t(stats, "loocv", "stats.loocv")
        t(special, "betainc", "special.betainc")
        t(special, "t_quantile", "special.t_quantile")
        t(special, "t_cdf", "special.t_cdf")
        t(predict, "predict_missing", "predict.predict_missing",
          hook=lambda a, k, r: self.count("predict.predictions", len(r)))
        t(predict, "emit_choropleth", "predict.emit_choropleth")
        t(fileio, "sha256_file", "fileio.sha256_file",
          hook=lambda a, k, r: self.count("fileio.sha256_bytes", os.path.getsize(a[0])))
        t(fileio, "atomic_write_text", "fileio.atomic_write_text",
          hook=lambda a, k, r: self.count("fileio.bytes_written", len((a[1] if len(a) > 1 else k["text"]).encode())))


def aggregate(spans) -> dict[str, tuple[int, int, int]]:
    """name -> (calls, total ns, self ns); self time excludes child spans."""
    child_ns: dict[int, int] = collections.defaultdict(int)
    for sid, parent, name, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    table: dict[str, tuple[int, int, int]] = {}
    for sid, parent, name, start, end in spans:
        calls, total, self_ns = table.get(name, (0, 0, 0))
        table[name] = (calls + 1, total + end - start, self_ns + end - start - child_ns[sid])
    return table


def layer_metrics(table, counts) -> dict[str, float]:
    def calls(name):
        return table.get(name, (0, 0, 0))[0]

    def ms(*names):
        return sum(table.get(n, (0, 0, 0))[1] for n in names) / 1e6

    def us_per_call(name):
        n, total, _ = table.get(name, (0, 0, 0))
        return total / n / 1e3 if n else 0.0

    m = {f"pipeline.{stage}_ms": ms(f"pipeline.stage_{stage}") for stage in STAGES}
    m.update({
        "pipeline.estimates_loads": calls("pipeline.load_estimates"),
        "ingest.read_cells_ms": ms("ingest.read_cells_csv"),
        "ingest.read_cells_calls": calls("ingest.read_cells_csv"),
        "ingest.write_cells_ms": ms("ingest.write_cells_csv"),
        "ingest.threads_started": counts["threading.Thread.start"],
        "ingest.client_calls": calls("ingest.AdsApiClient.reach_estimate"),
        "ingest.retries": counts["ingest.AdsApiClient.reach_estimate!RateLimited"],
        "ingest.fetch_cell_us": us_per_call("ingest.Collector.fetch_cell"),
        "indicators.estimate_country_us": us_per_call("indicators.estimate_country"),
        "indicators.mac_us": us_per_call("indicators.mac"),
        "groundtruth.load_ms": ms("groundtruth.load_ground_truth", "groundtruth.load_continent_map"),
        "groundtruth.truth_loads": calls("groundtruth.load_ground_truth"),
        "groundtruth.join_ms": ms("groundtruth.join_pairs"),
        "stats.spearman_us": us_per_call("stats.spearman"),
        "stats.ols_fit_xy_us": us_per_call("stats.ols_fit_xy"),
        "stats.loocv_ms": ms("stats.loocv"),
        "stats.ols_fits": calls("stats.ols_fit_xy"),
        "special.betainc_us": us_per_call("special.betainc"),
        "special.t_quantile_us": us_per_call("special.t_quantile"),
        "special.t_quantile_calls": calls("special.t_quantile"),
        "special.t_cdf_calls": calls("special.t_cdf"),
        "predict.predict_missing_ms": ms("predict.predict_missing"),
        "predict.predictions": counts["predict.predictions"],
        "predict.emit_choropleth_ms": ms("predict.emit_choropleth"),
        "fileio.sha256_calls": calls("fileio.sha256_file"),
        "fileio.sha256_bytes": counts["fileio.sha256_bytes"],
        "fileio.atomic_writes": calls("fileio.atomic_write_text"),
        "fileio.bytes_written": counts["fileio.bytes_written"],
    })
    run_all_ms = ms("pipeline.run_all")
    m["trace.stage_cover_pct"] = 100.0 * sum(m[f"pipeline.{s}_ms"] for s in STAGES) / run_all_ms
    return m


class Passes:
    """Builds and runs one `run_all` pass of the workload in this process."""

    def __init__(self, args) -> None:
        self.args = args
        self.tracer = Tracer()
        self.live = args.workload == "world-live"
        self._counts = read_world_counts(args.world) if self.live else None
        if args.workload == "demo":
            self.expected = demo_expectation(pipeline.packaged_data_path())
        else:
            self.expected = json.loads((args.world / "expected.json").read_text(encoding="utf-8"))
        self.index = 0

    def _build(self, pass_dir: Path):
        a = self.args
        if self.live:
            run = LiveRun(a.world, pass_dir / "out", pass_dir / "cache", a.seed, counts=self._counts)
            return run.cfg, run
        if a.workload == "demo":
            return pipeline.RunConfig(output_dir=pass_dir / "out", seed=DEMO_SEED), None
        return pipeline.RunConfig(
            output_dir=pass_dir / "out", seed=a.seed,
            fixture_dir=a.world / "fixtures", truth_path=a.world / "truth.csv",
        ), None

    def run(self, traced: bool) -> dict:
        self.index += 1
        pass_dir = self.args.work / f"pass-{self.index}"
        cfg, live = self._build(pass_dir)
        record: dict = {"traced": traced}
        tracer = self.tracer
        try:
            if traced:
                tracer.reset()
                tracer.install_layers()
            try:
                collector = live.collector() if live else None
                start = time.perf_counter()
                pipeline.run_all(cfg, collector)
                record["run_all_ms"] = (time.perf_counter() - start) * 1e3
                if traced:
                    record["layers"] = layer_metrics(aggregate(tracer.spans), tracer.counts)
                    record["spans"] = tracer.spans
                if live:
                    record["backoff_s"] = sum(live.sleeps)
                    record.update(self._warm_collect(cfg, live, traced))
            finally:
                tracer.uninstall()
        except Exception:
            record["problems"] = [traceback.format_exc(limit=3)]
            shutil.rmtree(pass_dir, ignore_errors=True)
            return record
        problems, digests = check_outputs(cfg.output_dir, self.expected)
        record["problems"] = problems
        record["digest"] = combined_digest(digests) if digests else None
        shutil.rmtree(pass_dir, ignore_errors=True)
        return record

    def _warm_collect(self, cfg, live, traced: bool) -> dict:
        """A second same-day collect over the filled cache."""
        tracer = self.tracer
        calls_before = live.session.calls
        if traced:
            tracer.reset()
        start = time.perf_counter()
        pipeline.stage_collect(cfg, live.collector())
        warm = {"warm_collect_ms": (time.perf_counter() - start) * 1e3}
        if traced:
            fetches = aggregate(tracer.spans).get("ingest.Collector.fetch_cell", (0, 0, 0))[0]
            client_calls = live.session.calls - calls_before
            warm["cache_hit_ratio"] = (fetches - client_calls) / fetches if fetches else 0.0
        return warm


def _per_call_us(fn, *args, budget_s: float = 0.1) -> float:
    """Median over five batches of the time per call, in microseconds."""
    start = time.perf_counter()
    fn(*args)
    once = time.perf_counter() - start
    reps = max(1, int(budget_s / 5 / max(once, 1e-7)))
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        batches.append((time.perf_counter() - start) / reps)
    return statistics.median(batches) * 1e6


def _calls_during(tracer: Tracer, owner, attr: str, fn, *args) -> int:
    tracer.reset()
    tracer.install(owner, attr, attr, span=False)
    try:
        fn(*args)
    finally:
        tracer.uninstall()
    return tracer.counts[attr]


def kernels(seed: int, n_world: int) -> dict[str, float]:
    """Kernel times at n = 21 and n = the world's pair count, with op counts."""
    rng = random.Random(seed)
    tracer = Tracer()
    rates = tuple(0.08 * math.exp(-0.5 * ((lo + 2.5 - 29.0) / 5.5) ** 2) for lo in range(15, 50, 5))
    schedule = FertilitySchedule(country=CountryRef(iso2="IT"), sex=Sex.FEMALE, rates=rates)
    m = {"kernel.mac_us": _per_call_us(indicators.mac, schedule)}
    for label, n in (("n21", 21), ("nworld", n_world)):
        xs = [rng.uniform(24.0, 34.0) for _ in range(n)]
        ys = [7.451 + 0.811 * x + rng.gauss(0.0, 0.55) for x in xs]
        pairs = [
            ValidationPair(country=CountryRef(iso2=chr(65 + i // 26) + chr(65 + i % 26)),
                           sex=Sex.MALE, mac_fb=x, mac_truth=y)
            for i, (x, y) in enumerate(zip(xs, ys))
        ]
        df = n - 2
        m[f"kernel.spearman_{label}_us"] = _per_call_us(stats.spearman, xs, ys)
        m[f"kernel.ols_fit_xy_{label}_us"] = _per_call_us(stats.ols_fit_xy, xs, ys)
        m[f"kernel.loocv_{label}_ms"] = _per_call_us(stats.loocv, pairs, {}) / 1e3
        m[f"kernel.betainc_{label}_us"] = _per_call_us(special.betainc, df / 2, 0.5, df / (df + 4.0))
        m[f"kernel.t_quantile_{label}_us"] = _per_call_us(special.t_quantile, 0.975, df)
        m[f"kernel.t_cdf_per_t_quantile_{label}"] = _calls_during(
            tracer, special, "t_cdf", special.t_quantile, 0.975, df)
        m[f"kernel.ols_fits_per_loocv_{label}"] = _calls_during(
            tracer, stats, "ols_fit_xy", stats.loocv, pairs, {})
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["demo", "world", "world-live"])
    parser.add_argument("--world", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--n-world", type=int, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    deadline = started + max(0.0, args.seconds - KERNEL_RESERVE_S)

    passes = Passes(args)
    records = [passes.run(traced=False)]
    records[0]["warmup"] = True
    spans: list = []
    pairs, pair_s = 0, 0.0
    while pairs < MIN_PAIRS or time.perf_counter() + pair_s < deadline:
        start = time.perf_counter()
        records.append(passes.run(traced=False))
        records.append(passes.run(traced=True))
        spans = records[-1].pop("spans", spans)
        pair_s = time.perf_counter() - start
        pairs += 1

    args.spans.parent.mkdir(parents=True, exist_ok=True)
    with open(args.spans, "w", encoding="utf-8") as handle:
        origin = min((s[3] for s in spans), default=0)
        for sid, parent, name, start, end in sorted(spans, key=lambda s: s[3]):
            handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_us": (start - origin) / 1e3, "dur_us": (end - start) / 1e3}) + "\n")
    table = aggregate(spans)
    print(json.dumps({
        "passes": records,
        "kernels": kernels(args.seed, args.n_world),
        "span_table": {name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                       for name, (c, t, s) in sorted(table.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
