"""The admac benchmark: cold `admac all` runs, end to end and layer by layer.

    python3 bench/run.py --workload demo|world|world-live --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from the
checkout's `src/` and nothing is installed. Workload inputs are generated
from `--seed`. The load is a closed loop from this one process: each
operation is a fresh child process, and the next starts only after the
previous one has finished.

`--trace 0` times operations for `--seconds` after one warm-up operation
(which fills the bytecode cache, as any installed copy has) and reports the
end-to-end metrics. The fixed reference program (`reference.py`) runs
after every operation, and the operations' mean times are rescaled by
the reference's mean times, so that they read as on a machine where the
reference takes REF_NOMINAL_MS and drift in the speed of a shared host
cancels out. The raw times are printed and stored too. `--trace 1` runs
the traced in-process pass (`traced.py`) and the interpreter start-up
probes and reports the per-layer metrics. Metric names and units come from BENCHMARK.json.

Every operation's output is checked: exit code 0, the full artifact set,
estimate and prediction row counts as the inputs imply, and artifact
digests equal to the run's first operation. Human-readable lines go first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Full results, with the
environment stamp and the artifact digests, go to
`.bench_work/results/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "admac" / "data"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

from checks import check_outputs  # noqa: E402
from world import DEMO_SEED, demo_expectation, generate_world, world_countries, world_pair_count  # noqa: E402

OP_TIMEOUT_S = 45
REFERENCE = BENCH_DIR / "reference.py"
# The reference's time on a 2-vCPU x86-64 virtual machine under Python 3.11
# is about this; normalised times are given for a machine where it is exactly this.
REF_NOMINAL_MS = 250.0
SETUP_MIN_REPS = 7
PROBE_REPS = 7
TAIL_BEYOND = 10
# Counts that a deterministic program repeats exactly on every pass.
EXACT_COUNTS = (
    "ingest.threads_started", "ingest.client_calls", "ingest.retries",
    "stats.ols_fits", "special.t_quantile_calls", "fileio.sha256_calls",
)


@dataclass
class Inputs:
    expected: dict
    argv: Callable[[Path], list[str]]
    world: Path | None = None
    live: bool = False

    @property
    def countries(self) -> int:
        return len(self.expected["countries"])

    def out_dir(self, op: Path) -> Path:
        """Where an operation's artifacts land; live operations keep their cache beside them."""
        return op / "out" if self.live else op


def setup_demo(work: Path, seed: int) -> Inputs:
    """The bundled 21-country demo, run as `admac all --seed 42`."""
    return Inputs(
        expected=demo_expectation(DATA),
        argv=lambda op: [sys.executable, "-m", "admac.cli", "all", "--seed", str(DEMO_SEED), "--out", str(op)],
    )


def setup_world(work: Path, seed: int, live: bool = False) -> Inputs:
    """A seeded world over every served continents.csv country, run through
    the CLI in fixture mode or through the live driver's fake upstream."""
    world = work / "world"
    expected = generate_world(world, DATA / "continents.csv", seed)
    if live:
        def argv(op: Path) -> list[str]:
            return [sys.executable, str(BENCH_DIR / "live_driver.py"), "--world", str(world),
                    "--out", str(op / "out"), "--cache", str(op / "cache"), "--seed", str(seed)]
    else:
        def argv(op: Path) -> list[str]:
            return [sys.executable, "-m", "admac.cli", "all", "--seed", str(seed), "--out", str(op),
                    "--fixture-dir", str(world / "fixtures"), "--truth", str(world / "truth.csv")]
    return Inputs(expected=expected, argv=argv, world=world, live=live)


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "demo": setup_demo,
    "world": setup_world,
    "world-live": functools.partial(setup_world, live=True),
}


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

_child_pid = 0


def _kill_child(signum, frame) -> None:
    if _child_pid:
        os.kill(_child_pid, signal.SIGKILL)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(argv: list[str], log: Path, timeout_s: float = OP_TIMEOUT_S) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS KiB).

    Wall time spans spawn to reap; CPU time and peak RSS come from the
    child's own rusage. A child still running after timeout_s is killed.
    """
    global _child_pid
    log.parent.mkdir(parents=True, exist_ok=True)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    env = child_env()
    start = time.perf_counter()
    _child_pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(_child_pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _child_pid = 0
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


# --------------------------------------------------------------------------
# timed run (--trace 0)
# --------------------------------------------------------------------------

def timed_setup(setup, rep_dir: Path, seed: int, keep: bool) -> tuple[Inputs, float]:
    """Set up once into a fresh directory: (inputs, seconds taken).

    A directory not kept is deleted at once: creating files slows down while
    many recently written ones still wait for writeback, so files left
    behind would slow every later operation.
    """
    rep_dir.mkdir(parents=True)
    start = time.perf_counter()
    inputs = setup(rep_dir, seed)
    elapsed = time.perf_counter() - start
    if not keep:
        shutil.rmtree(rep_dir)
    return inputs, elapsed


def check_op(inputs: Inputs, op_dir: Path, code: int, log: Path, live_reports: list) -> tuple[list[str], dict]:
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:] if log.exists() else []
        return [f"exit code {code}: {' '.join(tail)}"], {}
    problems, digests = check_outputs(inputs.out_dir(op_dir), inputs.expected)
    if inputs.live:  # the live driver reports its upstream traffic
        try:
            report = json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])
        except (ValueError, IndexError):
            return problems + ["the live driver printed no traffic report"], digests
        queries = 28 * inputs.countries
        if report["client_calls"] != queries + report["throttled"] or report["sleeps"] != report["throttled"]:
            problems.append(f"upstream traffic {report} does not match {queries} queries")
        if live_reports and report != live_reports[0]:
            problems.append(f"upstream traffic {report} differs from the first operation's {live_reports[0]}")
        live_reports.append(report)
    return problems, digests


def run_reference(log: Path, checksums: list[str]) -> tuple[tuple[float, float] | None, str | None]:
    """Run the reference program once: ((wall ms, CPU ms) or None, problem or None).

    Isolated mode (-I) keeps the program's PYTHONPATH, and so anything the
    program under test could put on it, out of the reference.
    """
    code, wall, cpu, _ = spawn([sys.executable, "-I", str(REFERENCE)], log)
    checksum = log.read_text(encoding="utf-8").strip() if code == 0 else ""
    if code != 0 or not checksum:
        return None, f"reference program exited {code}"
    checksums.append(checksum)
    if checksum != checksums[0]:
        return None, f"reference checksum {checksum} differs from {checksums[0]}"
    return (wall * 1e3, cpu * 1e3), None


def tail_percentile(values: list[float]) -> tuple[str, float | None]:
    """The highest of p99/p95/p90/p75/p50 with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            return f"p{pct}", ordered[min(n - 1, int(n * pct / 100))]
    return "none", None


def timed_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    setup = WORKLOADS[name]
    inputs, setup_s = timed_setup(setup, work / "input", seed, keep=True)
    setup_times = [setup_s]
    ops = work / "ops"
    first_digests: dict | None = None
    live_reports: list = []
    samples, failures, attempted = [], [], 0
    ref_checksums: list[str] = []
    refs: list[tuple[float, float]] = []
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        attempted += 1
        op_dir = ops / f"op-{attempted}"
        log = ops / f"op-{attempted}.log"
        code, wall, cpu, rss = spawn(inputs.argv(op_dir), log)
        problems, digests = check_op(inputs, op_dir, code, log, live_reports)
        shutil.rmtree(op_dir, ignore_errors=True)  # see timed_setup
        ref, ref_problem = run_reference(ops / "reference.log", ref_checksums)
        if ref_problem:
            problems.append(ref_problem)
        else:
            refs.append(ref)
        if not problems:
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                changed = sorted(k for k in digests if digests[k] != first_digests.get(k))
                problems.append(f"artifact digests differ from the first operation: {', '.join(changed)}")
        if problems:
            failures.append({"op": attempted, "problems": problems})
        elif deadline is not None:  # the first operation is the untimed warm-up
            samples.append((wall, cpu, rss))
        if deadline is None:
            deadline = time.perf_counter() + seconds
        if not problems:
            log.unlink()
        # Set-up is repeated between operations so that its median samples
        # the machine over the whole run, as the operation times do.
        setup_times.append(timed_setup(setup, work / "setup", seed, keep=False)[1])
    while len(setup_times) < SETUP_MIN_REPS:
        setup_times.append(timed_setup(setup, work / "setup", seed, keep=False)[1])

    # The reference ran after every operation, so its mean time gauges the
    # machine's speed over the same stretch of time as the operations' mean
    # time. Means, not medians: the shared host switches between speeds
    # within seconds, so a run's short operations and reference runs fall
    # into one speed or the other, and a median jumps with the share of
    # each while a mean follows it smoothly. Wall and set-up times are
    # rescaled by the reference's wall time, CPU time by its CPU time.
    walls = [s[0] * 1e3 for s in samples]
    raw = {"setup_s": statistics.median(setup_times)}
    metrics = {}
    pct, tail = "none", None
    if samples and refs:
        wall_scale = REF_NOMINAL_MS / statistics.mean(r[0] for r in refs)
        cpu_scale = REF_NOMINAL_MS / statistics.mean(r[1] for r in refs)
        pct, tail = tail_percentile([w * wall_scale for w in walls])
        raw.update({
            "wall_ms": statistics.median(walls),
            "wall_ms_mean": statistics.mean(walls),
            "cpu_ms": statistics.median(s[1] * 1e3 for s in samples),
            "cpu_ms_mean": statistics.mean(s[1] * 1e3 for s in samples),
            "reference_ms": REF_NOMINAL_MS / wall_scale,
            "reference_cpu_ms": REF_NOMINAL_MS / cpu_scale,
        })
        norm_wall = raw["wall_ms_mean"] * wall_scale
        metrics = {
            "norm_wall_ms": norm_wall,
            "norm_cpu_ms": raw["cpu_ms_mean"] * cpu_scale,
            "norm_countries_per_s": inputs.countries / norm_wall * 1e3,
            "peak_rss_mb": statistics.median(s[2] / 1024 for s in samples),
            "setup_s": raw["setup_s"] * wall_scale,
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "info": {
            "samples": len(samples),
            "norm_wall_ms_tail": {"percentile": pct, "value": tail, "samples": len(walls)},
            "error_rate": len(failures) / attempted,
            "raw": raw,
            "setup_s_samples": setup_times,
            "wall_ms_samples": walls,
            "cpu_ms_samples": [s[1] * 1e3 for s in samples],
            "reference_samples": refs,
        },
        "countries": inputs.countries,
        "expected": {k: v for k, v in inputs.expected.items() if k != "countries"},
        "digests": first_digests,
        "upstream": live_reports[0] if live_reports else None,
    }


# --------------------------------------------------------------------------
# traced run (--trace 1)
# --------------------------------------------------------------------------

def probe(code: str, log: Path) -> tuple[float, str]:
    exit_code, wall, _, _ = spawn([sys.executable, "-c", code], log)
    if exit_code != 0:
        raise RuntimeError(f"probe {code!r} exited {exit_code}: {log.read_text(encoding='utf-8')[-300:]}")
    return wall * 1e3, log.read_text(encoding="utf-8")


def cli_probes(work: Path) -> tuple[dict, list[str]]:
    """Interpreter start, `import admac.cli`, and the modules it imports."""
    log = work / "probe.log"
    probe("import admac.cli", log)  # fill the bytecode cache first
    interp = [probe("pass", log)[0] for _ in range(PROBE_REPS)]
    imported = [probe("import admac.cli", log)[0] for _ in range(PROBE_REPS)]
    counts = [
        int(probe("import sys; n = len(sys.modules); import admac.cli; print(len(sys.modules) - n)", log)[1])
        for _ in range(3)
    ]
    varied = ["cli.modules_imported"] if len(set(counts)) > 1 else []
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imported) - statistics.median(interp),
        "cli.modules_imported": counts[0],
    }, varied


def failed_run(message: str, attempted: int = 1) -> dict:
    return {"metrics": {}, "attempted": attempted, "failed": 1, "failures": [{"problems": [message]}]}


def traced_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    started = time.perf_counter()
    (work / "input").mkdir(parents=True)
    inputs = WORKLOADS[name](work / "input", seed)
    try:
        metrics, varied = cli_probes(work)
    except RuntimeError as exc:
        return failed_run(str(exc))
    n_world = world_pair_count(len(world_countries(DATA / "continents.csv")))
    remaining = max(1.0, seconds - (time.perf_counter() - started))
    argv = [
        sys.executable, str(BENCH_DIR / "traced.py"), "--workload", name, "--work", str(work / "passes"),
        "--seed", str(seed), "--seconds", f"{remaining:.3f}", "--n-world", str(n_world),
        "--spans", str(WORK / "results" / f"{name}-spans.jsonl"),
    ]
    if inputs.world is not None:
        argv += ["--world", str(inputs.world)]
    log = work / "traced.log"
    code, _, _, _ = spawn(argv, log, timeout_s=seconds + 60)
    if code != 0:
        return failed_run(f"traced run exited {code}: {log.read_text(encoding='utf-8')[-2000:]}")
    result = json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])

    passes = result["passes"]
    failures = [{"pass": i, "problems": p["problems"]} for i, p in enumerate(passes) if p["problems"]]
    digests = {p["digest"] for p in passes if not p["problems"]}
    if len(digests) > 1:
        failures.append({"pass": None, "problems": [f"{len(digests)} distinct artifact digests across passes"]})
    traced = [p for p in passes if p["traced"] and not p["problems"]]
    untraced = [p for p in passes if not p["traced"] and not p.get("warmup") and not p["problems"]]
    if not traced or not untraced:
        return failed_run("no complete traced/untraced pass pair", attempted=len(passes))

    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        if key.endswith(("_ms", "_us", "_pct")):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if key in EXACT_COUNTS and len(set(values)) > 1:
                varied.append(key)
    traced_ms = statistics.median(p["run_all_ms"] for p in traced)
    untraced_ms = statistics.median(p["run_all_ms"] for p in untraced)
    metrics["pipeline.run_all_ms"] = untraced_ms
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    live = "warm_collect_ms" in untraced[0]
    metrics["ingest.backoff_requested_s"] = traced[0].get("backoff_s", 0.0)
    metrics["ingest.warm_collect_ms"] = statistics.median(p["warm_collect_ms"] for p in untraced) if live else 0.0
    metrics["ingest.cache_hit_ratio"] = statistics.median(p["cache_hit_ratio"] for p in traced) if live else 0.0
    metrics.update(result["kernels"])
    return {
        "metrics": metrics,
        "attempted": len(passes),
        "failed": len(failures),
        "failures": failures,
        "info": {"traced_passes": len(traced), "untraced_passes": len(untraced), "varied_counts": varied,
                 "n_world_pairs": n_world},
        "countries": inputs.countries,
        "digests_combined": sorted(digests),
        "span_table": result["span_table"],
    }


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

def environment(seed: int, workload: str, countries: int, attempted: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = out.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "admac").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(f"{path.relative_to(SRC)}:{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": cpus,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "workload": workload,
        "countries": countries,
        "operations": attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="admac benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "admac" / "__init__.py").is_file() or not (DATA / "continents.csv").is_file():
        print(f"error: no admac sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    signal.signal(signal.SIGALRM, _kill_child)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds, work)
    shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        result["failures"].append({"problems": [f"metrics not measured: {', '.join(missing)}"]})
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    result["environment"] = environment(args.seed, args.workload, result.get("countries", 0), result["attempted"])
    result["metrics"] = metrics

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    env = result["environment"]
    print(f"# {args.workload}: {env['countries']} countries, seed {args.seed}, {env['operations']} operations, "
          f"python {env['python']}, nproc {env['nproc']}, src {env['src_sha256'][:12]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    info = result.get("info", {})
    if "norm_wall_ms_tail" in info:
        tail = info["norm_wall_ms_tail"]
        value = "n/a" if tail["value"] is None else f"{tail['value']:.6g} ms"
        print(f"# norm_wall_ms {tail['percentile']} {value} over {tail['samples']} samples; "
              f"error_rate {info['error_rate']:.6g}")
        raw = info["raw"]
        if "wall_ms" in raw:
            print(f"# raw medians: wall_ms {raw['wall_ms']:.6g}, cpu_ms {raw['cpu_ms']:.6g}, "
                  f"setup_s {raw['setup_s']:.6g}; raw means: wall_ms {raw['wall_ms_mean']:.6g}, "
                  f"cpu_ms {raw['cpu_ms_mean']:.6g}, reference {raw['reference_ms']:.6g} ms")
    for key in info.get("varied_counts", []):
        print(f"# warning: {key} did not repeat exactly across passes")
    for name, digest in sorted((result.get("digests") or {}).items()):
        print(f"# digest {name} {digest}")
    for failure in result["failures"]:
        print(f"# failed: {failure}", file=sys.stderr)
    failed = result["failed"] or (1 if missing else 0)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
