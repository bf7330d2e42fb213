"""Command-line entry point.

Subcommands mirror the pipeline stages (collect, estimate, validate,
calibrate, predict, all). Options may also come from a `key=value` config
file via --config; explicit flags win over the file, the file wins over
built-in defaults. Failures print a machine-readable JSON error report to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from ._version import __version__
from .domain import Sex
from .errors import AdmacError, ConfigError, ParseError
from .fileio import decode_utf8
from .indicators import LowerBoundPolicy
from .ingest import Mode
from .pipeline import (
    RunConfig,
    run_all,
    stage_calibrate,
    stage_collect,
    stage_estimate,
    stage_predict,
    stage_validate,
)

STAGES = {
    "collect": stage_collect,
    "estimate": stage_estimate,
    "validate": stage_validate,
    "calibrate": stage_calibrate,
    "predict": stage_predict,
    "all": run_all,
}

_CONFIG_KEYS = {
    "mode", "fixture_dir", "cache_dir", "truth", "continent_map",
    "sexes", "seed", "lower_bound_policy", "loocv_scope", "countries", "out",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key=value config file; flags override it")
    common.add_argument("--mode", choices=[m.value for m in Mode], help="fixture (default) or live")
    common.add_argument("--fixture-dir", type=Path, help="directory of per-country fixture CSVs")
    common.add_argument("--cache-dir", type=Path, help="live-mode response cache directory")
    common.add_argument("--truth", type=Path, help="ground-truth CSV (iso2,sex,mac,period)")
    common.add_argument("--continent-map", type=Path, help="continent map CSV (iso2,continent)")
    common.add_argument("--sexes", help="comma list, e.g. female,male (default both)")
    common.add_argument("--seed", type=int, help="seed for all randomness (default 0)")
    common.add_argument(
        "--lower-bound-policy",
        choices=[p.value for p in LowerBoundPolicy],
        help="which floor-valued cells disqualify a country (default any)",
    )
    common.add_argument(
        "--loocv-scope", choices=["global", "continent"],
        help="fit LOOCV folds globally (default) or within each continent",
    )
    common.add_argument("--countries", help="comma list of ISO2 codes (default: all fixtures)")
    common.add_argument("--out", type=Path, help="output directory (default ./out)")
    common.add_argument("-v", "--verbose", action="count", default=0)

    parser = argparse.ArgumentParser(
        prog="admac",
        description="Mean age at childbearing from advertising-audience counts: "
        "collect, estimate, validate, calibrate, predict.",
    )
    parser.add_argument("--version", action="version", version=f"admac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("collect", parents=[common], help="fetch audience snapshots")
    sub.add_parser("estimate", parents=[common], help="snapshots -> MAC estimates")
    sub.add_parser("validate", parents=[common], help="metrics vs ground truth (incl. LOOCV)")
    sub.add_parser("calibrate", parents=[common], help="fit the calibration regression")
    sub.add_parser("predict", parents=[common], help="predict MAC where truth is missing")
    sub.add_parser("all", parents=[common], help="run every stage in order")
    return parser


def read_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    try:
        text = decode_utf8(path, path.read_bytes())
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_sexes(raw: str) -> tuple[Sex, ...]:
    sexes = []
    for part in raw.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            sexes.append(Sex(part))
        except ValueError:
            raise ConfigError(f"unknown sex {part!r} (use female,male)") from None
    if not sexes:
        raise ConfigError("no sexes requested")
    return tuple(dict.fromkeys(sexes))


def make_run_config(args: argparse.Namespace) -> RunConfig:
    file_values = read_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str, fallback=None):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return fallback

    def pick_enum(enum_cls, flag_value, key: str, fallback: str):
        raw = pick(flag_value, key, fallback)
        try:
            return enum_cls(raw)
        except ValueError:
            choices = ", ".join(m.value for m in enum_cls)
            raise ConfigError(f"{key} must be one of: {choices}; got {raw!r}") from None

    kwargs = {}
    kwargs["output_dir"] = Path(pick(args.out, "out", Path("out")))
    kwargs["mode"] = pick_enum(Mode, args.mode, "mode", Mode.FIXTURE.value)
    fixture_dir = pick(args.fixture_dir, "fixture_dir")
    if fixture_dir is not None:
        kwargs["fixture_dir"] = Path(fixture_dir)
    cache_dir = pick(args.cache_dir, "cache_dir")
    if cache_dir is not None:
        kwargs["cache_dir"] = Path(cache_dir)
    truth = pick(args.truth, "truth")
    if truth is not None:
        kwargs["truth_path"] = Path(truth)
    continent_map = pick(args.continent_map, "continent_map")
    if continent_map is not None:
        kwargs["continent_map_path"] = Path(continent_map)
    sexes = pick(args.sexes, "sexes")
    if sexes is not None:
        kwargs["sexes"] = _parse_sexes(sexes)
    seed = pick(args.seed, "seed", 0)
    try:
        kwargs["seed"] = int(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    kwargs["lower_bound_policy"] = pick_enum(
        LowerBoundPolicy, args.lower_bound_policy, "lower_bound_policy", LowerBoundPolicy.ANY.value
    )
    kwargs["loocv_scope"] = pick(args.loocv_scope, "loocv_scope", "global")
    countries = pick(args.countries, "countries")
    if countries is not None:
        parsed = tuple(c.strip().upper() for c in countries.split(",") if c.strip())
        if not parsed:
            raise ConfigError("countries list is empty")
        kwargs["countries"] = parsed
    return RunConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = make_run_config(args)
        written = STAGES[args.command](cfg)
    except (AdmacError, OSError) as exc:
        report = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
        }
        print(json.dumps(report), file=sys.stderr)
        return 1
    if isinstance(written, Path):
        written = [written]
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
