"""Command-line entry point: `admac COMMAND [options]`, options before or after COMMAND.

COMMAND is a pipeline stage (collect, estimate, validate, calibrate, predict) or all.
Each run option is one `OPTIONS` entry, a flag or a `key=value` line of a --config file;
flags win over the file, the file over the defaults, and a bad, empty or repeated value
is a ConfigError. Every failure prints a one-line JSON error report to stderr and exits
1; argparse exits 2 for syntax only: an unknown flag or command, a missing command or value.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .errors import AdmacError, ConfigError, ParseError
from .fileio import decode_utf8
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


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# option key -> (RunConfig field, parser of its text, help); a parser raises
# ValueError on a bad text, and the help then says what to use instead
OPTIONS = {
    "mode": ("mode", str, "fixture (default) or live"),
    "fixture_dir": ("fixture_dir", Path, "a directory of per-country fixture CSVs"),
    "cache_dir": ("cache_dir", Path, "the live-mode response cache directory"),
    "truth": ("truth_path", Path, "a ground-truth CSV (iso2,sex,mac,period)"),
    "continent_map": ("continent_map_path", Path, "a continent map CSV (iso2,continent)"),
    "sexes": ("sexes", _comma_list, "a comma list of female, male (default both)"),
    "seed": ("seed", int, "an integer seeding all randomness (default 0)"),
    "lower_bound_policy": (
        "lower_bound_policy", str,
        "any (default) or parents-only: which floor-valued cells disqualify a country",
    ),
    "loocv_scope": (
        "loocv_scope", str, "global (default) or continent: fit LOOCV folds over all pairs or per continent"
    ),
    "countries": ("countries", _comma_list, "a comma list of ISO2 codes (default: all fixtures)"),
    "out": ("output_dir", Path, "the output directory (default ./out)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admac", description="Mean age at childbearing from advertising-audience counts."
    )
    parser.add_argument("--version", action="version", version=f"admac {__version__}")
    parser.add_argument(
        "command",
        choices=STAGES,
        help="collect (fetch audience snapshots), estimate (snapshots -> MAC estimates), validate (metrics vs "
        "ground truth, incl. LOOCV), calibrate (fit the calibration regression), predict (predict MAC where "
        "truth is missing) or all (run every stage in order)",
    )
    parser.add_argument(
        "--config", type=Path, help="file of key=value lines, a key per flag (seed, loocv_scope, ...)"
    )
    for key, (_, _, help_text) in OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=help_text)
    parser.add_argument("-v", "--verbose", action="count", default=0, help="log each throttled retry (INFO)")
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
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key} is given a second time")
        values[key] = value
    return values


def make_run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags in `args` laid over the lines of their --config file."""
    flags = vars(args)
    texts = read_config_file(args.config) if args.config else {}
    texts.update((key, flags[key]) for key in OPTIONS if flags[key] is not None)
    kwargs = {"output_dir": Path("out")}
    for key, text in texts.items():
        field, parse, help_text = OPTIONS[key]
        if not text.strip():
            raise ConfigError(f"{key}: empty value")
        try:
            kwargs[field] = parse(text)
        except ValueError:
            raise ConfigError(f"{key}: {text!r} is not valid; use {help_text}") from None
    return RunConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO if args.verbose else logging.WARNING
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
    for path in written:
        print(f"wrote {path}")
    return 0


def run() -> None:
    """The process entry (`admac`, `python -m admac.cli`): `main` on sys.argv, then exit with its status.

    The objects made by the imports (modules, functions, classes) live until exit, so they
    are frozen out of the collector first: exit then does not walk them through it. What
    `main` allocates is collected as usual; `main` called in-process freezes nothing.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
