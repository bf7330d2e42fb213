"""Output check shared by the timed and the traced runs.

An operation passes when the full artifact set of `admac all` is present
and the estimate and prediction row counts match what the workload's
inputs imply. Digest comparison across operations is left to the caller,
which knows the workload's reference.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from world import data_rows

ARTIFACTS = (
    "estimates.csv",
    "metrics_female.csv",
    "metrics_male.csv",
    "model_female.json",
    "model_male.json",
    "predictions.csv",
    "map.geojson",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path, expected: dict) -> tuple[list[str], dict[str, str]]:
    """(problems, digests) for one operation's output directory."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    countries = expected["countries"]
    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    missing += [f"snapshots/{c}.csv" for c in countries if not (out_dir / "snapshots" / f"{c}.csv").is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing[:5])}{' ...' if len(missing) > 5 else ''}"], digests

    for name in ARTIFACTS:
        digests[name] = _sha256(out_dir / name)
    snapshots = hashlib.sha256()
    for c in countries:
        snapshots.update(f"{c}:{_sha256(out_dir / 'snapshots' / f'{c}.csv')}\n".encode())
    digests["snapshots"] = snapshots.hexdigest()

    estimates = data_rows(out_dir / "estimates.csv")
    predictions = data_rows(out_dir / "predictions.csv")
    for sex in ("female", "male"):
        seen = sorted(row[0] for row in estimates if row[1] == sex)
        if seen != countries:
            problems.append(f"estimates.csv has {len(seen)} {sex} rows, expected {len(countries)}")
        eligible = sum(1 for row in estimates if row[1] == sex and row[3] == "true")
        if eligible != expected["eligible"][sex]:
            problems.append(f"{eligible} eligible {sex} estimates, expected {expected['eligible'][sex]}")
        predicted = sum(1 for row in predictions if row[1] == sex)
        if predicted != expected["predictions"][sex]:
            problems.append(f"{predicted} {sex} predictions, expected {expected['predictions'][sex]}")
    return problems, digests


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in sorted(digests.items())).encode()).hexdigest()
