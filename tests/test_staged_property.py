"""Staged equals `all`, as a seeded property over options and inputs.

`run_all` hands collect's snapshots to estimate in memory, and the stages
after estimate their shared inputs; each hand-over is a second path that
must write what the disk path writes. For every drawn input (the bundled
demo or one of two seeded `bench/world.py` worlds), seed, lower-bound
policy, LOOCV scope, sex list and country subset, `run_all` into one
directory and the five stage calls into another leave identical trees and
end in the same outcome: success, or the same `AdmacError` type and message.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from admac import pipeline
from admac.errors import AdmacError
from admac.indicators import LowerBoundPolicy
from admac.ingest import DEFAULT_EXCLUDED, fixture_countries
from admac.pipeline import RunConfig, packaged_data_path

STAGES = ("collect", "estimate", "validate", "calibrate", "predict")
SEXES = (("female", "male"), ("male", "female"), ("female",), ("male",))
PROFILE = settings(
    derandomize=True,
    database=None,
    max_examples=14,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def inputs(small_worlds, tmp_path_factory):
    """name -> (fixture dir, truth table, the countries a default run collects), and a scratch root."""
    sources = {"demo": (packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")), **small_worlds}
    table = {
        name: (fixtures, truth, [c for c in fixture_countries(fixtures) if c not in DEFAULT_EXCLUDED])
        for name, (fixtures, truth) in sources.items()
    }
    return table, tmp_path_factory.mktemp("staged-property")


@st.composite
def cases(draw, table):
    name = draw(st.sampled_from(sorted(table)))
    fixtures, truth, codes = table[name]
    kept = draw(st.none() | st.integers(min_value=1, max_value=len(codes)))
    return {
        "fixture_dir": fixtures,
        "truth_path": truth,
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "lower_bound_policy": draw(st.sampled_from([p.value for p in LowerBoundPolicy])),
        "loocv_scope": draw(st.sampled_from(["global", "continent"])),
        "sexes": draw(st.sampled_from(SEXES)),
        "countries": None if kept is None else tuple(draw(st.permutations(codes))[:kept]),
    }


def tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def outcome(out: Path, run) -> tuple[str, str] | None:
    """None when `run` succeeds, else its AdmacError's type and message with `out` masked."""
    try:
        run()
    except AdmacError as exc:
        return type(exc).__name__, str(exc).replace(str(out), "<out>")
    return None


def staged_equals_all(case: dict, root: Path) -> None:
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        combined, staged = Path(scratch, "combined"), Path(scratch, "staged")
        cfg = RunConfig(combined, **case)
        combined_outcome = outcome(combined, lambda: pipeline.run_all(cfg))

        def stage_by_stage():
            cfg = RunConfig(staged, **case)
            for stage in STAGES:
                getattr(pipeline, f"stage_{stage}")(cfg)

        assert outcome(staged, stage_by_stage) == combined_outcome
        assert tree(staged) == tree(combined)


def check(inputs, **overrides) -> None:
    table, root = inputs

    @settings(PROFILE, **overrides)
    @given(case=cases(table))
    def prop(case):
        staged_equals_all(case, root)

    prop()


def test_staged_run_equals_all(inputs):
    check(inputs)


def test_property_catches_an_all_that_drops_the_last_snapshot(inputs, monkeypatch):
    # planted bug: estimate, handed the snapshots in memory, loses the last one
    estimate = pipeline.stage_estimate

    def drop_last(cfg, collected=None):
        return estimate(cfg, collected if collected is None else collected[:-1])

    monkeypatch.setattr(pipeline, "stage_estimate", drop_last)
    with pytest.raises(AssertionError):
        check(inputs, phases=[Phase.generate])
