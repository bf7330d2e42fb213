"""Staged equals `all`, as a seeded property over options and inputs.

`run_all` hands collect's snapshots to estimate in memory, and the stages
after estimate their shared inputs; each hand-over is a second path that
must write what the disk path writes. For every drawn input (the bundled
demo or one of two seeded `bench/world.py` worlds), seed, lower-bound
policy, LOOCV scope, sex list and country subset, `run_all` into one
directory and the five stage calls into another leave identical trees and
end in the same outcome: success, or the same `AdmacError` type and message.
Both directories may first hold one earlier run over another country subset
of the same input, with the case's other options; when the case succeeds,
the rerun's tree is also that of a fresh `run_all` of the case.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from admac import pipeline
from admac.domain import AudienceSnapshot
from admac.errors import AdmacError
from admac.indicators import LowerBoundPolicy
from admac.ingest import DEFAULT_EXCLUDED, fixture_countries, read_cells_csv
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
    """A case's RunConfig options, and the countries of its earlier run (None: no earlier run)."""
    name = draw(st.sampled_from(sorted(table)))
    fixtures, truth, codes = table[name]
    kept, earlier = (draw(st.none() | st.integers(min_value=1, max_value=len(codes))) for _ in range(2))
    case = {
        "fixture_dir": fixtures,
        "truth_path": truth,
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "lower_bound_policy": draw(st.sampled_from([p.value for p in LowerBoundPolicy])),
        "loocv_scope": draw(st.sampled_from(["global", "continent"])),
        "sexes": draw(st.sampled_from(SEXES)),
        "countries": None if kept is None else tuple(draw(st.permutations(codes))[:kept]),
    }
    return case, None if earlier is None else tuple(draw(st.permutations(codes))[:earlier])


def tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def outcome(out: Path, run) -> tuple[str, str] | None:
    """None when `run` succeeds, else its AdmacError's type and message with `out` masked."""
    try:
        run()
    except AdmacError as exc:
        return type(exc).__name__, str(exc).replace(str(out), "<out>")
    return None


def staged_equals_all(case: dict, earlier: tuple[str, ...] | None, root: Path) -> None:
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        combined, staged, fresh = Path(scratch, "combined"), Path(scratch, "staged"), Path(scratch, "fresh")
        if earlier is not None:  # whatever it leaves, a failure part way too
            outcome(combined, lambda: pipeline.run_all(RunConfig(combined, **{**case, "countries": earlier})))
            shutil.copytree(combined, staged)
        cfg = RunConfig(combined, **case)
        combined_outcome = outcome(combined, lambda: pipeline.run_all(cfg))

        def stage_by_stage():
            cfg = RunConfig(staged, **case)
            for stage in STAGES:
                getattr(pipeline, f"stage_{stage}")(cfg)

        assert outcome(staged, stage_by_stage) == combined_outcome
        assert tree(staged) == tree(combined)
        if combined_outcome is None:
            pipeline.run_all(RunConfig(fresh, **case))
            assert tree(combined) == tree(fresh), "a rerun differs from a fresh run"


def check(inputs, **overrides) -> None:
    table, root = inputs

    @settings(PROFILE, **overrides)
    @given(drawn=cases(table))
    def prop(drawn):
        staged_equals_all(*drawn, root)

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


def test_property_catches_a_collect_that_keeps_the_earlier_runs_extra_snapshots(inputs, monkeypatch):
    # planted bug: collect leaves an earlier run's snapshots of countries it did not collect,
    # and hands them to estimate in memory too, so only a rerun against a fresh run differs
    collect = pipeline.stage_collect

    def keep_earlier(cfg, collector=None, collected=None):
        earlier = {p.name: p.read_bytes() for p in cfg.snapshots_dir.glob("*.csv")}
        written = collect(cfg, collector, collected)
        for name in sorted(earlier.keys() - {p.name for p in written}):
            path, iso2 = cfg.snapshots_dir / name, name.removesuffix(".csv")
            path.write_bytes(earlier[name])
            written.append(path)
            if collected is not None:
                snapshot = AudienceSnapshot(iso2, read_cells_csv(path, iso2)[iso2])
                collected.append((path, hashlib.sha256(earlier[name]).hexdigest(), snapshot))
        if collected is not None:
            collected.sort(key=lambda item: item[0].name)  # the order estimate reads files in
        return written

    monkeypatch.setattr(pipeline, "stage_collect", keep_earlier)
    with pytest.raises(AssertionError, match="a rerun differs from a fresh run"):
        check(inputs, phases=[Phase.generate])
