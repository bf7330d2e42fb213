"""Stage orchestration: collect -> estimate -> validate -> calibrate ->
predict, with plain CSV/JSON artifacts between stages.

Stages hand each other two files: the snapshots (collect -> estimate) and
estimates.csv (estimate -> validate, calibrate, predict), which the last
three join with the truth table per sex. Only validate, which scores the
pairs by continent, reads the continent map. Validate and calibrate write
reports that no stage reads: predict fits the calibration it applies
itself. The later stages write their files atomically; every stage stamps
a metadata header (tool version, seed, input digests) so any artifact can
be traced to its inputs. No timestamps are embedded: identical config +
inputs = identical bytes.

Collect writes its snapshots plainly into a hidden directory and swaps it
in for snapshots/ whole: a collect that succeeds leaves there exactly the
countries it collected, and one that fails the earlier set, so every
estimate reads one set. `run_all` hands that set to `estimate` in memory,
with the digests of the bytes written, rather than reading it back. It then
reads estimates.csv and the truth table once and hands their joins to the
last three stages, so a warning about a truth row is logged once per run.
The artifacts are the same bytes as when the stages run one by one.
"""

from __future__ import annotations

import logging
import math
import os
import shutil
from enum import Enum
from pathlib import Path

from .domain import AudienceSnapshot, Sex, iso2_code
from .errors import (
    ConfigError,
    MissingStageInput,
    ParseError,
    TooFewPoints,
)
from .fileio import read_table, sha256, standard_metadata, write_csv, write_json
from .groundtruth import MAC_MAX, MAC_MIN, JoinResult, load_continent_map, load_ground_truth, join_pairs
from .indicators import (
    IneligibilityReason,
    LowerBoundPolicy,
    MacEstimate,
    estimate_country,
)
from .ingest import (
    DEFAULT_EXCLUDED,
    Collector,
    CollectorConfig,
    Mode,
    file_country,
    fixture_countries,
    read_cells_csv,
    write_cells_csv,
)
from .predict import emit_choropleth, predict_missing
from .stats import (
    UNKNOWN_CONTINENT,
    CalibrationModel,
    GroupedMetrics,
    cv_percent,
    grouped_metrics,
    loocv,
    ols_fit,
    random_split_validation,
    significance_stars,
)

logger = logging.getLogger(__name__)

ESTIMATE_COLUMNS = ["iso2", "sex", "mac", "eligible", "reason"]
METRICS_COLUMNS = [
    "continent",
    "metric_corr",
    "metric_mape",
    "loocv_corr",
    "loocv_mape",
    "n",
    "metric_corr_stars",
    "loocv_corr_stars",
]
PREDICTION_COLUMNS = ["iso2", "sex", "mac_fb", "mac_predicted", "pi_low", "pi_high"]

RANDOM_SPLIT_RUNS = 10
RANDOM_SPLIT_TEST_SIZE = 10


def packaged_data_path(*parts: str) -> Path:
    """Path of a bundled data file (continent map, demo fixtures, demo truth)."""
    return Path(__file__).parent.joinpath("data", *parts)


def _member(key: str, enum: type[Enum], value: str, fold: bool = False) -> Enum:
    """`value` (lower-cased if `fold`) as a member of `enum`; else a ConfigError naming `key`."""
    try:
        return enum(value.lower() if fold else value)
    except ValueError:
        raise ConfigError(f"{key}: {value!r} is not one of: {', '.join(m.value for m in enum)}") from None


class RunConfig:
    """One pipeline run, fully determined by these fields plus the fixtures.

    The input paths default to the bundled demo data, live mode's cache_dir
    to output_dir/cache. Mode, policy and each sex (in any case; kept once,
    in order) are read through their enums, `countries` as ISO2 codes in
    capitals (`iso2_code`), once each and sorted. A bad value or an empty
    list is a ConfigError naming its key. Live mode needs `countries`: without
    them it is a ConfigError naming `mode`, raised before any token is read.
    """

    __slots__ = (
        "output_dir", "mode", "fixture_dir", "cache_dir", "truth_path", "continent_map_path",
        "sexes", "seed", "lower_bound_policy", "loocv_scope", "countries",
    )

    def __init__(
        self,
        output_dir: Path,
        mode: Mode = Mode.FIXTURE,
        fixture_dir: Path | None = None,
        cache_dir: Path | None = None,
        truth_path: Path | None = None,
        continent_map_path: Path | None = None,
        sexes: tuple[Sex, ...] = (Sex.FEMALE, Sex.MALE),
        seed: int = 0,
        lower_bound_policy: LowerBoundPolicy = LowerBoundPolicy.ANY,
        loocv_scope: str = "global",
        countries: tuple[str, ...] | None = None,
    ) -> None:
        mode = _member("mode", Mode, mode)
        lower_bound_policy = _member("lower_bound_policy", LowerBoundPolicy, lower_bound_policy)
        sexes = tuple(dict.fromkeys(_member("sexes", Sex, sex, fold=True) for sex in sexes))
        if not sexes:
            raise ConfigError("sexes: at least one must be requested")
        if loocv_scope not in ("global", "continent"):
            raise ConfigError(f"loocv_scope: {loocv_scope!r} is not one of: global, continent")
        if countries is not None:
            try:
                countries = tuple(sorted({iso2_code(iso2) for iso2 in countries}))
            except ValueError as exc:
                raise ConfigError(f"countries: {exc}") from None
            if not countries:
                raise ConfigError("countries: the list is empty")
        elif mode is Mode.LIVE:
            raise ConfigError("mode: live needs an explicit list of countries")
        self.output_dir = Path(output_dir)
        self.mode = mode
        self.fixture_dir = packaged_data_path("fixtures") if fixture_dir is None else Path(fixture_dir)
        if cache_dir is None and mode is Mode.LIVE:
            cache_dir = self.output_dir / "cache"
        self.cache_dir = cache_dir
        self.truth_path = packaged_data_path("ground_truth.csv") if truth_path is None else Path(truth_path)
        self.continent_map_path = (
            packaged_data_path("continents.csv") if continent_map_path is None else Path(continent_map_path)
        )
        self.sexes = sexes
        self.seed = seed
        self.lower_bound_policy = lower_bound_policy
        self.loocv_scope = loocv_scope
        self.countries = countries

    # stage artifact locations -------------------------------------------------
    @property
    def snapshots_dir(self) -> Path:
        return self.output_dir / "snapshots"

    @property
    def estimates_path(self) -> Path:
        return self.output_dir / "estimates.csv"

    def metrics_path(self, sex: Sex) -> Path:
        return self.output_dir / f"metrics_{sex.value}.csv"

    def model_path(self, sex: Sex) -> Path:
        return self.output_dir / f"model_{sex.value}.json"

    @property
    def predictions_path(self) -> Path:
        return self.output_dir / "predictions.csv"

    @property
    def map_path(self) -> Path:
        return self.output_dir / "map.geojson"


# --------------------------------------------------------------------------
# collect
# --------------------------------------------------------------------------

# One collect's snapshots in the order written: (path, digest of its bytes, snapshot).
Collected = list[tuple[Path, str, AudienceSnapshot]]


def stage_collect(
    cfg: RunConfig, collector: Collector | None = None, collected: Collected | None = None
) -> list[Path]:
    """Snapshot every requested country into output_dir/snapshots/.

    The countries are `cfg.countries` or, when none are given (fixture
    mode alone allows that; `RunConfig` holds the rule), every fixture
    file's country that is not excluded; none at all is a ConfigError saying
    why. An excluded country in the list fails the stage before any request
    is sent or snapshot written. A country whose collection comes back
    incomplete is written with the cells that did arrive; the estimate
    stage will mark the affected sexes ineligible rather than this stage
    failing the whole run. The set is written plainly into a hidden directory
    beside snapshots/, which replaces the snapshots/ directory whole once every
    file is written, with one warning naming the earlier set's files the new set
    lacks; a collect that fails, or finds no directory at snapshots/, leaves it
    as it was. Each written snapshot, partial or not, is also appended to
    `collected`, when given, for `stage_estimate`, with its path under snapshots/.
    """
    collector = collector or Collector(CollectorConfig(cfg.mode, cfg.fixture_dir, cfg.cache_dir))
    listed = () if cfg.countries else fixture_countries(cfg.fixture_dir)
    wanted = cfg.countries or [c for c in listed if c not in DEFAULT_EXCLUDED]
    if not wanted:
        if not cfg.fixture_dir.exists():
            why = "does not exist"
        elif not cfg.fixture_dir.is_dir():
            why = "is not a directory"
        elif listed:
            why = f"holds only excluded countries: {', '.join(listed)}"
        else:
            why = "holds no <ISO2>.csv file"
        raise ConfigError(f"no countries to collect: fixture directory {cfg.fixture_dir} {why}")

    final = cfg.snapshots_dir
    staging, aside = (final.with_name(f".{final.name}.{os.urandom(6).hex()}.{end}") for end in ("tmp", "old"))
    snapshots = collector.collect_snapshots(wanted)
    staging.mkdir(parents=True)
    written: list[Path] = []
    try:
        for snapshot in snapshots:
            iso2 = snapshot.country
            fixture = collector.fixture_digest(iso2)
            inputs = {} if fixture is None else {f"fixture_{iso2}": fixture}
            path = final / f"{iso2}.csv"
            meta = standard_metadata(seed=cfg.seed, inputs=inputs)
            digest = write_cells_csv(staging / path.name, iso2, snapshot.cells, meta=meta)
            if collected is not None:
                collected.append((path, digest, snapshot))
            written.append(path)
        stale = sorted(set(final.glob("*.csv")).difference(written))
        if final.is_dir() and not final.is_symlink():
            os.rename(final, aside)
        try:
            os.rename(staging, final)
        except BaseException:
            if aside.exists():
                os.rename(aside, final)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(aside, ignore_errors=True)
    if stale:
        logger.warning("collect: removed snapshots it did not write: %s", ", ".join(p.name for p in stale))
    return written


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------

def stage_estimate(cfg: RunConfig, collected: Collected | None = None) -> list[Path]:
    """MAC estimates (or ineligibility reasons) for every collected country.

    The snapshots are `collected`, when given (`run_all` hands over what
    `stage_collect` wrote), taken as they are; otherwise every file under
    snapshots/, each read once to hash and to parse.
    """
    if collected is None:
        if not cfg.snapshots_dir.is_dir():
            raise MissingStageInput(f"{cfg.snapshots_dir} not found; run `collect` first")
        collected = []
        for path in sorted(cfg.snapshots_dir.glob("*.csv")):
            iso2 = file_country(path)
            data = path.read_bytes()
            snapshot = AudienceSnapshot(iso2, read_cells_csv(path, iso2, data=data)[iso2])
            collected.append((path, sha256(data).hexdigest(), snapshot))
    if not collected:
        raise MissingStageInput(f"no snapshots under {cfg.snapshots_dir}; run `collect` first")
    combined = sha256()
    rows: list[list[str]] = []
    for path, digest, snapshot in collected:
        combined.update(path.name.encode())
        combined.update(bytes.fromhex(digest))
        for sex in cfg.sexes:
            est = estimate_country(snapshot, sex, cfg.lower_bound_policy)
            rows.append(
                [
                    snapshot.country,
                    sex.value,
                    "" if est.mac is None else str(est.mac),
                    "true" if est.eligible else "false",
                    "" if est.ineligibility_reason is None else est.ineligibility_reason.value,
                ]
            )
    meta = standard_metadata(seed=cfg.seed, inputs={"snapshots": combined.hexdigest()})
    meta["lower_bound_policy"] = cfg.lower_bound_policy.value
    write_csv(cfg.estimates_path, meta, ESTIMATE_COLUMNS, rows)
    return [cfg.estimates_path]


def load_estimates(path: Path, *, data: bytes | None = None) -> list[MacEstimate]:
    """Read estimates.csv back. A row `stage_estimate` never writes raises ParseError with its
    line: a wrong field count, a field that does not parse, an iso2 not in capitals, a
    repeated (iso2, sex), a row that breaks an invariant `MacEstimate` holds, and an
    eligible mac outside the truth window [MAC_MIN, MAC_MAX]."""
    rows = read_table(path, ESTIMATE_COLUMNS, data=data)
    estimates: list[MacEstimate] = []
    seen: set[tuple[str, Sex]] = set()
    for lineno, row in rows:
        try:
            if len(row) != len(ESTIMATE_COLUMNS):
                raise ValueError(f"expected {len(ESTIMATE_COLUMNS)} fields, got {len(row)}")
            iso2, sex, mac_raw, eligible, reason = row
            if iso2_code(iso2) != iso2:
                raise ValueError(f"{iso2!r} is not in capitals")
            if eligible not in ("true", "false"):
                raise ValueError(f"eligible must be true or false, got {eligible!r}")
            est = MacEstimate(
                country=iso2,
                sex=Sex(sex),
                mac=float(mac_raw) if mac_raw else None,
                eligible=eligible == "true",
                ineligibility_reason=IneligibilityReason(reason) if reason else None,
            )
            if est.eligible and not MAC_MIN <= est.mac <= MAC_MAX:
                raise ValueError(f"mac {est.mac:.6g} outside [{MAC_MIN:g}, {MAC_MAX:g}]")
            key = (est.country, est.sex)
            if key in seen:
                raise ValueError(f"a second row for ({key[0]}, {key[1].value})")
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from exc
        seen.add(key)
        estimates.append(est)
    return estimates


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def _read_input(path: Path, missing: str) -> tuple[bytes, str]:
    """A stage input's bytes and their SHA-256 hex digest; MissingStageInput(`missing`) when absent."""
    if not path.exists():
        raise MissingStageInput(missing)
    data = path.read_bytes()
    return data, sha256(data).hexdigest()


Joins = tuple[dict[str, str], dict[Sex, JoinResult]]


def _load_joins(cfg: RunConfig) -> Joins:
    """What validate, calibrate and predict share: the digests of estimates.csv
    and the truth table (`estimates`, `truth`), and per sex of `cfg.sexes` the
    join of its eligible estimates with its truth records. Each file is read
    once, to hash and to parse. A stage run alone loads its own; `run_all`
    loads once and hands the result to all three."""
    inputs: dict[str, str] = {}
    estimates_data, inputs["estimates"] = _read_input(
        cfg.estimates_path, f"{cfg.estimates_path} not found; run `estimate` first"
    )
    truth_data, inputs["truth"] = _read_input(cfg.truth_path, f"ground truth file {cfg.truth_path} not found")
    estimates = load_estimates(cfg.estimates_path, data=estimates_data)
    truth = load_ground_truth(cfg.truth_path, data=truth_data)
    joins = {}
    for sex in cfg.sexes:
        eligible = [(e.country, sex, e.mac) for e in estimates if e.eligible and e.sex == sex]
        joins[sex] = join_pairs(eligible, [t for t in truth if t.sex == sex])
    return inputs, joins


def _metric_cell_fields(cell) -> tuple[str, str, str]:
    if cell is None:
        return "", "", ""
    rho = "" if cell.spearman_rho is None else str(cell.spearman_rho)
    stars = significance_stars(cell.spearman_p)
    return rho, str(cell.mape), stars


def _write_metrics(path: Path, meta: dict[str, str], direct: GroupedMetrics, cv: GroupedMetrics) -> None:
    labels = sorted(direct.per_continent)  # not the dict's order
    groups = [(label, direct.per_continent[label], cv.per_continent.get(label)) for label in labels]
    groups.append(("Overall", direct.overall, cv.overall))
    rows = []
    for label, d, c in groups:
        d_rho, d_mape, d_stars = _metric_cell_fields(d)
        c_rho, c_mape, c_stars = _metric_cell_fields(c)
        rows.append([label, d_rho, d_mape, c_rho, c_mape, str(d.n), d_stars, c_stars])
    write_csv(path, meta, METRICS_COLUMNS, rows)


def stage_validate(cfg: RunConfig, joins: Joins | None = None) -> list[Path]:
    """Spearman/MAPE of platform vs truth, direct and under LOOCV, by continent.

    The pairs are `joins`, when given, else `_load_joins(cfg)`; the continent
    map is read here. Every sex is computed before any file is written, so a
    sex that fails leaves the metrics of an earlier run as they were."""
    inputs, sex_joins = joins or _load_joins(cfg)
    continents_data, continents = _read_input(
        cfg.continent_map_path, f"continent map file {cfg.continent_map_path} not found"
    )
    inputs = {**inputs, "continents": continents}  # a copy: the other stages do not read the map
    continent_map = load_continent_map(cfg.continent_map_path, data=continents_data)
    results = []
    for sex in cfg.sexes:
        join = sex_joins[sex]
        pairs = join.pairs
        if len(pairs) < 4:
            raise TooFewPoints(
                f"validate/{sex.value}: LOOCV needs at least 4 matched pairs, got {len(pairs)}"
            )
        direct = grouped_metrics(
            (continent_map.get(p.country, UNKNOWN_CONTINENT), p.mac_fb, p.mac_truth) for p in pairs
        )
        _, cv = loocv(pairs, continent_map, scope=cfg.loocv_scope)
        meta = standard_metadata(seed=cfg.seed, inputs=inputs)
        meta["sex"] = sex.value
        meta["loocv_scope"] = cfg.loocv_scope
        meta["n_pairs"] = str(len(pairs))
        meta["n_unmatched_estimates"] = str(len(join.unmatched_estimates))
        meta["n_unmatched_truth"] = str(len(join.unmatched_truth))
        results.append((cfg.metrics_path(sex), meta, direct, cv))
    for path, meta, direct, cv in results:
        _write_metrics(path, meta, direct, cv)
    return [path for path, *_ in results]


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

def _model_payload(model: CalibrationModel) -> dict:
    payload = model._asdict()
    payload["stars"] = {
        "intercept": significance_stars(model.p_intercept),
        "slope": significance_stars(model.p_slope),
        "f": significance_stars(model.p_f),
    }
    if math.isinf(model.f_stat):  # a perfect fit: JSON cannot hold an infinite F
        payload["f_stat"] = None
    return payload


def _fit_for_sex(stage: str, sex: Sex, join: JoinResult) -> CalibrationModel:
    """The calibration fitted on the sex's pairs; calibrate and predict
    both fit through here, so they apply one model."""
    if len(join.pairs) < 3:
        raise TooFewPoints(
            f"{stage}/{sex.value}: regression needs at least 3 matched pairs, got {len(join.pairs)}"
        )
    return ols_fit(join.pairs)


def stage_calibrate(cfg: RunConfig, joins: Joins | None = None) -> list[Path]:
    """Fit mac_truth = b0 + b1 * mac_fb per sex; report inference and the
    seeded random-split out-of-sample exercise in model_<sex>.json.

    The pairs are `joins`, when given, else `_load_joins(cfg)`. The model
    files are a report: predict fits the same model again rather than
    reading them. Every sex is fitted before any file is written."""
    inputs, sex_joins = joins or _load_joins(cfg)
    results = []
    for sex in cfg.sexes:
        model = _fit_for_sex("calibrate", sex, sex_joins[sex])
        pairs = sex_joins[sex].pairs
        payload: dict = {
            "model": _model_payload(model),
            "sample": {
                "n_pairs": len(pairs),
                "countries": [p.country for p in pairs],
                "cv_mac_truth_pct": cv_percent([p.mac_truth for p in pairs]),
            },
        }
        if len(pairs) >= RANDOM_SPLIT_TEST_SIZE + 3:
            split = random_split_validation(
                pairs, runs=RANDOM_SPLIT_RUNS, test_size=RANDOM_SPLIT_TEST_SIZE, seed=cfg.seed
            )
            payload["out_of_sample"] = {
                "runs": RANDOM_SPLIT_RUNS,
                "test_size": RANDOM_SPLIT_TEST_SIZE,
                "mean_mape_pct": split.mean_mape,
                "per_run_mape_pct": list(split.per_run),
                # a perfect fit's runs all read 0, whose CV is undefined
                "cv_run_mape_pct": cv_percent(split.per_run) if split.mean_mape else None,
            }
        else:
            payload["out_of_sample"] = None
            logger.warning(
                "calibrate/%s: %d pairs are too few for the %d/%d split exercise",
                sex.value, len(pairs), RANDOM_SPLIT_RUNS, RANDOM_SPLIT_TEST_SIZE,
            )
        meta = standard_metadata(seed=cfg.seed, inputs=inputs)
        meta["sex"] = sex.value
        results.append((cfg.model_path(sex), meta, payload))
    for path, meta, payload in results:
        write_json(path, meta, payload)
    return [path for path, *_ in results]


# --------------------------------------------------------------------------
# predict
# --------------------------------------------------------------------------

def stage_predict(cfg: RunConfig, joins: Joins | None = None) -> list[Path]:
    """Fill the gaps: predicted MAC for eligible countries without truth.

    Each sex's model is fitted here from its join (`joins`, when given, else
    `_load_joins(cfg)`), with the same pair minimum and fit as calibrate; no
    model_<sex>.json is read, so predict runs with or without calibrate.
    That join alone decides what is predicted: its unmatched estimates. The
    map's ground-truth features are the truth records that join kept."""
    inputs, sex_joins = joins or _load_joins(cfg)

    all_rows = []
    by_sex = {}
    for sex in cfg.sexes:
        join = sex_joins[sex]
        predictions = predict_missing(_fit_for_sex("predict", sex, join), join.unmatched_estimates)
        by_sex[sex] = predictions
        all_rows += (
            [p.country, p.sex.value, str(p.mac_fb), str(p.mac_predicted), str(p.interval_low), str(p.interval_high)]
            for p in predictions
        )
    all_rows.sort(key=lambda r: (r[0], r[1]))
    meta = standard_metadata(seed=cfg.seed, inputs=inputs)
    meta["n_predictions"] = str(len(all_rows))
    write_csv(cfg.predictions_path, meta, PREDICTION_COLUMNS, all_rows)
    written = [cfg.predictions_path]

    # the map carries one sex so iso2 keys stay unique; male is the
    # data-gap use case when both sexes were run
    map_sex = Sex.MALE if Sex.MALE in by_sex else cfg.sexes[0]
    if by_sex[map_sex]:
        map_meta = standard_metadata(seed=cfg.seed, inputs=inputs)
        map_meta["sex"] = map_sex.value
        emit_choropleth(by_sex[map_sex], cfg.map_path, truth=sex_joins[map_sex].truth, meta=map_meta)
        written.append(cfg.map_path)
    else:  # an earlier run's map would show predictions this run does not make
        cfg.map_path.unlink(missing_ok=True)
        logger.warning(
            "no %s predictions; map not emitted (any earlier %s is removed)", map_sex.value, cfg.map_path
        )
    return written


# --------------------------------------------------------------------------
# all
# --------------------------------------------------------------------------

def run_all(cfg: RunConfig, collector: Collector | None = None) -> list[Path]:
    collected: Collected = []
    written = stage_collect(cfg, collector, collected)
    written += stage_estimate(cfg, collected)
    del collected  # the snapshots are not needed past estimate
    joins = _load_joins(cfg)
    written += stage_validate(cfg, joins)
    written += stage_calibrate(cfg, joins)
    written += stage_predict(cfg, joins)
    return written
