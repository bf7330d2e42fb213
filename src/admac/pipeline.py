"""Stage orchestration: collect -> estimate -> validate -> calibrate ->
predict, with plain CSV/JSON artifacts between stages.

Every stage reads the previous stage's files from the output directory,
writes its own atomically, and stamps a metadata header (tool version,
seed, input digests) so any artifact can be traced to its inputs. No
timestamps are embedded: identical config + inputs = identical bytes.

`run_all` writes the snapshots as `collect` does, but hands them to
`estimate` in memory together with the digests of the bytes written, so
they are not read back and hashed again; a snapshot file it did not just
write (one left by an earlier run) is still read from disk. The artifacts
are the same bytes as when the stages run one by one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from pathlib import Path

from .domain import AudienceSnapshot, Continent, CountryRef, Sex
from .errors import (
    ConfigError,
    EmptyInput,
    MissingStageInput,
    ParseError,
    TooFewPoints,
)
from .fileio import decode_utf8, read_table, standard_metadata, write_csv, write_json
from .groundtruth import GroundTruthRecord, load_continent_map, load_ground_truth, join_pairs
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
    CalibrationModel,
    GroupedMetrics,
    continent_label,
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


class RunConfig:
    """One pipeline run, fully determined by these fields plus the fixtures.

    The three input paths default to the bundled demo data; live mode's
    cache_dir defaults to output_dir/cache. `countries`, when given, is
    kept upper-cased, once each and sorted; an empty list is a ConfigError.
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
        if not sexes:
            raise ConfigError("sexes: at least one must be requested")
        if loocv_scope not in ("global", "continent"):
            raise ConfigError(f"loocv_scope: {loocv_scope!r} is not one of: global, continent")
        if countries is not None:
            try:
                countries = tuple(sorted({CountryRef(iso2=iso2.upper()).iso2 for iso2 in countries}))
            except ValueError as exc:
                raise ConfigError(f"countries: {exc}") from None
            if not countries:
                raise ConfigError("countries: the list is empty")
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


def _collector_config(cfg: RunConfig) -> CollectorConfig:
    return CollectorConfig(
        mode=cfg.mode,
        fixture_dir=cfg.fixture_dir if cfg.mode is Mode.FIXTURE else None,
        cache_dir=cfg.cache_dir,
    )


# --------------------------------------------------------------------------
# collect
# --------------------------------------------------------------------------

# Snapshots written by collect in this process: path -> (digest of its bytes, snapshot).
Collected = dict[Path, tuple[str, AudienceSnapshot]]


def stage_collect(
    cfg: RunConfig, collector: Collector | None = None, collected: Collected | None = None
) -> list[Path]:
    """Snapshot every requested country into output_dir/snapshots/.

    An excluded country in the list fails the stage before any request is
    sent or snapshot written. A country whose collection comes back
    incomplete is written with the cells that did arrive; the estimate
    stage will mark the affected sexes ineligible rather than this stage
    failing the whole run. Each written snapshot, partial or not, is also
    recorded in `collected`, when given, for `stage_estimate`.
    """
    collector = collector or Collector(_collector_config(cfg))
    if cfg.countries is not None:
        wanted = cfg.countries
    elif cfg.mode is Mode.FIXTURE:
        wanted = [c for c in fixture_countries(cfg.fixture_dir) if c not in DEFAULT_EXCLUDED]
    else:
        raise ConfigError("live mode needs an explicit country list")
    if not wanted:
        raise ConfigError("no countries to collect")

    countries = [CountryRef(iso2=iso2) for iso2 in wanted]
    written: list[Path] = []
    for snapshot in collector.collect_snapshots(countries):
        iso2 = snapshot.country.iso2
        fixture = collector.fixture_digest(iso2)
        inputs = {} if fixture is None else {f"fixture_{iso2}": fixture}
        path = cfg.snapshots_dir / f"{iso2}.csv"
        digest = write_cells_csv(path, snapshot.cells, meta=standard_metadata(seed=cfg.seed, inputs=inputs))
        if collected is not None:
            collected[path] = (digest, snapshot)
        written.append(path)
    return written


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------

def stage_estimate(cfg: RunConfig, collected: Collected | None = None) -> Path:
    """MAC estimates (or ineligibility reasons) for every collected country.

    Every file under snapshots/ is estimated; one recorded in `collected`
    (by `stage_collect` in this process) is taken from memory, any other
    is read once, both to hash and to parse.
    """
    collected = collected or {}
    if not cfg.snapshots_dir.is_dir():
        raise MissingStageInput(f"{cfg.snapshots_dir} not found; run `collect` first")
    paths = sorted(cfg.snapshots_dir.glob("*.csv"))
    if not paths:
        raise MissingStageInput(f"no snapshots under {cfg.snapshots_dir}; run `collect` first")
    combined = hashlib.sha256()
    rows: list[list[str]] = []
    for path in paths:
        country = file_country(path)
        held = collected.get(path)
        if held is None:
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            snapshot = AudienceSnapshot(country, tuple(read_cells_csv(path, country, data=data)))
        else:
            digest, snapshot = held
        combined.update(path.name.encode())
        combined.update(bytes.fromhex(digest))
        for sex in cfg.sexes:
            est = estimate_country(snapshot, sex, cfg.lower_bound_policy)
            rows.append(
                [
                    country.iso2,
                    sex.value,
                    "" if est.mac is None else str(est.mac),
                    "true" if est.eligible else "false",
                    "" if est.ineligibility_reason is None else est.ineligibility_reason.value,
                ]
            )
    meta = standard_metadata(seed=cfg.seed, inputs={"snapshots": combined.hexdigest()})
    meta["lower_bound_policy"] = cfg.lower_bound_policy.value
    write_csv(cfg.estimates_path, meta, ESTIMATE_COLUMNS, rows)
    return cfg.estimates_path


def load_estimates(path: Path, *, data: bytes | None = None) -> list[MacEstimate]:
    """Read estimates.csv back. A row `stage_estimate` never writes raises ParseError with its
    line: a malformed one, a repeated (iso2, sex), an eligible one whose mac is empty or not
    finite, and an ineligible one with a mac."""
    _, _, rows = read_table(path, ESTIMATE_COLUMNS, data=data)
    estimates: list[MacEstimate] = []
    seen: set[tuple[str, Sex]] = set()
    for lineno, row in rows:
        if len(row) != len(ESTIMATE_COLUMNS):
            raise ParseError(
                f"{path}: expected {len(ESTIMATE_COLUMNS)} fields, got {len(row)}", line=lineno
            )
        iso2, sex, mac_raw, eligible, reason = row
        try:
            if eligible not in ("true", "false"):
                raise ValueError(f"eligible must be true or false, got {eligible!r}")
            mac = float(mac_raw) if mac_raw else None
            if eligible == "true" and (mac is None or not math.isfinite(mac)):
                raise ValueError(f"an eligible row needs a finite mac, got {mac_raw!r}")
            if eligible == "false" and mac_raw:
                raise ValueError(f"an ineligible row has no mac, got {mac_raw!r}")
            est = MacEstimate(
                country=CountryRef(iso2=iso2),
                sex=Sex(sex),
                mac=mac,
                eligible=eligible == "true",
                ineligibility_reason=IneligibilityReason(reason) if reason else None,
            )
            key = (est.country.iso2, est.sex)
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
    return data, hashlib.sha256(data).hexdigest()


def _load_stage_data(
    cfg: RunConfig,
) -> tuple[dict[str, str], dict[str, Continent], list[MacEstimate], list[GroundTruthRecord]]:
    """The digests of the estimates, truth table and continent map, and their
    contents: each file is read once per stage, to hash and to parse."""
    inputs: dict[str, str] = {}
    estimates_data, inputs["estimates"] = _read_input(
        cfg.estimates_path, f"{cfg.estimates_path} not found; run `estimate` first"
    )
    truth_data, inputs["truth"] = _read_input(cfg.truth_path, f"ground truth file {cfg.truth_path} not found")
    continents_data, inputs["continents"] = _read_input(
        cfg.continent_map_path, f"continent map file {cfg.continent_map_path} not found"
    )
    continent_map = load_continent_map(cfg.continent_map_path, data=continents_data)
    estimates = load_estimates(cfg.estimates_path, data=estimates_data)
    truth = load_ground_truth(cfg.truth_path, continent_map, data=truth_data)
    return inputs, continent_map, estimates, truth


def _pairs_for_sex(
    sex: Sex,
    continent_map: dict[str, Continent],
    estimates: list[MacEstimate],
    truth: list[GroundTruthRecord],
):
    triples = [
        (CountryRef(iso2=e.country.iso2, continent=continent_map.get(e.country.iso2)), e.sex, e.mac)
        for e in estimates
        if e.eligible and e.sex == sex
    ]
    truth_for_sex = [t for t in truth if t.sex == sex]
    return join_pairs(triples, truth_for_sex)


def _metric_cell_fields(cell) -> tuple[str, str, str]:
    if cell is None:
        return "", "", ""
    rho = "" if cell.spearman_rho is None else str(cell.spearman_rho)
    stars = significance_stars(cell.spearman_p)
    return rho, str(cell.mape), stars


def _write_metrics(path: Path, meta: dict[str, str], direct: GroupedMetrics, cv: GroupedMetrics) -> None:
    rows = []
    for label in sorted(direct.per_continent):
        d = direct.per_continent[label]
        c = cv.per_continent.get(label)
        d_rho, d_mape, d_stars = _metric_cell_fields(d)
        c_rho, c_mape, c_stars = _metric_cell_fields(c)
        rows.append([label, d_rho, d_mape, c_rho, c_mape, str(d.n), d_stars, c_stars])
    d_rho, d_mape, d_stars = _metric_cell_fields(direct.overall)
    c_rho, c_mape, c_stars = _metric_cell_fields(cv.overall)
    rows.append(["Overall", d_rho, d_mape, c_rho, c_mape, str(direct.overall.n), d_stars, c_stars])
    write_csv(path, meta, METRICS_COLUMNS, rows)


def stage_validate(cfg: RunConfig) -> list[Path]:
    """Spearman/MAPE of platform vs truth, direct and under LOOCV, by continent."""
    inputs, continent_map, estimates, truth = _load_stage_data(cfg)
    written = []
    for sex in cfg.sexes:
        join = _pairs_for_sex(sex, continent_map, estimates, truth)
        pairs = join.pairs
        if len(pairs) < 4:
            raise TooFewPoints(
                f"validate/{sex.value}: LOOCV needs at least 4 matched pairs, got {len(pairs)}"
            )
        labels = {p.country.iso2: continent_label(p.country.continent) for p in pairs}
        direct = grouped_metrics(
            (labels[p.country.iso2], p.mac_fb, p.mac_truth) for p in pairs
        )
        continent_of = {p.country.iso2: p.country.continent for p in pairs}
        _, cv = loocv(pairs, continent_of, scope=cfg.loocv_scope)
        meta = standard_metadata(seed=cfg.seed, inputs=inputs)
        meta["sex"] = sex.value
        meta["loocv_scope"] = cfg.loocv_scope
        meta["n_pairs"] = str(len(pairs))
        meta["n_unmatched_estimates"] = str(len(join.unmatched_estimates))
        meta["n_unmatched_truth"] = str(len(join.unmatched_truth))
        path = cfg.metrics_path(sex)
        _write_metrics(path, meta, direct, cv)
        written.append(path)
    return written


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

# The model codec: each CalibrationModel field, in order, with the JSON type it takes.
_MODEL_FIELDS: tuple[tuple[str, type], ...] = (
    ("intercept", float), ("slope", float), ("se_intercept", float), ("se_slope", float),
    ("r2", float), ("adj_r2", float), ("residual_se", float), ("f_stat", float),
    ("df_model", int), ("df_resid", int), ("n", int),
    ("p_slope", float), ("p_intercept", float), ("p_f", float),
    ("residuals", tuple), ("x_mean", float), ("s_xx", float),
)


def _model_payload(model: CalibrationModel) -> dict:
    payload = {name: getattr(model, name) for name, _ in _MODEL_FIELDS}
    payload["stars"] = {
        "intercept": significance_stars(model.p_intercept),
        "slope": significance_stars(model.p_slope),
        "f": significance_stars(model.p_f),
    }
    return payload


def stage_calibrate(cfg: RunConfig) -> list[Path]:
    """Fit mac_truth = b0 + b1 * mac_fb per sex; report inference and the
    seeded random-split out-of-sample exercise."""
    inputs, continent_map, estimates, truth = _load_stage_data(cfg)
    written = []
    for sex in cfg.sexes:
        join = _pairs_for_sex(sex, continent_map, estimates, truth)
        pairs = join.pairs
        if len(pairs) < 3:
            raise TooFewPoints(
                f"calibrate/{sex.value}: regression needs at least 3 matched pairs, got {len(pairs)}"
            )
        model = ols_fit(pairs)
        payload: dict = {
            "model": _model_payload(model),
            "sample": {
                "n_pairs": len(pairs),
                "countries": [p.country.iso2 for p in pairs],
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
                "cv_run_mape_pct": cv_percent(split.per_run),
            }
        else:
            payload["out_of_sample"] = None
            logger.warning(
                "calibrate/%s: %d pairs are too few for the %d/%d split exercise",
                sex.value, len(pairs), RANDOM_SPLIT_RUNS, RANDOM_SPLIT_TEST_SIZE,
            )
        meta = standard_metadata(seed=cfg.seed, inputs=inputs)
        meta["sex"] = sex.value
        path = cfg.model_path(sex)
        write_json(path, meta, payload)
        written.append(path)
    return written


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _model_field(name: str, kind, value):
    """One CalibrationModel field from its JSON value; ValueError on a wrong type or a
    non-finite number (f_stat alone may be +inf, as a perfect fit makes it)."""
    if kind is int:
        if type(value) is int:
            return value
        expected = "an integer"
    elif kind is float:
        if _is_finite(value) or (name == "f_stat" and value == math.inf):
            return float(value)
        expected = "a finite number"
    else:  # tuple of floats
        if isinstance(value, list) and all(map(_is_finite, value)):
            return tuple(map(float, value))
        expected = "a list of finite numbers"
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def load_model(path: Path, data: bytes) -> CalibrationModel:
    """Read model_<sex>.json back from its bytes; a malformed file raises ParseError."""
    try:
        document = json.loads(decode_utf8(path, data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is not valid JSON: nested too deeply") from exc
    try:
        m = document["model"]
        model = CalibrationModel(**{name: _model_field(name, kind, m[name]) for name, kind in _MODEL_FIELDS})
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model: {exc}") from exc
    # every fit satisfies these (see stats.ols_fit_xy), and predict divides by n and s_xx
    if not (model.n >= 3 and model.df_resid == model.n - 2 and model.s_xx > 0 and model.residual_se >= 0):
        raise ParseError(
            f"{path}: malformed model: no fit gives n={model.n}, df_resid={model.df_resid}, "
            f"s_xx={model.s_xx}, residual_se={model.residual_se}"
        )
    return model


# --------------------------------------------------------------------------
# predict
# --------------------------------------------------------------------------

def stage_predict(cfg: RunConfig) -> list[Path]:
    """Fill the gaps: predicted MAC for eligible countries without truth."""
    inputs, _, estimates, truth = _load_stage_data(cfg)

    all_rows = []
    by_sex = {}
    for sex in cfg.sexes:
        model_file = cfg.model_path(sex)
        data, inputs[f"model_{sex.value}"] = _read_input(
            model_file, f"{model_file} not found; run `calibrate` first"
        )
        model = load_model(model_file, data)
        sex_estimates = [e for e in estimates if e.sex == sex]
        sex_truth = [t for t in truth if t.sex == sex]
        predictions = predict_missing(model, sex_estimates, sex_truth)
        by_sex[sex] = (predictions, sex_truth)
        for p in predictions:
            all_rows.append(
                [
                    p.country.iso2,
                    p.sex.value,
                    str(p.mac_fb),
                    str(p.mac_predicted),
                    str(p.interval_low),
                    str(p.interval_high),
                ]
            )
    all_rows.sort(key=lambda r: (r[0], r[1]))
    meta = standard_metadata(seed=cfg.seed, inputs=inputs)
    meta["n_predictions"] = str(len(all_rows))
    write_csv(cfg.predictions_path, meta, PREDICTION_COLUMNS, all_rows)
    written = [cfg.predictions_path]

    # the map carries one sex so iso2 keys stay unique; male is the
    # data-gap use case when both sexes were run
    map_sex = Sex.MALE if Sex.MALE in by_sex else cfg.sexes[0]
    predictions, sex_truth = by_sex[map_sex]
    map_meta = standard_metadata(seed=cfg.seed, inputs=inputs)
    map_meta["sex"] = map_sex.value
    try:
        emit_choropleth(predictions, cfg.map_path, truth=sex_truth, meta=map_meta)
        written.append(cfg.map_path)
    except EmptyInput:
        logger.warning("no %s predictions; map not emitted", map_sex.value)
    return written


# --------------------------------------------------------------------------
# all
# --------------------------------------------------------------------------

def run_all(cfg: RunConfig, collector: Collector | None = None) -> list[Path]:
    collected: Collected = {}
    written = list(stage_collect(cfg, collector, collected))
    written.append(stage_estimate(cfg, collected))
    del collected  # the snapshots are not needed past estimate
    written.extend(stage_validate(cfg))
    written.extend(stage_calibrate(cfg))
    written.extend(stage_predict(cfg))
    return written
