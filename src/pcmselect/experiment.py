"""Monte Carlo benchmark harness.

Runs every configured estimator over many replications drawn from one of the
benchmark models (or a user-supplied model), collecting per-replication
estimates and per-method summary statistics (mean, standard deviation, bias,
sign-coincidence rate, failure count).

Replications run in chunks: a chunk samples its replications in one stacked
pass (:meth:`~pcmselect.scm.LinearScm.sample_stack`, each replication from
its own generator), standardizes them in another
(:func:`~pcmselect.linalg.standardize_stack`), then calls each method once
on all of them (:attr:`Method.estimate` takes a sequence of datasets).  pcm
and pal1ma fit each ridge pilot of every replication of the chunk in one
batched solve, the stage-1 outcome fits in one L1 solver call, the mediator
fits in one per width of the active mediator design, and the debiasing and
correction steps in stacked calls, one per shape of the active design.
lasso, adaptive-lasso and elastic-net fit every replication's ridge pilot in one
batched solve and every L1 fit in one L1 solver call.  The least-squares
plug-ins (``backdoor``, ``frontdoor-*``) solve each regression of every
replication in one stacked call.  A process pool gets one chunk per task.

Determinism: the master seed feeds a seed sequence whose first child builds
the model (fixing the random coefficients, the covariate correlation matrix,
and hence the true effect for the whole run) and whose remaining children
seed the replications, one each.  A batched call solves every replication's
systems as LAPACK calls of their own, so no estimate depends on the other
replications of its chunk, and results are keyed by replication index; the
output is byte-identical whatever the chunk size and the worker count.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .baselines import (back_door_estimates, front_door_like_estimates, pal1ma_coefficients,
                        pal1ma_estimates, pal1ma_pilot, penalized_coefficients,
                        penalized_estimates, pilot_coefficients)
from .data import Dataset, RolePartition
from .errors import ConfigInvalid, EmptyInput, PcmSelectError, check_count, check_keys
from .graphs import minimal_mediator_sets
from .pcm import ETA_MAX, PcmParams, pcm_fits
from .scm import (CovarianceSpec, LinearScm, build_experiment_scm, coupling_dag,
                  experiment_criteria_dag, parse_scm)

__all__ = [
    "Method",
    "METHODS",
    "check_params",
    "MethodSpec",
    "ExperimentConfig",
    "SummaryRow",
    "McResult",
    "run_monte_carlo",
    "summarize",
    "experiment_roles",
    "PRESETS",
    "SETTING_METHODS",
]

# Published benchmark parameter values (selected by cross-validation there);
# the debiasing-ridge settings are this package's defaults.
PRESETS: dict[tuple[str, str], dict] = {
    ("A", "lasso"): {"lam": 0.407},
    ("A", "adaptive-lasso"): {"lam": 0.407, "eta": 0.100, "pilot_lam": 3.157},
    ("A", "elastic-net"): {"lam": 0.399, "phi": 0.910},
    ("A", "pal1ma"): {"lam": 0.294, "eta": 1.200, "pilot_lam": 3.157},
    ("A", "pcm"): {
        "lambda1": 0.017, "rho1": 0.213, "zeta1": 0.270, "xi1": 0.190,
        "pilot_lambda": 3.157, "pilot_rho": 69.484,
    },
    ("A", "frontdoor-including-x"): {},
    ("A", "frontdoor-not-including-x"): {},
    ("A", "backdoor"): {},
    ("B", "pcm"): {
        "lambda1": 0.346, "rho1": 0.0, "zeta1": 0.0, "xi1": 1.0,
        "pilot_lambda": 3.726, "pilot_rho": 3.726,
    },
    ("B", "frontdoor-minimal"): {},
    ("B", "frontdoor-whole"): {},
}

# The methods of each benchmark setting: those with a preset there.
SETTING_METHODS = {
    setting: tuple(name for key, name in PRESETS if key == setting) for setting in ("A", "B")
}

# Sample values (rows times observed columns) that one chunk of replications
# holds at most; a run is cut into ceil(R / size) chunks, in order, whose sizes
# differ by at most one.  A chunk samples its replications in one stacked pass
# and standardizes them in another, then keeps every replication's standardized
# sample, pilots, stage-1 lanes and fits at once.  2**12 values: up to 34
# replications at n=15 in setting B, 14 in setting A, 5 at n=100 in setting B
# and 2 in setting A.  Such a full chunk's tracemalloc peak is about 280 KiB at
# n=15 in setting B, 370 KiB in setting A, 190 KiB at n=100 in setting B and
# 120 KiB in setting A, and grows by about 7.5, 24, 33 and 41 KiB per
# replication (one-chunk single-worker runs of every method of the setting,
# seed 5).  Larger chunks pay the fixed Python cost of a chunk (the L1 path
# lockstep, the debiasing shape groups, the registry dispatch), about 1.5 ms,
# fewer times: the benchmark's 20-replication setting-B call runs as one chunk
# in about 5.2 ms, against 7.1 ms as two chunks of 10 (2**11; one BLAS thread
# on a 2-vCPU VM).
CHUNK_VALUES = 2**12


@dataclass(frozen=True)
class Method:
    """One estimator that the CLI, the Monte Carlo run and CV dispatch to.

    ``estimate(datasets, roles, params)`` takes a sequence of standardized
    datasets and returns, for each in order, its total-effect estimate or,
    if its fit failed, the :class:`~pcmselect.errors.PcmSelectError`; it
    holds the defaults of the keys left out.  The CLI's estimate is its
    one-dataset case.  ``allowed`` and ``required`` are its parameter keys;
    ``check(roles, params)`` raises ``ValueError`` for a value out of range;
    ``cv`` says whether :func:`~pcmselect.tuning.cross_validate` tunes it.
    A penalized baseline's estimate is a chunk function of ``baselines``;
    CV calls its stacked forms on all folds' training sets at once:
    ``pilot(datasets, roles, pilot_lams)`` fits its ridge pilot, if any, at
    each value of the grid, and ``fit(datasets, roles, pilots, lams,
    **params)`` the coefficient vector of the outcome on ``[x] +
    roles.covariates`` that CV scores at each of the descending ``lams``,
    with its entry of ``pilots`` (None without a pilot): one list of fits
    per dataset.  Like ``estimate``, both return each dataset's failure in
    place of its result, and each fit's failure in place of that fit.
    """

    estimate: Callable[[Sequence[Dataset], RolePartition, dict], list]
    allowed: frozenset[str]
    required: frozenset[str] = frozenset()
    check: Callable[[RolePartition, dict], object] = lambda roles, params: None
    cv: bool = False
    fit: Callable[..., list] | None = None
    pilot: Callable[[Sequence[Dataset], RolePartition, Sequence[float]], list] | None = None


# The keys whose values are lists of column names; every other key takes a number.
_NAME_KEYS = frozenset({"z", "mediators", "z1", "z2"})


def _pcm(datasets, roles: RolePartition, params: dict) -> list:
    return [fit if isinstance(fit, PcmSelectError) else fit.total_effect
            for fit in pcm_fits(datasets, roles, PcmParams(**params))]


def _penalized_baseline(estimate, fit, pilot=None, **keys) -> Method:
    """A penalized baseline whose estimates are ``estimate(datasets, roles, **params)``,
    a chunk function of :mod:`pcmselect.baselines` that gets every key, with the
    defaults filled in, and whose CV forms are ``fit`` and ``pilot``.  Its keys are
    ``lam`` and those of ``keys``, each given as its (default, largest value); every
    value is finite and nonnegative."""
    defaults = {key: default for key, (default, _) in keys.items()}
    highs = {"lam": math.inf, **{key: high for key, (_, high) in keys.items()}}

    def check(roles, params):
        for key, value in params.items():
            if not (0.0 <= value <= highs[key] and math.isfinite(value)):
                raise ValueError(f"{key} must be finite in [0, {highs[key]:g}], got {value!r}")

    return Method(lambda datasets, roles, params: estimate(datasets, roles, **defaults | params),
                  frozenset(highs), frozenset({"lam"}), check, cv=True, fit=fit, pilot=pilot)


def _backdoor(datasets, roles: RolePartition, params: dict) -> list:
    return back_door_estimates(datasets, roles.x, roles.y, params.get("z", roles.covariates))


def _frontdoor(include_x: bool, adjusted: bool, required=frozenset()) -> Method:
    """Front-door-like product, by default through the fixed mediators with
    the covariates as both conditioning sets (``adjusted``), or through all
    mediators with none."""

    def resolve(roles, params):
        if adjusted:
            defaults = {"mediators": roles.s, "z1": roles.covariates, "z2": roles.covariates}
        else:
            defaults = {"mediators": roles.mediators, "z1": (), "z2": ()}
        p = {**defaults, **params}
        if not len(p["mediators"]):
            raise ValueError("front-door-like estimation needs at least one mediator")
        return p

    def estimate(datasets, roles, params):
        p = resolve(roles, params)
        return front_door_like_estimates(datasets, roles.x, roles.y, p["mediators"], p["z1"],
                                         p["z2"], include_x_in_second_stage=include_x)

    return Method(estimate, frozenset({"mediators", "z1", "z2"}), frozenset(required),
                  check=resolve)


METHODS: dict[str, Method] = {
    # phi is 1 where it is not a key, and only a pilot_lam key gives a ridge pilot
    "lasso": _penalized_baseline(penalized_estimates, penalized_coefficients),
    "adaptive-lasso": _penalized_baseline(penalized_estimates, penalized_coefficients,
                                          pilot_coefficients, eta=(1.0, ETA_MAX),
                                          pilot_lam=(1.0, math.inf)),
    "elastic-net": _penalized_baseline(penalized_estimates, penalized_coefficients,
                                       phi=(0.5, 1.0)),
    "pal1ma": _penalized_baseline(pal1ma_estimates, pal1ma_coefficients, pal1ma_pilot,
                                  eta=(1.0, ETA_MAX), pilot_lam=(1.0, math.inf)),
    "pcm": Method(_pcm, frozenset(f.name for f in fields(PcmParams)),
                  frozenset(f.name for f in fields(PcmParams) if f.default is MISSING),
                  check=lambda roles, params: PcmParams(**params), cv=True),
    "frontdoor-including-x": _frontdoor(True, adjusted=True),
    "frontdoor-not-including-x": _frontdoor(False, adjusted=True),
    "backdoor": Method(_backdoor, frozenset({"z"})),
    # ExperimentConfig fills frontdoor-minimal's mediators from the graph
    "frontdoor-minimal": _frontdoor(True, adjusted=False, required={"mediators"}),
    "frontdoor-whole": _frontdoor(True, adjusted=False),
}


def check_params(name: str, params: dict, roles: RolePartition) -> None:
    """Raise :class:`ConfigInvalid` for an unknown method or parameter key, a
    missing required key, a value of the wrong type or a value out of range."""
    if name not in METHODS:
        raise ConfigInvalid(f"unknown method {name!r}")
    if not isinstance(params, dict):
        raise ConfigInvalid(f"parameters of {name} must be a JSON object")
    method = METHODS[name]
    unknown = sorted(set(params) - method.allowed)
    if unknown:
        raise ConfigInvalid(
            f"unknown parameter(s) {', '.join(unknown)} for {name}; "
            f"allowed: {', '.join(sorted(method.allowed))}"
        )
    missing = method.required - set(params)
    if missing:
        raise ConfigInvalid(f"{name} needs parameter(s) {', '.join(sorted(missing))}")
    for key, value in params.items():
        if key in _NAME_KEYS:
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise ConfigInvalid(f"{key} of {name} must be a list of column names, "
                                    f"got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigInvalid(f"{key} of {name} must be a number, got {value!r}")
    try:
        method.check(roles, params)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad parameters for {name}: {exc}") from exc


def experiment_roles(setting: str) -> RolePartition:
    """Role partition of the benchmark models (setting B hides the covariates)."""
    setting = setting.upper()
    sbar = tuple(f"Sbar{i}" for i in range(1, 6))
    if setting == "A":
        return RolePartition(
            x="X", y="Y", z=("Z",),
            zbar=tuple(f"Zbar{i}" for i in range(1, 11)),
            s=("S",), sbar=sbar,
        )
    if setting == "B":
        return RolePartition(x="X", y="Y", s=("S",), sbar=sbar)
    raise ConfigInvalid(f"unknown setting {setting!r}")


@dataclass(frozen=True)
class MethodSpec:
    """One estimator to run: its name, display label, and parameters.

    ``params=None`` means "use the preset for this setting".  A built
    :class:`ExperimentConfig` holds resolved specs: explicit parameters or
    the preset, with the first minimal mediator set of the model's graph as
    ``frontdoor-minimal``'s missing ``mediators``.
    """

    name: str
    params: dict | None = None
    label: str | None = None

    @property
    def display(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class ExperimentConfig:
    setting: str  # "A", "B", or "custom"
    n: int
    replications: int
    seed: int
    methods: tuple[MethodSpec, ...]
    workers: int = 1
    scm_payload: dict | None = None  # custom setting only
    roles: RolePartition | None = None  # custom setting only

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        setting = self.setting.upper() if self.setting.lower() != "custom" else "custom"
        object.__setattr__(self, "setting", setting)
        check_count("n", self.n, 3)
        check_count("replications", self.replications, 1)
        check_count("seed", self.seed, 0)
        check_count("workers", self.workers, 1)
        if not self.methods:
            raise ConfigInvalid("configure at least one method")
        for label in [m.label for m in self.methods if m.label is not None]:
            # labels are written unquoted into the output CSV files
            if not isinstance(label, str) or set(label) & set(',"\r\n'):
                raise ConfigInvalid(f"method label {label!r} must be a string without"
                                    " commas, double quotes or line breaks")
        labels = [m.display for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigInvalid("method labels must be unique")
        if setting == "custom":
            if self.scm_payload is None or self.roles is None:
                raise ConfigInvalid("custom setting needs an scm payload and roles")
            scm, _ = parse_scm(self.scm_payload, ConfigInvalid, "experiment config 'scm'")
            absent = [c for c in self.roles.required_columns() if c not in scm.dag.vertices]
            if absent:
                raise ConfigInvalid(f"roles name vertices missing from the model: {absent}")
        elif setting not in ("A", "B"):
            raise ConfigInvalid(f"unknown setting {self.setting!r}")
        elif self.scm_payload is not None or self.roles is not None:
            raise ConfigInvalid(f"scm and roles are for the custom setting, not setting {setting}")
        roles = self.roles if setting == "custom" else experiment_roles(setting)
        methods = []
        for m in self.methods:
            if m.name not in METHODS:
                raise ConfigInvalid(f"unknown method {m.name!r}")
            if setting != "custom" and m.name not in SETTING_METHODS[setting]:
                raise ConfigInvalid(
                    f"method {m.name!r} is not available in setting {setting}"
                    + (" (covariates are unobserved)" if setting == "B" else "")
                )
            params = dict(PRESETS.get((setting, m.name), {})) if m.params is None else m.params
            if (m.name == "frontdoor-minimal" and isinstance(params, dict)
                    and "mediators" not in params):
                # only this spec needs the graph; building it for every config costs memory
                dag = coupling_dag(scm) if setting == "custom" else experiment_criteria_dag(setting)
                sets = minimal_mediator_sets(dag, roles.x, roles.y, roles.covariates)
                if not sets:
                    raise ConfigInvalid("no mediator set satisfies the front-door-like criterion")
                params = {**params, "mediators": sorted(sets[0])}
            check_params(m.name, params, roles)
            # a replication samples only the columns of the roles
            for key in sorted(_NAME_KEYS & set(params)):
                absent = [c for c in params[key] if c not in roles.required_columns()]
                if absent:
                    raise ConfigInvalid(f"{key} of {m.name} names columns outside the roles: "
                                        f"{absent}")
            methods.append(replace(m, params=params))
        object.__setattr__(self, "methods", tuple(methods))

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigInvalid("experiment config must be a JSON object")
        check_keys(payload, ("setting", "n", "replications", "seed", "methods", "workers", "scm",
                             "roles"), "the experiment config")
        try:
            if not all(isinstance(m, dict) for m in payload["methods"]):
                raise ConfigInvalid("each entry of 'methods' must be a JSON object")
            for m in payload["methods"]:
                check_keys(m, ("name", "params", "label"), "a method entry")
            methods = tuple(
                MethodSpec(
                    name=m["name"],
                    params=m.get("params"),
                    label=m.get("label"),
                )
                for m in payload["methods"]
            )
            roles = payload.get("roles")
            return ExperimentConfig(
                setting=str(payload["setting"]),
                n=payload["n"],
                replications=payload["replications"],
                seed=payload["seed"],
                methods=methods,
                workers=payload.get("workers", 1),
                scm_payload=payload.get("scm"),
                roles=None if roles is None else RolePartition.from_dict(roles),
            )
        except KeyError as exc:
            raise ConfigInvalid(f"experiment config is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad experiment config: {exc}") from exc


@dataclass(frozen=True)
class SummaryRow:
    """Per-method Monte Carlo statistics over the successful replications."""

    method: str
    mean: float
    sd: float
    bias: float
    sign: float
    failures: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McResult:
    true_tau: float
    summaries: tuple[SummaryRow, ...]
    estimates: tuple[tuple[int, str, float], ...]  # (replication, method, estimate)


def summarize(estimates, true_tau: float) -> tuple[float, float, float, float]:
    """(mean, sd, bias, sign rate) of a list of estimates against the truth.

    The standard deviation uses the 1/(N-1) convention (0 for a single
    estimate).  The sign rate counts estimates whose sign matches the
    truth's; an exactly zero estimate counts as a match only when the truth
    is zero.
    """
    values = np.asarray(list(estimates), dtype=float)
    if values.size == 0:
        raise EmptyInput("summarize needs at least one estimate")
    mean = float(values.mean())
    sd = 0.0 if values.size == 1 else float(values.std(ddof=1))
    sign = float(np.mean(np.sign(values) == np.sign(true_tau)))
    return mean, sd, mean - true_tau, sign


# -- chunked execution -------------------------------------------------------------


def _chunk_worker(payload) -> list[tuple[int, list[tuple[str, float | None]]]]:
    """Each replication of one chunk, with each method's estimate (None where it failed).

    The chunk is sampled in one :meth:`~pcmselect.scm.LinearScm.sample_stack` pass
    and standardized in one :meth:`~pcmselect.data.Dataset.standardized_stack` pass;
    each replication's dataset views its slice of the standardized stack, and one
    whose sample has a constant column fails alone.  Each method then runs once on
    the datasets of the chunk."""
    seed, reps, scm, spec, roles, n, methods = payload
    observed = roles.required_columns()
    cols = [scm.dag.vertices.index(c) for c in observed]
    raw = scm.sample_stack(n, [np.random.default_rng(_child(seed, rep + 1)) for rep in reps],
                           spec)[:, :, cols]
    samples = {rep: data for rep, data in zip(reps, Dataset.standardized_stack(raw, observed))
               if not isinstance(data, PcmSelectError)}
    del raw  # the methods read the standardized samples only
    rows = {rep: [] for rep in reps}
    datasets = list(samples.values())
    for label, name, params in methods if datasets else ():
        for rep, value in zip(samples, METHODS[name].estimate(datasets, roles, params)):
            rows[rep].append((label, None if isinstance(value, PcmSelectError) else value))
    return [(rep, row if rep in samples else [(label, None) for label, _, _ in methods])
            for rep, row in rows.items()]


def _child(seed: int, i: int) -> np.random.SeedSequence:
    """Child ``i`` of the seed sequence of ``seed``, as its ``spawn`` makes it."""
    return np.random.SeedSequence(seed, spawn_key=(i,))


def _build_model(config: ExperimentConfig, model_seed) -> tuple[LinearScm, CovarianceSpec | None, RolePartition, float]:
    if config.setting in ("A", "B"):
        scm, spec, tau = build_experiment_scm(config.setting, np.random.default_rng(model_seed))
        return scm, spec, experiment_roles(config.setting), tau
    scm, spec = LinearScm.from_dict(config.scm_payload)
    roles = config.roles
    tau = scm.true_total_effect(roles.x, roles.y)
    return scm, spec, roles, tau


def run_monte_carlo(config: ExperimentConfig) -> McResult:
    """Execute the configured experiment; never aborts on failing replications.

    Replications where an estimator raises a library error are excluded from
    that method's statistics and counted in its ``failures`` column.
    """
    scm, spec, roles, tau = _build_model(config, _child(config.seed, 0))
    methods = [(m.display, m.name, m.params) for m in config.methods]
    size = max(1, CHUNK_VALUES // (config.n * len(roles.required_columns())))
    if config.workers > 1:
        # at least 8 tasks per worker, as a pool balances the slow replications
        size = min(size, max(1, config.replications // (config.workers * 8)))
    # ceil(replications / size) chunks in order, whose sizes differ by at most one
    count = -(-config.replications // size)
    bounds = [config.replications * i // count for i in range(count + 1)]
    payloads = ((config.seed, range(start, stop), scm, spec, roles, config.n, methods)
                for start, stop in zip(bounds, bounds[1:]))
    if config.workers == 1 or count == 1:
        chunks = map(_chunk_worker, payloads)
    else:
        # Imported here: importing multiprocessing adds about 1.3 MiB of
        # resident memory, which single-worker runs do not need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_chunk_worker, payloads))
    raw_results = sorted((item for chunk in chunks for item in chunk), key=lambda item: item[0])

    estimates: list[tuple[int, str, float]] = []
    per_method: dict[str, list[float]] = {label: [] for label, _, _ in methods}
    fail_count: dict[str, int] = {label: 0 for label, _, _ in methods}
    for rep, row in raw_results:
        for label, value in row:
            if value is None:
                fail_count[label] += 1
            else:
                estimates.append((rep, label, float(value)))
                per_method[label].append(float(value))
    summaries = []
    for label, name, params in methods:
        values = per_method[label]
        if values:
            mean, sd, bias, sign = summarize(values, tau)
        else:
            mean = sd = bias = sign = float("nan")
        summaries.append(
            SummaryRow(
                method=label, mean=mean, sd=sd, bias=bias, sign=sign,
                failures=fail_count[label], params=params,
            )
        )
    return McResult(true_tau=tau, summaries=tuple(summaries), estimates=tuple(estimates))
