"""Cross-validation selection of penalty and tuning parameters.

The protocol is two-phase and deterministic:

1.  Pilot penalties are selected first by k-fold prediction error of the
    ridge pilots themselves (outcome pilot for ``pilot_lambda``, mediator
    pilot for ``pilot_rho``), then held fixed.
2.  The remaining parameters are scored by held-out prediction squared error
    of the stage-1 fits: the outcome model plus the mediator model, each
    standardized by its response dimension.  Baseline methods score the
    held-out error of their single regression.

Folds come from a seeded permutation, so selection is reproducible; ties are
broken toward stronger regularization.  Candidates that fail to fit on some
fold (for example an unpenalized pilot on a singular design) receive an
infinite score rather than aborting the search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import penalized_coefficients
from .data import Dataset, RolePartition
from .errors import ConfigInvalid, EmptyGrid, FoldTooSmall, PcmSelectError
from .pcm import (
    PilotEstimates,
    adaptive_weights,
    pcm_stage1_m,
    pcm_stage1_y,
    ridge_pilot_m,
    ridge_pilot_y,
)
from .solvers import ridge_solve

__all__ = ["ParamGrid", "CvRow", "CvResult", "cross_validate", "default_log_grid"]


def default_log_grid() -> tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(-3, 2, 13))


def _default_mix_pairs() -> tuple[tuple[float, float], ...]:
    levels = [round(0.1 * i, 1) for i in range(11)]
    return tuple(
        (z, x) for z, x in itertools.product(levels, levels) if z + x <= 1.0 + 1e-9
    )


@dataclass(frozen=True)
class ParamGrid:
    """Candidate values per parameter, the fold count, and the fold seed.

    ``zeta_xi`` holds the admissible (zeta1, xi1) pairs; building a grid from
    separate lists filters their product by ``zeta1 + xi1 <= 1``.
    """

    pilot_lambda: tuple[float, ...] = field(default_factory=default_log_grid)
    pilot_rho: tuple[float, ...] = field(default_factory=default_log_grid)
    lambda1: tuple[float, ...] = field(default_factory=default_log_grid)
    rho1: tuple[float, ...] = field(default_factory=default_log_grid)
    zeta_xi: tuple[tuple[float, float], ...] = field(default_factory=_default_mix_pairs)
    lambda2: tuple[float, ...] = (0.01,)
    xi2: tuple[float, ...] = (0.5,)
    rho2: tuple[float, ...] = (0.01,)
    rho2_prime: tuple[float, ...] = (0.01,)
    lam: tuple[float, ...] = field(default_factory=default_log_grid)
    eta: tuple[float, ...] = (1.0,)
    phi: tuple[float, ...] = (0.5,)
    folds: int = 5
    fold_seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("fold count must be at least 2")
        for name in ("pilot_lambda", "pilot_rho", "lambda1", "rho1", "lambda2",
                     "xi2", "rho2", "rho2_prime", "lam", "eta", "phi"):
            vals = getattr(self, name)
            object.__setattr__(self, name, tuple(float(v) for v in vals))
            if any(v < 0 for v in getattr(self, name)):
                raise ValueError(f"{name} candidates must be nonnegative")
        pairs = tuple((float(z), float(x)) for z, x in self.zeta_xi)
        for z, x in pairs:
            if z < 0 or x < 0 or z + x > 1.0 + 1e-9:
                raise ValueError(f"invalid (zeta1, xi1) pair ({z}, {x})")
        object.__setattr__(self, "zeta_xi", pairs)

    @staticmethod
    def from_dict(payload: dict) -> "ParamGrid":
        """Grid from a JSON document; a malformed one raises :class:`ConfigInvalid`."""
        try:
            kwargs = dict(payload)
            if "zeta1" in kwargs or "xi1" in kwargs:
                zetas = [float(v) for v in kwargs.pop("zeta1", [0.0])]
                xis = [float(v) for v in kwargs.pop("xi1", [0.0])]
                kwargs["zeta_xi"] = [
                    (z, x) for z, x in itertools.product(zetas, xis) if z + x <= 1.0 + 1e-9
                ]
            return ParamGrid(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad parameter grid: {exc}") from exc


@dataclass(frozen=True)
class CvRow:
    params: dict
    mean_score: float
    fold_scores: tuple[float, ...]


@dataclass(frozen=True)
class CvResult:
    method: str
    chosen: dict
    score: float
    table: tuple[CvRow, ...]


def _fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    if k > n:
        raise FoldTooSmall(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    return [np.sort(part) for part in np.array_split(rng.permutation(n), k)]


def _subset(data: Dataset, rows: np.ndarray) -> Dataset:
    return Dataset(data.values[rows], data.columns)


def _score_mean(data: Dataset, roles: RolePartition, folds, fit_predict) -> tuple[float, tuple[float, ...]]:
    """Average held-out score of ``fit_predict(train, test) -> float``."""
    scores = []
    for i, test_rows in enumerate(folds):
        train_rows = np.concatenate([folds[j] for j in range(len(folds)) if j != i])
        try:
            scores.append(fit_predict(_subset(data, train_rows), _subset(data, test_rows)))
        except PcmSelectError:
            scores.append(float("inf"))
    return float(np.mean(scores)), tuple(scores)


def cross_validate(data: Dataset, roles: RolePartition, method: str, grid: ParamGrid) -> CvResult:
    """Select parameters for ``method`` by deterministic k-fold prediction error.

    ``method`` is one of ``pcm``, ``lasso``, ``adaptive_lasso``,
    ``elastic_net``, ``pal1ma``.  Ties break toward larger penalties; the
    resulting selection is invariant to the enumeration order of the grid.
    """
    data.check_roles(roles)
    folds = _fold_indices(data.n, grid.folds, grid.fold_seed)
    if method == "pcm":
        return _cross_validate_pcm(data, roles, grid, folds)
    if method in ("lasso", "adaptive_lasso", "elastic_net", "pal1ma"):
        return _cross_validate_baseline(data, roles, method, grid, folds)
    raise ValueError(f"unknown method {method!r} for cross-validation")


# -- pcm ------------------------------------------------------------------------


def _pilot_lambda_score(train: Dataset, test: Dataset, roles, lam: float) -> float:
    coef = ridge_pilot_y(train, roles, lam)
    a = test.values[:, test.index_of(roles.y_regressors)]
    resid = test.column(roles.y) - a @ coef.stacked()
    return float(resid @ resid) / test.n


def _pilot_rho_score(train: Dataset, test: Dataset, roles, rho: float) -> float:
    coef = ridge_pilot_m(train, roles, rho)
    q_m = coef.x_row.shape[0]
    if q_m == 0:
        return 0.0
    a = test.values[:, test.index_of(roles.m_regressors)]
    stacked = np.vstack([coef.x_row[None, :], coef.z_rows, coef.zbar_rows])
    resid = test.values[:, test.index_of(roles.mediators)] - a @ stacked
    return float(np.sum(resid * resid)) / (test.n * q_m)


def _stage1_score(train: Dataset, test: Dataset, roles, pilot_lam, pilot_rho, cand) -> float:
    pilots = PilotEstimates(
        y=ridge_pilot_y(train, roles, pilot_lam),
        m=ridge_pilot_m(train, roles, pilot_rho),
        lam=pilot_lam,
        rho=pilot_rho,
    )
    weights = adaptive_weights(pilots)
    s1y = pcm_stage1_y(train, roles, weights, cand["lambda1"], cand["zeta1"], cand["xi1"])
    a = test.values[:, test.index_of(roles.y_regressors)]
    resid_y = test.column(roles.y) - a @ s1y.stacked()
    score = float(resid_y @ resid_y) / test.n
    q_m = len(roles.mediators)
    if q_m:
        s1m = pcm_stage1_m(train, roles, weights, cand["rho1"])
        stacked = np.vstack([s1m.x_row[None, :], s1m.z_rows, s1m.zbar_rows])
        am = test.values[:, test.index_of(roles.m_regressors)]
        resid_m = test.values[:, test.index_of(roles.mediators)] - am @ stacked
        score += float(np.sum(resid_m * resid_m)) / (test.n * q_m)
    return score


def _select(rows: list[CvRow], tie_key) -> CvRow:
    return min(rows, key=lambda r: (r.mean_score,) + tie_key(r.params))


def _cross_validate_pcm(data, roles, grid: ParamGrid, folds) -> CvResult:
    if not (grid.pilot_lambda and grid.pilot_rho and grid.lambda1 and grid.rho1
            and grid.zeta_xi and grid.lambda2 and grid.xi2 and grid.rho2
            and grid.rho2_prime):
        raise EmptyGrid("pcm grid has an empty parameter list")
    pilot_rows = [
        CvRow({"pilot_lambda": lam},
              *_score_mean(data, roles, folds,
                           lambda tr, te, lam=lam: _pilot_lambda_score(tr, te, roles, lam)))
        for lam in grid.pilot_lambda
    ]
    pilot_lam = _select(pilot_rows, lambda p: (-p["pilot_lambda"],)).params["pilot_lambda"]
    rho_rows = [
        CvRow({"pilot_rho": rho},
              *_score_mean(data, roles, folds,
                           lambda tr, te, rho=rho: _pilot_rho_score(tr, te, roles, rho)))
        for rho in grid.pilot_rho
    ]
    pilot_rho = _select(rho_rows, lambda p: (-p["pilot_rho"],)).params["pilot_rho"]

    rows = []
    for lam1, rho1, (zeta1, xi1), lam2, xi2, rho2, rho2b in itertools.product(
        grid.lambda1, grid.rho1, grid.zeta_xi, grid.lambda2, grid.xi2,
        grid.rho2, grid.rho2_prime,
    ):
        cand = {
            "lambda1": lam1, "rho1": rho1, "zeta1": zeta1, "xi1": xi1,
            "lambda2": lam2, "xi2": xi2, "rho2": rho2, "rho2_prime": rho2b,
        }
        mean, per_fold = _score_mean(
            data, roles, folds,
            lambda tr, te, c=cand: _stage1_score(tr, te, roles, pilot_lam, pilot_rho, c),
        )
        rows.append(CvRow(cand, mean, per_fold))
    best = _select(
        rows,
        lambda p: (-p["lambda1"], -p["rho1"], -p["lambda2"], -p["rho2"],
                   -p["rho2_prime"], -p["zeta1"], -p["xi1"], -p["xi2"]),
    )
    chosen = {"pilot_lambda": pilot_lam, "pilot_rho": pilot_rho, **best.params}
    table = tuple(pilot_rows + rho_rows + rows)
    return CvResult("pcm", chosen, best.mean_score, table)


# -- baselines -------------------------------------------------------------------


def _cross_validate_baseline(data, roles, method, grid: ParamGrid, folds) -> CvResult:
    if not grid.lam:
        raise EmptyGrid("baseline grid has no penalty candidates")
    etas = grid.eta if method in ("adaptive_lasso", "pal1ma") else (1.0,)
    phis = grid.phi if method == "elastic_net" else (0.5,)
    if not etas or not phis:
        raise EmptyGrid(f"{method} grid has an empty parameter list")
    pilot_lam = 1.0
    if method in ("adaptive_lasso", "pal1ma"):
        if not grid.pilot_lambda:
            raise EmptyGrid("pilot grid is empty")
        # pal1ma's pilot is the outcome pilot of its mediator-free roles
        base = replace(roles, s=(), sbar=())
        pilot_rows = [
            CvRow({"pilot_lambda": lam},
                  *_score_mean(data, roles, folds,
                               lambda tr, te, lam=lam: _pilot_lambda_score(tr, te, base, lam)
                               if method == "pal1ma"
                               else _uniform_pilot_score(tr, te, roles, lam)))
            for lam in grid.pilot_lambda
        ]
        pilot_lam = _select(pilot_rows, lambda p: (-p["pilot_lambda"],)).params["pilot_lambda"]
    cols = [roles.x] + list(roles.covariates)
    rows = []
    for lam, eta, phi in itertools.product(grid.lam, etas, phis):
        cand = {"lam": lam}
        if method in ("adaptive_lasso", "pal1ma"):
            cand["eta"] = eta
            cand["pilot_lam"] = pilot_lam
        if method == "elastic_net":
            cand["phi"] = phi

        def fit_predict(tr, te, lam=lam, eta=eta, phi=phi):
            beta = penalized_coefficients(tr, roles, method, lam, eta=eta, phi=phi,
                                          pilot_lam=pilot_lam)
            resid = te.column(roles.y) - te.values[:, te.index_of(cols)] @ beta
            return float(resid @ resid) / te.n

        mean, per_fold = _score_mean(data, roles, folds, fit_predict)
        rows.append(CvRow(cand, mean, per_fold))
    best = _select(rows, lambda p: (-p["lam"], -p.get("eta", 0.0), -p.get("phi", 0.0)))
    return CvResult(method, dict(best.params), best.mean_score, tuple(rows))


def _uniform_pilot_score(train: Dataset, test: Dataset, roles, lam: float) -> float:
    cols = [roles.x] + list(roles.covariates)
    beta = ridge_solve(train.cross(cols, cols), train.cross(cols, [roles.y])[:, 0],
                       train.n, np.full(len(cols), lam))
    resid = test.column(roles.y) - test.values[:, test.index_of(cols)] @ beta
    return float(resid @ resid) / test.n


def cv_table_csv(result: CvResult) -> str:
    """Render a CV score table as CSV (params, mean score, per-fold scores)."""
    keys = sorted({k for row in result.table for k in row.params})
    n_folds = max((len(row.fold_scores) for row in result.table), default=0)
    header = keys + ["mean_score"] + [f"fold_{i + 1}" for i in range(n_folds)]
    lines = [",".join(header)]
    for row in result.table:
        cells = [repr(row.params[k]) if k in row.params else "" for k in keys]
        cells.append(repr(row.mean_score))
        cells.extend(repr(s) for s in row.fold_scores)
        cells.extend([""] * (n_folds - len(row.fold_scores)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
