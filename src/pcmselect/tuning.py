"""Cross-validation selection of penalty and tuning parameters.

The protocol is two-phase and deterministic:

1.  Pilot penalties are selected first by k-fold prediction error of the
    ridge pilots themselves (outcome pilot for ``pilot_lambda``, mediator
    pilot for ``pilot_rho``), then held fixed.  One call of
    ``pcm.ridge_pilot_y_grid`` fits the outcome pilot at every
    ``pilot_lambda`` value on every fold's training set, and one of
    ``pcm.ridge_pilot_m_grid`` the mediator pilot at every ``pilot_rho``
    value, each in one batched solve.
2.  The stage-1 penalties are scored by held-out mean squared error of the
    stage-1 fits.  The score is additive: the outcome model's error, which
    depends only on (lambda1, zeta1, xi1), plus the mediator model's error
    per response column, which depends only on rho1.  So each fold's weights
    come once from its pilot fits at the chosen values (``pcm.pilot_weights``),
    and every row of the (lambda1, rho1, (zeta1, xi1)) product sums one
    error of each model.  The L1 weights of
    the lambda1 candidates of one (zeta1, xi1) pair are multiples of one
    vector, and so are those of the rho1 candidates of one mediator column,
    so each pair's outcome fits are read off one L1 solution path, and each
    mediator column's off one more.  One ``solvers.l1_path`` call follows
    the path of every pair on every fold as a lane on that fold's training
    gram and row count, and one more that of every mediator column on every
    fold, so a cross-validation makes two solver calls; a fit equals the one
    fitted alone wherever the two paths take the same events.  Each fold's
    held-out errors of all its candidates are stacked products.
    The debiasing ridges are not scored; they keep ``PcmParams``' defaults.
    A penalized baseline scores the held-out error of the coefficient fit
    that its registry entry holds (``Method.fit``).  It searches the keys
    that the registry gives it (``lam`` and whichever of ``eta`` and ``phi``
    it takes), after the ``pilot_lam`` of its ridge pilot (``Method.pilot``)
    when the entry holds one, and every candidate passes the registry's
    checks before any fit.  The pilot grid is one ``Method.pilot`` call on
    every fold's training set, and the fits at every distinct ``lam`` of one
    value of the other keys are one ``Method.fit`` call on all of them, with
    the fits of the chosen pilot, which every candidate reuses.  The call
    reads its ``lam`` grid off one L1 path per fold wherever the quadratic
    weight stays fixed: one path call per ``eta`` value, or per ``lam`` value
    where ``phi`` is below 1.

Folds come from a seeded permutation, so selection is reproducible; ties are
broken toward stronger regularization.  A fit that fails on some fold (for
example an unpenalized pilot on a singular design) scores infinity there,
for every candidate that uses it, rather than aborting the search.  On a
stage-1 path, a singular active block or the event cap fails every candidate
of that path at or below the penalty where it happens, and no other lane's;
a fit whose endpoint misses the stationarity conditions fails alone.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .baselines import _without_mediators
from .data import Dataset, RolePartition
from .errors import ConfigInvalid, EmptyGrid, FoldTooSmall, PcmSelectError
from .experiment import METHODS, check_params
from .pcm import (
    MIX_SLACK,
    pcm_stage1_m_path,
    pcm_stage1_y_path,
    pilot_weights,
    ridge_pilot_m_grid,
    ridge_pilot_y_grid,
)

__all__ = ["ParamGrid", "CvRow", "CvResult", "cross_validate", "default_log_grid"]


def default_log_grid() -> tuple[float, ...]:
    return tuple(float(v) for v in np.logspace(-3, 2, 13))


def _candidates(name: str, values) -> tuple[float, ...]:
    # a list or tuple of numbers; a JSON string or a boolean is not one
    if not isinstance(values, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, numbers.Real) for v in values):
        raise TypeError(f"{name} candidates must be a list of numbers, got {values!r}")
    vals = tuple(float(v) for v in values)
    if not all(0 <= v < math.inf for v in vals):
        raise ValueError(f"{name} candidates must be finite and nonnegative")
    return vals


def _mix_pairs(zetas, xis) -> tuple[tuple[float, float], ...]:
    """The (zeta1, xi1) pairs of the product with ``zeta1 + xi1 <= 1``."""
    return tuple((z, x) for z, x in itertools.product(zetas, xis) if z + x <= 1.0 + MIX_SLACK)


def _default_mix_pairs() -> tuple[tuple[float, float], ...]:
    levels = [round(0.1 * i, 1) for i in range(11)]
    return _mix_pairs(levels, levels)


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
    lam: tuple[float, ...] = field(default_factory=default_log_grid)
    eta: tuple[float, ...] = (1.0,)
    phi: tuple[float, ...] = (0.5,)
    folds: int = 5
    fold_seed: int = 0

    def __post_init__(self):
        # type(), not isinstance(): a boolean is an int to isinstance
        if type(self.folds) is not int or self.folds < 2:
            raise ValueError(f"folds must be an integer of at least 2, got {self.folds!r}")
        if type(self.fold_seed) is not int or self.fold_seed < 0:
            raise ValueError(f"fold_seed must be a nonnegative integer, got {self.fold_seed!r}")
        for name in ("pilot_lambda", "pilot_rho", "lambda1", "rho1", "lam", "eta", "phi"):
            object.__setattr__(self, name, _candidates(name, getattr(self, name)))
        pairs = tuple(_candidates("zeta_xi", pair) for pair in self.zeta_xi)
        for pair in pairs:
            if len(pair) != 2 or not sum(pair) <= 1.0 + MIX_SLACK:
                raise ValueError(f"zeta_xi holds an invalid (zeta1, xi1) pair {pair}")
        object.__setattr__(self, "zeta_xi", pairs)

    @staticmethod
    def from_dict(payload: dict) -> "ParamGrid":
        """Grid from a JSON document; a malformed one raises :class:`ConfigInvalid`."""
        if not isinstance(payload, dict):
            raise ConfigInvalid("parameter grid must be a JSON object")
        try:
            kwargs = dict(payload)
            mix = [key for key in ("zeta_xi", "zeta1", "xi1") if key in kwargs]
            if "zeta_xi" in mix and len(mix) > 1:
                raise ValueError("give the (zeta1, xi1) pairs as zeta_xi or as zeta1 and xi1,"
                                 f" not both: got {', '.join(mix)}")
            if "zeta1" in kwargs or "xi1" in kwargs:
                kwargs["zeta_xi"] = _mix_pairs(_candidates("zeta1", kwargs.pop("zeta1", [0.0])),
                                               _candidates("xi1", kwargs.pop("xi1", [0.0])))
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


def _splits(data: Dataset, folds) -> list[tuple[Dataset, Dataset]]:
    """The (train, test) datasets of each fold."""
    return [
        (Dataset(data.values[np.concatenate(folds[:i] + folds[i + 1:])], data.columns),
         Dataset(data.values[test_rows], data.columns))
        for i, test_rows in enumerate(folds)
    ]


def _rows(params, per_fold) -> list[CvRow]:
    """One row per parameter set; ``per_fold`` holds each fold's scores in that order.

    The means are one reduction over the (rows x folds) table, whose rows are
    contiguous, so each is summed as ``np.mean`` sums that row alone.
    """
    means = np.column_stack(per_fold).mean(axis=1).tolist()
    return [CvRow(p, mean, scores) for p, mean, scores in zip(params, means, zip(*per_fold))]


def _y_held(test: Dataset, roles: RolePartition) -> tuple[np.ndarray, np.ndarray]:
    """The held-out outcome and its design ``roles.y_regressors``."""
    return test.column(roles.y), test.values[:, test.index_of(roles.y_regressors)]


def _m_held(test: Dataset, roles: RolePartition) -> tuple[np.ndarray, np.ndarray]:
    """The held-out mediators and their design ``roles.m_regressors``."""
    return (test.values[:, test.index_of(roles.mediators)],
            test.values[:, test.index_of(roles.m_regressors)])


def _y_errors(y: np.ndarray, a: np.ndarray, fits) -> list[float]:
    """Held-out mean squared error of the outcome ``y`` on the design ``a`` at each
    coefficient vector of ``fits``; infinity where a fit failed (the entry is its
    exception).

    The residuals and their squared norms are stacked products, one
    matrix-vector and one inner product per fit, so each error is
    ``(y - a @ beta) @ (y - a @ beta) / len(y)`` to the bit.
    """
    ok = [i for i, beta in enumerate(fits) if not isinstance(beta, PcmSelectError)]
    errors = [math.inf] * len(fits)
    if ok:
        resid = y[:, None] - np.matmul(a[None], np.array([fits[i] for i in ok])[:, :, None])
        for i, sq in zip(ok, np.matmul(resid.transpose(0, 2, 1), resid).ravel().tolist()):
            errors[i] = sq / len(y)
    return errors


def _m_errors(m: np.ndarray, a: np.ndarray, fits) -> list[float]:
    """Held-out mean squared error of the mediators ``m``, per mediator column, at
    each entry of ``fits``: one coefficient column on the design ``a`` per
    mediator.  Infinity where a column's fit failed (the column is its exception).

    Each error is ``np.sum(resid * resid) / resid.size`` of
    ``resid = m - a @ np.column_stack(columns)`` to the bit, with the
    products and the sums stacked over the entries.
    """
    n, q_m = m.shape
    if q_m == 0:
        return [0.0] * len(fits)
    ok = [i for i, columns in enumerate(fits)
          if not any(isinstance(c, PcmSelectError) for c in columns)]
    errors = [math.inf] * len(fits)
    if ok:
        resid = m - np.matmul(a[None], np.array([np.column_stack(fits[i]) for i in ok]))
        for i, sq in zip(ok, (resid * resid).reshape(len(ok), -1).sum(axis=1).tolist()):
            errors[i] = sq / (n * q_m)
    return errors


def cross_validate(data: Dataset, roles: RolePartition, method: str, grid: ParamGrid) -> CvResult:
    """Select parameters for ``method`` by deterministic k-fold prediction error.

    ``method`` is a registry name whose :class:`~pcmselect.experiment.Method`
    has ``cv`` set: ``pcm``, ``lasso``, ``adaptive-lasso``, ``elastic-net``
    or ``pal1ma``.  Ties break toward larger penalties; the resulting
    selection is invariant to the enumeration order of the grid.  A baseline
    candidate out of its registry range raises :class:`ConfigInvalid`.
    """
    if method not in METHODS or not METHODS[method].cv:
        raise ValueError(f"unknown method {method!r} for cross-validation")
    data.check_roles(roles)
    splits = _splits(data, _fold_indices(data.n, grid.folds, grid.fold_seed))
    if method == "pcm":
        return _cross_validate_pcm(roles, grid, splits)
    return _cross_validate_baseline(roles, method, grid, splits)


def _select(rows: list[CvRow], tie_key) -> CvRow:
    return min(rows, key=lambda r: (r.mean_score,) + tie_key(r.params))


def _search(key: str, values, per_fold) -> tuple[list[CvRow], float]:
    """The rows of one key's values, given each fold's scores of them, and the value
    of the best mean score, ties toward the larger value."""
    rows = _rows([{key: v} for v in values], per_fold)
    return rows, _select(rows, lambda p: (-p[key],)).params[key]


# -- pcm ------------------------------------------------------------------------


def _stage1_scores(held, roles, weights, grid: ParamGrid) -> list[list[float]]:
    """Each fold's score of every (lambda1, rho1, (zeta1, xi1)) row, in product order.

    ``held`` holds each fold's training set and held-out responses and
    designs, and ``weights`` each fold's adaptive weights or its pilots'
    failure.  The folds with weights go into one L1 path call with one lane
    per fold and distinct (zeta1, xi1) pair over the distinct lambda1 values,
    and one more with one lane per fold and mediator column over the distinct
    rho1 values.  A failed fit scores infinity, and a fold whose pilots
    failed scores infinity on every row.
    """
    rows = list(itertools.product(grid.lambda1, grid.rho1, grid.zeta_xi))
    per_fold = [[math.inf] * len(rows) for _ in held]
    fitted = [i for i, w in enumerate(weights) if not isinstance(w, PcmSelectError)]
    if not fitted:
        return per_fold
    lams, rhos = sorted(set(grid.lambda1), reverse=True), sorted(set(grid.rho1), reverse=True)
    pairs = list(dict.fromkeys(grid.zeta_xi))
    folds = [(held[i][0], weights[i]) for i in fitted]
    for i, y_lanes, m_lanes in zip(fitted, pcm_stage1_y_path(folds, roles, lams, pairs),
                                   pcm_stage1_m_path([(tr, roles, w) for tr, w in folds], rhos)):
        _, y_held, m_held = held[i]
        y_errs = dict(zip(itertools.product(pairs, lams),
                          _y_errors(*y_held, [fit for lane in y_lanes for fit in lane])))
        m_errs = dict(zip(rhos, _m_errors(*m_held, [[lane[k] for lane in m_lanes]
                                                    for k in range(len(rhos))])))
        per_fold[i] = [y_errs[pair, lam1] + m_errs[rho1] for lam1, rho1, pair in rows]
    return per_fold


def _at(fits, values, value) -> list:
    """Each fold's fit at ``value`` of its fits at ``values``, or the fold's failure."""
    return [fold if isinstance(fold, PcmSelectError) else fold[values.index(value)]
            for fold in fits]


def _pilots(held, roles, grid: ParamGrid) -> tuple:
    """The rows of both pilot searches, the chosen pilot_lambda and pilot_rho, and each
    fold's adaptive weights from its pilot fits at those values (or its failure).

    Each pilot grid is one call over every fold's training set.  The grids'
    fits go when this returns; the weights hold none of them.
    """
    trains = [tr for tr, _, _ in held]
    y_fits = ridge_pilot_y_grid(trains, roles, grid.pilot_lambda)
    m_fits = ridge_pilot_m_grid(trains, roles, grid.pilot_rho)
    lam_rows, pilot_lam = _search("pilot_lambda", grid.pilot_lambda, [
        _y_errors(*y_te, fits) for (_, y_te, _), fits in zip(held, y_fits)])
    rho_rows, pilot_rho = _search("pilot_rho", grid.pilot_rho, [
        _m_errors(*m_te, [[fit] if isinstance(fit, PcmSelectError) else list(fit.T)
                          for fit in fits])
        for (_, _, m_te), fits in zip(held, m_fits)])
    return lam_rows + rho_rows, pilot_lam, pilot_rho, pilot_weights(
        _at(y_fits, grid.pilot_lambda, pilot_lam), _at(m_fits, grid.pilot_rho, pilot_rho), roles)


def _cross_validate_pcm(roles, grid: ParamGrid, splits) -> CvResult:
    if not (grid.pilot_lambda and grid.pilot_rho and grid.lambda1 and grid.rho1
            and grid.zeta_xi):
        raise EmptyGrid("pcm grid has an empty parameter list")
    # each fold's training set and held-out data
    held = [(tr, _y_held(te, roles), _m_held(te, roles)) for tr, te in splits]
    pilot_rows, pilot_lam, pilot_rho, weights = _pilots(held, roles, grid)
    per_fold = _stage1_scores(held, roles, weights, grid)
    rows = _rows([{"lambda1": lam1, "rho1": rho1, "zeta1": zeta1, "xi1": xi1}
                  for lam1, rho1, (zeta1, xi1)
                  in itertools.product(grid.lambda1, grid.rho1, grid.zeta_xi)], per_fold)
    best = _select(rows, lambda p: (-p["lambda1"], -p["rho1"], -p["zeta1"], -p["xi1"]))
    chosen = {"pilot_lambda": pilot_lam, "pilot_rho": pilot_rho, **best.params}
    return CvResult("pcm", chosen, best.mean_score, tuple(pilot_rows + rows))


# -- baselines -------------------------------------------------------------------


def _cross_validate_baseline(roles, name, grid: ParamGrid, splits) -> CvResult:
    method = METHODS[name]
    keys = [key for key in ("lam", "eta", "phi") if key in method.allowed]
    values = [getattr(grid, key) for key in keys]
    if not all(values) or (method.pilot and not grid.pilot_lambda):
        raise EmptyGrid(f"{name} grid has an empty parameter list")
    cands = [dict(zip(keys, combo)) for combo in itertools.product(*values)]
    # pilot_lam candidates are finite and nonnegative by ParamGrid, its whole range
    for cand in cands:
        check_params(name, cand, roles)
    held = [_y_held(te, _without_mediators(roles)) for _, te in splits]
    trains = [tr for tr, _ in splits]
    pilots, suffix = None, {}
    if method.pilot:
        # the pilot grid on every fold in one call; every candidate reuses the chosen fits
        pilot_fits = method.pilot(trains, roles, grid.pilot_lambda)
        _, pilot_lam = _search("pilot_lambda", grid.pilot_lambda, [
            _y_errors(*y_te, fold) for y_te, fold in zip(held, pilot_fits)])
        pilots, suffix = _at(pilot_fits, grid.pilot_lambda, pilot_lam), {"pilot_lam": pilot_lam}
    # the lam grid of each value of the other keys in one call on every fold
    lams = sorted(set(grid.lam), reverse=True)
    fits = {rest: method.fit(trains, roles, pilots, lams, **dict(zip(keys[1:], rest)))
            for rest in dict.fromkeys(itertools.product(*values[1:]))}
    per_cand = [_at(fits[tuple(cand.values())[1:]], lams, cand["lam"]) for cand in cands]
    rows = _rows([{**cand, **suffix} for cand in cands],
                 [_y_errors(*y_te, list(fold)) for y_te, fold in zip(held, zip(*per_cand))])
    best = _select(rows, lambda p: (-p["lam"], -p.get("eta", 0.0), -p.get("phi", 0.0)))
    return CvResult(name, dict(best.params), best.mean_score, tuple(rows))


def cv_table_csv(result: CvResult) -> str:
    """Render a CV score table as CSV (params, mean score, per-fold scores).

    A row without a parameter key leaves its cell empty.  A grid's values recur in
    many rows, so each value is rendered once; they are told apart by identity, as
    equal values such as 0.0 and -0.0 render apart."""
    keys = sorted({k for row in result.table for k in row.params})
    n_folds = max((len(row.fold_scores) for row in result.table), default=0)
    header = keys + ["mean_score"] + [f"fold_{i + 1}" for i in range(n_folds)]
    text = {id(None): ""}  # the cell of a missing key: params.get gives None
    for row in result.table:
        for value in row.params.values():
            if id(value) not in text:
                text[id(value)] = repr(value)
    lines = [",".join(header)]
    for row in result.table:
        lines.append(",".join([*[text[id(row.params.get(k))] for k in keys],
                               *map(repr, (row.mean_score, *row.fold_scores)),
                               *[""] * (n_folds - len(row.fold_scores))]))
    lines.append("")  # the final line break, without a second copy of the text
    return "\n".join(lines)
