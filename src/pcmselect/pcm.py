"""The two-stage covariate/mediator-selecting total-effect estimator.

Pipeline (all on standardized data):

1.  Ridge pilots.  An outcome-model pilot solves the block system of the
    outcome on [treatment, fixed mediators, fixed covariates, candidate
    mediators, candidate covariates] with ``n * lam`` added to the diagonal
    of the treatment and candidate blocks only.  A mediator-model pilot does
    the same for each mediator on [treatment, covariates] with ``n * rho`` on
    the candidate-covariate diagonal.
2.  Adaptive weights.  Reciprocal pilot magnitudes, standardized to sum one:
    candidate-mediator weights come from the mediator-model treatment
    coefficients, candidate-covariate weights from the outcome-model pilot,
    and a matrix of weights for the mediator model from its own
    candidate-covariate pilots.
3.  Stage 1.  Weighted-L1 fits, solved exactly by following the penalty
    path.  The outcome model penalizes the treatment with weight
    ``lam1*zeta1``, candidate mediators with ``lam1*xi1*w``, candidate
    covariates with ``lam1*(1-zeta1-xi1)*w``; fixed covariates and mediators
    are never penalized.  The supports of the treatment / candidate blocks
    are the active sets.  The roles and weights are restricted to them once,
    and every later step works on that active design.  The mediator model is
    fitted once, on it: each fixed or active candidate mediator on
    [treatment, fixed covariates, active candidate covariates], penalizing
    the candidate covariates only.
4.  Correction.  Each penalized active column of the outcome model (the
    treatment when active, the active candidate mediators and covariates)
    whose L1 weight ``lambda1 * share`` is positive is ridge-refitted on the
    other columns of the active design [x, s, active sbar, z, active zbar];
    a block of zero weight was never shrunk, so it is neither refitted nor
    corrected.  The refit coefficients, with -1 on each column's own row,
    form one partial-regression matrix; applied to the sign-and-weight
    subgradient through the pseudoinverted residual grams, it removes the
    first-order shrinkage bias from the stage-1 coefficients.  When ``rho1``
    is positive, each mediator column's treatment coefficient gets the same
    correction on that column's own active candidate covariates.
5.  Total effect: corrected treatment coefficient plus the product of the
    corrected treatment-on-mediator and mediator-on-outcome blocks (the
    treatment coefficient is zero when stage 1 deactivated the treatment).
    Without observed covariates but with mediators, the total effect is the
    mediator product alone (front-door identification): the treatment then
    stays a regressor of the outcome model, but its coefficient carries the
    unadjusted treatment-outcome confounding, so it is not added.  This
    assumes that the mediators intercept every directed path from the
    treatment to the outcome.

Steps 3-5 are one function, :func:`fit_from_weights`.  :func:`pcm_fits`
runs it on the weights of steps 1-2, and :func:`pcm_total_effect` is its
one-dataset case.  The partially adaptive baseline
(``baselines.pal1ma_estimates``) is its no-mediator case: roles without
mediators, its own covariate weights, zero treatment and mediator penalties;
cross-validation scores its :func:`pcm_stage1_y_path` fits and
:func:`ridge_pilot_y_grid` pilots.

Both take a sequence of datasets, such as the samples of a chunk of Monte
Carlo replications, and return one fit or one failure per dataset.  Steps
1-4 run over all of them at once: each ridge pilot of every dataset is one
batched solve, and step 2 (:func:`pilot_weights`) is one pass over the
stacks of the pilots.  Every dataset's stage-1 outcome fit is a lane of one
L1 path call, whose candidate weights are one broadcast of the stacked
adaptive weights, and its mediator fits are lanes of one more per shape of
the active mediator design.  Each of these calls reads the grams of all its
datasets in one :func:`~pcmselect.data.gram_stack`.  Step 4
(:func:`corrections`) groups the datasets by the shape of their active
design and runs each group's debiasing ridges, residual grams,
pseudoinverses and corrections as stacked calls.  The active sets of all
stage-1 fits come from their stack in one pass, and the datasets with one
active set share its roles and index arrays, built once; each dataset
gathers its active weights and blocks with them, and step 5 runs per
dataset.  Every system is its own LAPACK call, so no fit depends on the
other datasets of its call, and a failure stays with its dataset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import Dataset, RolePartition, gram_stack
from .errors import PcmSelectError, on_successes, unwrap
from .linalg import pseudo_inverse_batch
from .solvers import _ridge_batch, l1_path, ols_batch, ridge_grid

__all__ = [
    "PcmParams",
    "YModelCoefs",
    "MediatorCoefs",
    "AdaptiveWeights",
    "DebiasBlocks",
    "CorrectedBlocks",
    "PcmFit",
    "ridge_pilot_y",
    "ridge_pilot_y_grid",
    "ridge_pilot_m",
    "ridge_pilot_m_grid",
    "adaptive_weights",
    "pilot_weights",
    "pcm_stage1_y",
    "pcm_stage1_y_path",
    "pcm_stage1_m",
    "pcm_stage1_m_path",
    "debias_ridges",
    "pcm_correct",
    "corrections",
    "fit_from_weights",
    "pcm_total_effect",
    "pcm_fits",
]

# How far zeta1 + xi1 may exceed 1: decimal inputs such as 0.7 + 0.3 carry
# rounding error in their sum.
MIX_SLACK = 1e-12

# Magnitudes below this are raised to it before their reciprocal powers are taken.
WEIGHT_FLOOR = 1e-8

# The largest exponent of those powers: WEIGHT_FLOOR ** -ETA_MAX is 1e256, so no
# weight and no sum of fewer than 1e50 of them overflows.  A larger one is rejected.
ETA_MAX = 32.0

# Relative singular-value cutoff for the residual-gram pseudoinverses in the
# bias correction.  These grams are singular to machine precision whenever the
# active design nearly saturates the sample, and directions below sampling
# noise would otherwise dominate the correction.
CORRECTION_PINV_TOL = 1e-3

# ---------------------------------------------------------------------------
# parameters and result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcmParams:
    """Hyperparameters of the full pipeline.

    ``lambda1, zeta1, xi1`` control the outcome-model stage-1 penalties,
    ``rho1`` the mediator-model stage-1 penalty, ``pilot_lambda`` and
    ``pilot_rho`` the ridge pilots, and ``lambda2, xi2, rho2, rho2_prime``
    the debiasing ridges.  Constraints: all finite and nonnegative,
    ``zeta1 + xi1 <= 1``, ``xi2`` in [0, 1].
    """

    lambda1: float
    rho1: float
    zeta1: float
    xi1: float
    pilot_lambda: float = 1.0
    pilot_rho: float = 1.0
    lambda2: float = 0.01
    xi2: float = 0.5
    rho2: float = 0.01
    rho2_prime: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and nonnegative")
        if self.zeta1 + self.xi1 > 1.0 + MIX_SLACK:
            raise ValueError("zeta1 + xi1 must not exceed 1")
        if not 0.0 <= self.xi2 <= 1.0:
            raise ValueError("xi2 must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class YModelCoefs:
    """Outcome-model coefficient blocks (shared by OLS, pilot, and stage 1)."""

    beta_x: float
    coef_s: np.ndarray
    coef_z: np.ndarray
    coef_sbar: np.ndarray
    coef_zbar: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate(
            [[self.beta_x], self.coef_s, self.coef_z, self.coef_sbar, self.coef_zbar]
        )


@dataclass(frozen=True)
class MediatorCoefs:
    """Mediator-model coefficients: rows for x / fixed / candidate covariates.

    ``x_row`` has one entry per mediator column; ``z_rows`` is
    (q_z, n_mediators); ``zbar_rows`` is (q_zbar_used, n_mediators).
    """

    x_row: np.ndarray
    z_rows: np.ndarray
    zbar_rows: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.vstack([self.x_row[None, :], self.z_rows, self.zbar_rows])


@dataclass(frozen=True)
class AdaptiveWeights:
    """Standardized reciprocal-magnitude weights.

    ``sbar`` and ``zbar`` each sum to one (when nonempty); ``med`` is a
    (q_zbar, q_m) matrix summing to one overall.  ``floored`` reports whether
    any pilot magnitude hit the reciprocal floor.
    """

    sbar: np.ndarray
    zbar: np.ndarray
    med: np.ndarray
    floored: bool = False


@dataclass(frozen=True)
class DebiasBlocks:
    """Active-set ridge refits used by the bias correction.

    The frame is the active design [x, s, active sbar, z, active zbar], with
    x left out when the treatment is inactive.  ``coef`` has one column per
    column of each corrected block, in frame order (the treatment, active
    candidate mediators and covariates whose L1 weight ``lambda1 * share`` is
    positive): its refit coefficients on the other columns of the frame, and
    -1 on its own row.  ``resid_grams`` holds the residual gram of each
    corrected block in the same order.  ``zb_on_xz_coef``: unpenalized refit
    of the active candidate covariates on [x, z], used by the
    mediator-equation correction, with its residual gram; None without active
    candidate covariates or when ``rho1`` is 0.  For a group of datasets,
    each array is a stack with one entry per dataset.
    """

    coef: np.ndarray
    resid_grams: list[np.ndarray]
    zb_on_xz_coef: np.ndarray | None
    zb_on_xz_resid_gram: np.ndarray | None


@dataclass(frozen=True)
class CorrectedBlocks:
    """Sign-corrected coefficients entering the total-effect formula."""

    beta_x: float
    coef_s: np.ndarray
    coef_sbar_active: np.ndarray
    med_x: np.ndarray  # treatment effect on [fixed, active candidate] mediators
    y_on_mediators: np.ndarray


@dataclass(frozen=True)
class PcmFit:
    """Everything produced by one run of the pipeline.

    ``stage1_m`` is the mediator fit on the active sets: columns are the
    fixed and active candidate mediators, ``zbar_rows`` the active candidate
    covariates.  ``total_effect`` is ``corrected.beta_x`` plus the mediator
    product ``corrected.med_x @ corrected.y_on_mediators``; without
    covariates but with mediators it is the mediator product alone, and
    ``corrected.beta_x`` is reported but not added.
    """

    params: PcmParams
    weights: AdaptiveWeights
    stage1_y: YModelCoefs
    stage1_m: MediatorCoefs
    active_x: bool
    active_sbar: np.ndarray
    active_zbar: np.ndarray
    corrected: CorrectedBlocks
    total_effect: float

    def to_dict(self) -> dict:
        def plain(block) -> dict:
            return {f.name: np.asarray(getattr(block, f.name)).tolist() for f in fields(block)}

        return {
            "total_effect": self.total_effect,
            "active_x": bool(self.active_x),
            "active_sbar": self.active_sbar.tolist(),
            "active_zbar": self.active_zbar.tolist(),
            "stage1_y": plain(self.stage1_y),
            "stage1_m": plain(self.stage1_m),
            "corrected": plain(self.corrected),
            "weights": plain(self.weights),
            "params": self.params.to_dict(),
        }


def _split_y_coefs(beta: np.ndarray, roles: RolePartition) -> YModelCoefs:
    s = 1 + len(roles.s)
    z = s + len(roles.z)
    sbar = z + len(roles.sbar)
    return YModelCoefs(float(beta[0]), beta[1:s], beta[s:z], beta[z:sbar], beta[sbar:])


def _split_m_coefs(coefs: np.ndarray, q_z: int) -> MediatorCoefs:
    """Mediator-model coefficient rows [x, z, zbar] as blocks."""
    return MediatorCoefs(coefs[0], coefs[1 : 1 + q_z], coefs[1 + q_z :])


def _y_moments(datasets, roles: RolePartition) -> tuple:
    """The grams of the outcome-model regressors in each of ``datasets``, their cross
    products with y and the row counts, stacked: a split of one :func:`gram_stack`."""
    k = len(roles.y_regressors)
    grams = gram_stack(datasets, [(*roles.y_regressors, roles.y)] * len(datasets))
    return grams[:, :k, :k], grams[:, :k, k], [data.n for data in datasets]


# ---------------------------------------------------------------------------
# least squares and ridge pilots
# ---------------------------------------------------------------------------


def ridge_pilot_y(data: Dataset, roles: RolePartition, lam: float) -> YModelCoefs:
    """Outcome-model pilot: ``n*lam`` on the treatment/candidate diagonal blocks.

    Fixed covariates and mediators carry no penalty, so at ``lam == 0`` this
    is exactly the joint least-squares fit, with ``ols_batch``'s rank guard
    (a singular design raises).  The one-dataset, one-value case of
    :func:`ridge_pilot_y_grid`.
    """
    return _split_y_coefs(unwrap(ridge_pilot_y_grid([data], roles, [lam])[0][0]), roles)


def ridge_pilot_y_grid(datasets, roles: RolePartition, lams) -> list:
    """:func:`ridge_pilot_y` at each of ``lams`` on each of ``datasets``, in one
    :func:`solvers.ridge_grid` call: ``fits[d][k]`` is the :meth:`YModelCoefs.stacked`
    vector on ``datasets[d]`` at ``lams[k]`` or, if that fit failed, its exception."""
    pen = np.concatenate([[1.0], np.zeros(len(roles.s) + len(roles.z)),
                          np.ones(len(roles.sbar) + len(roles.zbar))])
    return ridge_grid(*_y_moments(datasets, roles), pen, lams)


def ridge_pilot_m(data: Dataset, roles: RolePartition, rho: float) -> MediatorCoefs:
    """Mediator-model pilot: each mediator on [x, z, zbar], ``n*rho`` on zbar.

    The one-dataset, one-value case of :func:`ridge_pilot_m_grid`.
    """
    return _split_m_coefs(unwrap(ridge_pilot_m_grid([data], roles, [rho])[0][0]), len(roles.z))


def ridge_pilot_m_grid(datasets, roles: RolePartition, rhos) -> list:
    """:func:`ridge_pilot_m` at each of ``rhos`` on each of ``datasets``, in one
    :func:`solvers.ridge_grid` call: ``fits[d][k]`` is the :meth:`MediatorCoefs.stacked`
    matrix on ``datasets[d]`` at ``rhos[k]`` or, if that fit failed, its exception."""
    k = len(roles.m_regressors)
    grams = gram_stack(datasets, [roles.m_regressors + roles.mediators] * len(datasets))
    pen = np.concatenate([np.zeros(1 + len(roles.z)), np.ones(len(roles.zbar))])
    return ridge_grid(grams[:, :k, :k], grams[:, :k, k:], [data.n for data in datasets], pen,
                      rhos)


# ---------------------------------------------------------------------------
# adaptive weights, and the stage-1 L1 weights built from them
# ---------------------------------------------------------------------------


def reciprocal_power_weights_stack(stack, eta: float = 1.0, normalize: bool = True) -> tuple:
    """``|v|**-eta`` weights of each array of a (D, ...) stack, over all of its entries,
    magnitudes floored at ``WEIGHT_FLOOR``, each array's summing to one, in one pass.

    Returns the stack of weights, and a (D,) bool array of whether each array
    had a magnitude floored.  The floor, the power and the sum go row by row,
    so each array's weights do not depend on the others.  ``normalize=False``
    skips the sum-one standardization (the classical adaptive-weight form).
    An ``eta`` above ``ETA_MAX``, where the power of a floored magnitude may
    overflow, raises ``ValueError``.
    """
    if not eta <= ETA_MAX:
        raise ValueError(f"eta must be at most {ETA_MAX:g}, got {eta!r}")
    mags = np.abs(np.asarray(stack, dtype=float))
    flat = mags.reshape(len(mags), math.prod(mags.shape[1:]))
    raw = np.power(np.maximum(flat, WEIGHT_FLOOR), -eta)
    if normalize:
        raw = raw / raw.sum(axis=1, keepdims=True)
    return raw.reshape(mags.shape), (flat < WEIGHT_FLOOR).any(axis=1)


def _adaptive_stack(m_sbar, y_zbar, m_zbar) -> list:
    """The :class:`AdaptiveWeights` of D datasets from the (D, ...) stacks of their pilot
    blocks: mediator-model treatment rows of the candidate mediators, outcome-model
    candidate covariates and mediator-model candidate-covariate rows.  Each views its
    rows of the three stacks of weights."""
    (sbar, f1), (zbar, f2), (med, f3) = map(reciprocal_power_weights_stack,
                                            (m_sbar, y_zbar, m_zbar))
    return [AdaptiveWeights(*w, floored=f)
            for *w, f in zip(sbar, zbar, med, (f1 | f2 | f3).tolist())]


def adaptive_weights(y, m) -> AdaptiveWeights:
    """Standardized weights from the pilot coefficient magnitudes of the outcome-model
    pilot ``y`` (:class:`YModelCoefs`) and the mediator-model pilot ``m``
    (:class:`MediatorCoefs`).

    Candidate-mediator weights use the treatment coefficients of the
    mediator-model pilot (a mediator whose treatment pilot vanishes carries
    no treatment effect, so its outcome coefficient should be free to drop);
    candidate-covariate weights use the outcome-model pilot; the mediator
    weight matrix uses the mediator-model candidate-covariate pilots.  The
    one-dataset case of :func:`pilot_weights`.
    """
    q_s = m.x_row.shape[0] - y.coef_sbar.shape[0]
    return _adaptive_stack(m.x_row[None, q_s:], y.coef_zbar[None], m.zbar_rows[None])[0]


def pilot_weights(y_pilots, m_pilots, roles: RolePartition) -> list:
    """Step 2 on each dataset: the :func:`adaptive_weights` of its outcome and mediator
    pilots, entries of :func:`ridge_pilot_y_grid` and :func:`ridge_pilot_m_grid`, or
    the failure of the first pilot that failed, in its place.

    One pass: the pilots of the datasets without a failure are stacked, and
    their sbar, zbar and med weights are (D, ...) arrays, floored, raised and
    summed row by row; each dataset's weights view its rows, and ``floored``
    is its own."""
    def stacked(ok):
        ys, ms = np.array([y_pilots[i] for i in ok]), np.array([m_pilots[i] for i in ok])
        return _adaptive_stack(ms[:, 0, len(roles.s):],
                               ys[:, len(roles.y_regressors) - len(roles.zbar):],
                               ms[:, 1 + len(roles.z):])

    return on_successes([y if isinstance(y, PcmSelectError) else m
                         for y, m in zip(y_pilots, m_pilots)], stacked)


def zbar_share(zeta1: float, xi1: float) -> float:
    """Candidate covariates' penalty share, clipped (``1 - 0.8 - 0.2`` is -5.6e-17)."""
    return max(0.0, 1.0 - zeta1 - xi1)


def _y_l1_weights(roles: RolePartition, sbar, zbar, lams, pairs) -> np.ndarray:
    """The outcome model's L1 weights on F datasets at each (zeta1, xi1) of ``pairs`` and
    each of ``lams``: an (F, pairs, lams, regressors) stack, one broadcast of the
    (F, q) stacks of their ``sbar`` and ``zbar`` weights."""
    # each pair's treatment, candidate-mediator and candidate-covariate share times each lam
    scales = (np.array([(z, x, zbar_share(z, x)) for z, x in pairs])[:, None]
              * np.asarray(lams, dtype=float)[:, None])
    q = 1 + len(roles.s) + len(roles.z)
    k = q + sbar.shape[1]
    out = np.zeros((len(sbar), *scales.shape[:2], k + zbar.shape[1]))
    out[..., 0] = scales[..., 0]
    out[..., q:k] = scales[..., 1:2] * sbar[:, None, None]
    out[..., k:] = scales[..., 2:] * zbar[:, None, None]
    return out


def _m_l1_weights(q_z: int, meds, rhos) -> np.ndarray:
    """The L1 weights of the mediator columns of each (candidate covariates, mediators)
    weight matrix of ``meds``, in order, at each of ``rhos``: one (mediators, rhos,
    regressors) broadcast over the designs [x, z, zbar] with ``q_z`` fixed covariates."""
    med = np.concatenate(meds, axis=1)
    return np.multiply.outer(rhos, np.vstack([np.zeros((1 + q_z, med.shape[1])), med])
                             ).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# stage 1 (weighted L1)
# ---------------------------------------------------------------------------


def pcm_stage1_y(
    data: Dataset,
    roles: RolePartition,
    weights: AdaptiveWeights,
    lam1: float,
    zeta1: float,
    xi1: float,
) -> YModelCoefs:
    """Weighted-L1 outcome fit; fixed covariates/mediators stay unpenalized.

    The one-candidate case of :func:`pcm_stage1_y_path`.
    """
    if min(lam1, zeta1, xi1) < 0 or zeta1 + xi1 > 1.0 + MIX_SLACK:
        raise ValueError("need lam1, zeta1, xi1 >= 0 and zeta1 + xi1 <= 1")
    (((beta,),),) = pcm_stage1_y_path([(data, weights)], roles, [lam1], [(zeta1, xi1)])
    return _split_y_coefs(unwrap(beta), roles)


def pcm_stage1_y_path(folds, roles: RolePartition, lams, pairs) -> list:
    """:func:`pcm_stage1_y` at each of ``lams`` (descending) for each (zeta1, xi1) of
    ``pairs``, on each (data, weights) pair of ``folds``.

    One :func:`solvers.l1_path` call with one lane per fold and pair:
    ``fits[f][i][k]`` is the coefficient vector (:meth:`YModelCoefs.stacked`)
    on ``folds[f]`` at ``pairs[i]`` and ``lams[k]`` or, if that fit failed,
    its exception.  The (folds, pairs, lams, regressors) candidate weights
    are one broadcast of the folds' stacked sbar and zbar weights, and
    ``l1_path`` takes a view of that stack, so the call holds one copy of them.
    """
    grams, crosses, ns = _y_moments([data for data, _ in folds], roles)
    l1 = _y_l1_weights(roles, *[np.array([getattr(w, key) for _, w in folds])
                                for key in ("sbar", "zbar")], lams, pairs)
    return l1_path(grams, ns, [len(pairs)] * len(folds), crosses.repeat(len(pairs), axis=0),
                   l1.reshape(len(folds) * len(pairs), *l1.shape[2:]))


def pcm_stage1_m(
    data: Dataset,
    roles: RolePartition,
    weights: AdaptiveWeights,
    rho1: float,
) -> MediatorCoefs:
    """Weighted-L1 mediator fits (one independent problem per mediator).

    The squared loss and the elementwise penalty both separate across
    mediator columns, so each column is solved on the shared design
    [x, z, zbar] with its own column of ``weights.med`` on the candidate
    covariates: the one-candidate case of :func:`pcm_stage1_m_path`.
    :func:`fit_from_weights` passes the active design's roles and weights.
    """
    if rho1 < 0:
        raise ValueError("rho1 must be nonnegative")
    return unwrap(_m_coefs(pcm_stage1_m_path([(data, roles, weights)], [rho1]), [roles])[0])


def _m_coefs(fits, roles) -> list:
    """Each one-candidate mediator fit of ``fits``, entries of :func:`pcm_stage1_m_path`
    on designs with ``roles``, as blocks, or the first failure of its lanes."""
    out = []
    for lanes, r in zip(fits, roles):
        columns = [beta for (beta,) in lanes]
        failed = [fit for fit in columns if isinstance(fit, PcmSelectError)]
        # the reshape keeps the shape when there are no mediators
        out.append(failed[0] if failed else _split_m_coefs(
            np.array(columns).reshape(-1, len(r.m_regressors)).T, len(r.z)))
    return out


def pcm_stage1_m_path(folds, rhos) -> list:
    """:func:`pcm_stage1_m` at each of ``rhos`` (descending), on each (data, roles,
    weights) triple of ``folds``.

    One :func:`solvers.l1_path` call per shape of the mediator design (its
    fixed and candidate covariates), with one lane per fold and mediator:
    ``fits[f][j][k]`` is mediator j's coefficient column on ``folds[f]`` at
    ``rhos[k]`` or, if that fit failed, its exception.  A call's candidate
    weights are one broadcast of its folds' med weights.  A fold without
    mediators has no lanes and takes no part in a call.
    """
    fits = [[] for _ in folds]
    shapes = {}  # the folds with mediators, by the shape of their mediator design
    for f, (_, roles, _) in enumerate(folds):
        if roles.mediators:
            shapes.setdefault((len(roles.z), len(roles.zbar)), []).append(f)
    for (q_z, _), group in shapes.items():
        datasets, roles, weights = zip(*[folds[f] for f in group])
        # the regressor grams in one gather; the mediator counts differ between folds
        lanes = l1_path(gram_stack(datasets, [r.m_regressors for r in roles]),
                        [d.n for d in datasets], [len(r.mediators) for r in roles],
                        np.concatenate([d.cross(r.m_regressors, r.mediators).T
                                        for d, r in zip(datasets, roles)]),
                        _m_l1_weights(q_z, [w.med for w in weights], rhos))
        for f, lane in zip(group, lanes):
            fits[f] = lane
    return fits


# ---------------------------------------------------------------------------
# step 4: the debiasing ridges and the bias correction
# ---------------------------------------------------------------------------


def _frame(roles) -> list:
    """The columns [x, s, sbar, z, zbar] of an active design's ``roles``."""
    return [roles.x, *roles.s, *roles.sbar, *roles.z, *roles.zbar]


def _shape(roles) -> tuple:
    """The sizes of the s, sbar, z and zbar blocks of ``roles``."""
    return len(roles.s), len(roles.sbar), len(roles.z), len(roles.zbar)


def _apply(blocks: DebiasBlocks, part) -> DebiasBlocks:
    """``blocks`` with ``part`` applied to each of its arrays."""
    return DebiasBlocks(part(blocks.coef), [part(gram) for gram in blocks.resid_grams],
                        *(None if block is None else part(block)
                          for block in (blocks.zb_on_xz_coef, blocks.zb_on_xz_resid_gram)))


def debias_ridges(data, roles, params, *, include_x: bool = True) -> DebiasBlocks:
    """Ridge refits of the corrected active columns plus their residual grams.

    The frame is [x, s, sbar, z, zbar] of the active design's ``roles``;
    ``include_x=False`` (treatment inactive in stage 1) leaves x out.  Each
    block that ``params`` give a positive L1 weight is refitted on the other
    columns of the frame: the treatment penalizing the candidate blocks by
    ``lambda2*xi2`` / ``lambda2*(1-xi2)``, the candidate mediators penalizing
    candidate covariates by ``rho2``, the candidate covariates penalizing
    candidate mediators by ``rho2_prime``.  A quadratic penalty ``p`` adds
    ``n*p`` to the gram diagonal, matching the pilot convention.  With all
    penalties zero the refits reduce to least squares and the residual grams
    to conditional cross-products.  The one-dataset case of a group's refits
    in :func:`corrections`; raises the first failure.
    """
    failed = {}
    blocks = _refits(gram_stack([data], [_frame(roles)]), np.array([data.n]), include_x,
                     _shape(roles), params, failed)
    if failed:
        raise failed[0]
    return _apply(blocks, lambda block: block[0])


def _corrected(p, sizes) -> tuple:
    """For params ``p`` and the ``sizes`` of a frame's treatment, candidate mediators and
    covariates: the (frame block, L1 share, ridge penalty of its refit on each frame
    block) of each corrected block, and whether the mediator columns are corrected."""
    blocks = [(0, p.zeta1, [0.0, 0.0, p.lambda2 * p.xi2, 0.0, p.lambda2 * (1 - p.xi2)]),
              (2, p.xi1, [0.0, 0.0, 0.0, 0.0, p.rho2]),
              (4, zbar_share(p.zeta1, p.xi1), [0.0, 0.0, p.rho2_prime, 0.0, 0.0])]
    return ([block for block, size in zip(blocks, sizes) if size and p.lambda1 * block[1] > 0],
            bool(sizes[2]) and p.rho1 > 0)


def _refits(ext, n, include_x: bool, shape: tuple, params, failed: dict) -> DebiasBlocks:
    """:func:`debias_ridges` on D datasets of one active-design ``shape``, from the
    (D, e, e) stack ``ext`` of their grams of [x, s, sbar, z, zbar] and their row
    counts ``n``: stacked blocks, each with zeros in place of a refit that failed.
    The first failure of each dataset goes into ``failed``, by index."""
    block_of = np.repeat(np.arange(5), (1, *shape))
    frame = np.arange(0 if include_x else 1, block_of.size)
    kept, mediators = _corrected(params, (include_x, shape[1], shape[3]))
    columns, resid_grams = [np.zeros((len(ext), frame.size, 0))], []
    for block, _, penalty in kept:
        own = block_of[frame] == block
        rows, cols = frame[~own], frame[own]
        s_aa, s_ar = _blocks(ext, rows, rows, cols)
        # a shift that overflows is taken at its limit by _ridge_batch
        with np.errstate(over="ignore"):
            shifts = n[:, None, None] * np.take(penalty, block_of[rows])
        fits = _ridge_batch(s_aa, s_ar, shifts)
        coef = _stacked([fit for (fit,) in fits], s_ar.shape[1:], failed)
        resid_grams.append(_resid_gram(*_blocks(ext, cols, cols), s_ar, s_aa, coef))
        column = np.zeros((len(ext), frame.size, cols.size))
        column[:, ~own] = coef
        column[:, own] = -np.eye(cols.size)
        columns.append(column)
    zb_on_xz = None, None
    if mediators:
        xz, zbar = np.flatnonzero((block_of == 0) | (block_of == 3)), np.flatnonzero(block_of == 4)
        s_aa, s_ar = _blocks(ext, xz, xz, zbar)
        coef = _stacked(ols_batch(s_aa, s_ar), s_ar.shape[1:], failed)
        zb_on_xz = coef, _resid_gram(*_blocks(ext, zbar, zbar), s_ar, s_aa, coef)
    return DebiasBlocks(np.concatenate(columns, axis=2), resid_grams, *zb_on_xz)


def _blocks(ext, rows, *cols) -> list:
    """The (rows, cols) block of each of a stack of grams for each of ``cols``, laid out
    as :func:`~pcmselect.data.gram_stack` lays out its blocks."""
    taken = ext.take(rows, axis=1)
    return [taken.take(c, axis=2) for c in cols]


def _stacked(fits: list, shape: tuple, failed: dict) -> np.ndarray:
    """The fits of a batched call as one stack, with zeros in place of each failure,
    which goes into ``failed`` unless its dataset failed before."""
    stack = np.zeros((len(fits), *shape))
    for i, fit in enumerate(fits):
        if isinstance(fit, PcmSelectError):
            failed.setdefault(i, fit)
        else:
            stack[i] = fit
    return stack


def _resid_gram(s_rr, s_ar, s_aa, coef) -> np.ndarray:
    """The residual grams ``S_rr - C.T S_ar - S_ra C + C.T S_aa C`` of a stack of refits."""
    coef_t = coef.transpose(0, 2, 1)
    fitted = coef_t @ s_ar
    return s_rr - fitted - fitted.transpose(0, 2, 1) + coef_t @ s_aa @ coef


def pcm_correct(stage1_y, stage1_m, debias: DebiasBlocks, weights, params,
                n: int) -> CorrectedBlocks:
    """Remove the first-order shrinkage bias from the stage-1 coefficients.

    Every input is on the active design: ``stage1_y`` holds the active
    candidate coefficients only, and the treatment is active when its
    coefficient is nonzero.  The corrected outcome blocks [x, s, sbar]
    subtract ``n*lambda1`` times the partial-regression matrix
    ``debias.coef`` applied to the sign-and-weight subgradient vector, with
    residual gram pseudoinverses standing in for the conditional gram
    inverses.  Each entry of the treatment-on-mediator row gets the
    analogous ``n*rho1`` correction on that mediator column's own candidate
    covariates: the rows and columns of the covariates-on-[treatment, fixed
    covariates] refit that the column's stage-1 fit (``stage1_m``) kept
    nonzero.  When the treatment is inactive its corrected coefficient is
    exactly zero and all treatment-dependent blocks drop out.  The
    one-dataset case of a group's corrections in :func:`corrections`.  Raises
    ``ValueError`` if ``debias`` holds other blocks than ``params`` correct.
    """
    failed = {}
    (corrected,) = _correct(_apply(debias, lambda block: block[None]), [stage1_y], [stage1_m],
                            [weights], params, np.array([n]), failed)
    return unwrap(failed.get(0, corrected))


def _correct(debias: DebiasBlocks, stage1_y, stage1_m, weights, params, n, failed: dict) -> list:
    """:func:`pcm_correct` on D datasets of one active-design shape, with the stacked
    ``debias`` blocks and D of each other input: D :class:`CorrectedBlocks`.  A
    pseudoinverse that fails gives zeros, and it goes into ``failed``, by index,
    unless its dataset failed before."""
    lam1, rho1 = params.lambda1, params.rho1
    active_x = stage1_y[0].beta_x != 0.0
    x = np.array([[fit.beta_x] if active_x else [] for fit in stage1_y])
    coef_s = np.array([fit.coef_s for fit in stage1_y])
    coef_sbar = np.array([fit.coef_sbar for fit in stage1_y])
    # (adaptive weights, coefficients) of each penalized block of the frame
    blocks = {0: (np.ones(x.shape), x), 2: (np.array([w.sbar for w in weights]), coef_sbar),
              4: (np.array([w.zbar for w in weights]), np.array([f.coef_zbar for f in stage1_y]))}
    kept, mediators = _corrected(params, [coef.shape[1] for _, coef in blocks.values()])
    if (len(kept), mediators) != (len(debias.resid_grams), debias.zb_on_xz_coef is not None):
        raise ValueError("debias holds the blocks of other L1 penalties than params")
    u = [np.zeros((len(x), 0))]
    for (block, share, _), gram in zip(kept, debias.resid_grams):
        w, coef = blocks[block]
        inverse = _inverse(gram, range(len(x)), failed)
        u.append(((share * inverse) @ (w * np.sign(coef))[..., None])[..., 0])
    target = np.concatenate([x, coef_s, coef_sbar], axis=1)
    # without a corrected block the blocks are stage 1's; n * lam1 may overflow
    corrected = target if not kept else target - (n * lam1)[:, None] * (
        debias.coef[:, : target.shape[1]] @ np.concatenate(u, axis=1)[..., None])[..., 0]

    med_x = np.array([fit.x_row for fit in stage1_m])
    if debias.zb_on_xz_coef is not None:
        rows = np.array([fit.zbar_rows for fit in stage1_m])
        med = np.array([w.med for w in weights])
        # each mediator column's own candidate covariates, gathered by their count
        kept = rows != 0
        sizes = kept.sum(axis=1)
        for size in sorted(set(sizes.ravel().tolist()) - {0}):
            d, j = np.nonzero(sizes == size)
            own = np.nonzero(kept[d, :, j])[1].reshape(-1, size)
            inverse = _inverse(debias.zb_on_xz_resid_gram[d[:, None, None], own[:, :, None],
                                                          own[:, None, :]], d, failed)
            at = d[:, None], own, j[:, None]
            gamma_signs = med[at] * np.sign(rows[at])
            med_x[d, j] -= n[d] * rho1 * ((debias.zb_on_xz_coef[d[:, None], 0, own][:, None]
                                          @ inverse) @ gamma_signs[..., None])[:, 0, 0]
    qx, q_s = x.shape[1], coef_s.shape[1]
    return [CorrectedBlocks(beta_x=float(row[0]) if active_x else 0.0, coef_s=row[qx : qx + q_s],
                            coef_sbar_active=row[qx + q_s :], med_x=med, y_on_mediators=row[qx:])
            for row, med in zip(corrected, med_x)]


def _inverse(grams, datasets, failed: dict) -> np.ndarray:
    """The stack of pseudoinverses of ``grams`` at ``CORRECTION_PINV_TOL``; the failure
    of each gram goes into ``failed`` under its entry of ``datasets``."""
    inverse, bad = pseudo_inverse_batch(grams, CORRECTION_PINV_TOL)
    for i, exc in bad.items():
        failed.setdefault(int(datasets[i]), exc)
    return inverse


def corrections(items, params) -> list:
    """Step 4 on each (data, roles, stage1_y, stage1_m, weights) of ``items``: its
    :class:`CorrectedBlocks` or, if it failed, its exception, in order.

    ``roles`` and ``weights`` are those of the dataset's active design, and
    ``stage1_y`` holds its active candidate coefficients only, as
    :func:`pcm_correct` takes them.  The datasets are grouped by active-design
    shape, and each group's :func:`debias_ridges` and :func:`pcm_correct` are
    stacked calls.
    """
    groups = {}
    for i, (_, roles, stage1_y, _, _) in enumerate(items):
        groups.setdefault((stage1_y.beta_x != 0.0, _shape(roles)), []).append(i)
    out = [None] * len(items)
    for (include_x, shape), members in groups.items():
        for i, result in zip(members, _group([items[i] for i in members], include_x, shape,
                                             params)):
            out[i] = result
    return out


def _group(items, include_x: bool, shape: tuple, params) -> list:
    """:func:`corrections` on datasets of one active-design shape."""
    ext = gram_stack([data for data, *_ in items], [_frame(roles) for _, roles, *_ in items])
    n = np.array([data.n for data, *_ in items])
    failed = {}
    debias = _refits(ext, n, include_x, shape, params, failed)
    corrected = _correct(debias, *[[item[k] for item in items] for k in (2, 3, 4)], params, n,
                         failed)
    return [failed.get(i, blocks) for i, blocks in enumerate(corrected)]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def fit_from_weights(datasets, roles: RolePartition, params: PcmParams, weights) -> list:
    """Steps 3-5 of the pipeline, from the adaptive weights to the total effect, on each
    of ``datasets`` with its ``weights``: its :class:`PcmFit` or, if it failed, its
    exception, in order.  A failure in place of a dataset's weights, such as that
    of its pilots, is that dataset's result.

    Stage-1 outcome fit -> active sets -> mediator fit on the active sets ->
    debiasing ridges -> corrections -> total effect.  Every dataset's
    outcome fit is a lane of one :func:`pcm_stage1_y_path` call, its
    mediator fit lanes of one :func:`pcm_stage1_m_path` call, and its
    debiasing ridges and corrections part of one :func:`corrections` call;
    the datasets with one active set share its roles.  The total effect is
    the corrected treatment coefficient plus the inner product of the
    corrected treatment-on-mediator and mediator-on-outcome blocks over the
    fixed and active candidate mediators; without mediators it is the
    corrected treatment coefficient alone, and without covariates but with
    mediators the inner product alone (front-door identification).
    """
    p = params
    # each dataset's stage-1 outcome fit, or its failure
    betas = on_successes(weights, lambda ok: [beta for ((beta,),) in pcm_stage1_y_path(
        [(datasets[i], weights[i]) for i in ok], roles, [p.lambda1], [(p.zeta1, p.xi1)])])
    # each dataset's active design: (roles, weights, outcome blocks, active sbar, active zbar)
    designs = on_successes(betas, lambda ok: _active_designs(
        roles, [betas[i] for i in ok], [weights[i] for i in ok]))
    # each dataset's mediator fit on its active design, or the first failure of its lanes
    s1ms = on_successes(designs, lambda ok: _m_coefs(
        pcm_stage1_m_path([(datasets[i], *designs[i][:2]) for i in ok], [p.rho1]),
        [designs[i][0] for i in ok]))
    # the outcome blocks on the active design go to the corrections only
    corrected = on_successes(s1ms, lambda ok: corrections(
        [(datasets[i], designs[i][0], designs[i][2], s1ms[i], designs[i][1]) for i in ok], p))
    return on_successes(corrected, lambda ok: [
        _pcm_fit(roles, p, weights[i], _split_y_coefs(betas[i], roles), *designs[i][3:], s1ms[i],
                 corrected[i]) for i in ok])


def _active_designs(roles: RolePartition, betas, weights) -> list:
    """The active design of each stage-1 outcome fit of ``betas`` (:meth:`YModelCoefs.stacked`
    vectors) with its :class:`AdaptiveWeights`: its roles, weights and outcome blocks on
    the fixed blocks plus the active candidates, and its active sbar and zbar.

    The active masks come from the stack of the fits in one pass.  The datasets with
    one active set share its roles and index arrays, built once, and each gathers its
    weights and blocks with them.  ``med`` keeps the rows of the active candidate
    covariates and the columns of the fixed mediators followed by the active
    candidate mediators.
    """
    q, q_s, q_sbar = 1 + len(roles.s) + len(roles.z), len(roles.s), len(roles.sbar)
    active = np.array(betas)[:, q:] != 0.0
    designs, out = {}, []
    for beta, w, mask in zip(betas, weights, active):
        key = mask.tobytes()
        if key not in designs:
            sbar, zbar = np.flatnonzero(mask[:q_sbar]), np.flatnonzero(mask[q_sbar:])
            designs[key] = (replace(roles, sbar=[roles.sbar[i] for i in sbar],
                                    zbar=[roles.zbar[i] for i in zbar]),
                            sbar, zbar, np.concatenate([np.arange(q_s), q_s + sbar]))
        r, sbar, zbar, med_cols = designs[key]
        candidates = beta[q:][mask]
        out.append((r, AdaptiveWeights(w.sbar[sbar], w.zbar[zbar], w.med[zbar][:, med_cols],
                                       w.floored),
                    YModelCoefs(float(beta[0]), beta[1 : 1 + q_s], beta[1 + q_s : q],
                                candidates[: len(sbar)], candidates[len(sbar) :]), sbar, zbar))
    return out


def _pcm_fit(roles, params, weights, s1y, active_sbar, active_zbar, s1m, corrected) -> PcmFit:
    """A dataset's :class:`PcmFit` from its corrected blocks."""
    tau = float(corrected.med_x @ corrected.y_on_mediators)
    if roles.covariates or not roles.mediators:
        tau = corrected.beta_x + tau
    return PcmFit(
        params=params,
        weights=weights,
        stage1_y=s1y,
        stage1_m=s1m,
        active_x=s1y.beta_x != 0.0,
        active_sbar=active_sbar,
        active_zbar=active_zbar,
        corrected=corrected,
        total_effect=float(tau),
    )


def pcm_total_effect(data: Dataset, roles: RolePartition, params: PcmParams) -> PcmFit:
    """Run the full pipeline on a standardized dataset: the one-dataset case of
    :func:`pcm_fits`, which raises the fit's failure."""
    return unwrap(pcm_fits([data], roles, params)[0])


def pcm_fits(datasets, roles: RolePartition, params: PcmParams) -> list:
    """:func:`pcm_total_effect` on each of ``datasets``: its :class:`PcmFit` or, if it
    failed, its exception, in order.

    Ridge pilots -> adaptive weights (:func:`pilot_weights`) ->
    :func:`fit_from_weights`.  Each ridge pilot of every dataset is one batched
    solve (:func:`ridge_pilot_y_grid`, :func:`ridge_pilot_m_grid`); a dataset
    whose pilots failed takes no part in the later steps.
    """
    if not datasets:
        return []
    return fit_from_weights(datasets, roles, params, pilot_weights(
        [y for (y,) in ridge_pilot_y_grid(datasets, roles, [params.pilot_lambda])],
        [m for (m,) in ridge_pilot_m_grid(datasets, roles, [params.pilot_rho])], roles))
