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
    treatment when active, the active candidate mediators and covariates) is
    ridge-refitted on the other columns of the active design [x, s, active
    sbar, z, active zbar].  The refit coefficients, with -1 on each column's
    own row, form one partial-regression matrix; applied to the
    sign-and-weight subgradient through the pseudoinverted residual grams,
    it removes the first-order shrinkage bias from the stage-1
    coefficients.  Each mediator column's treatment coefficient gets the
    same correction on that column's own active candidate covariates.
5.  Total effect: corrected treatment coefficient plus the product of the
    corrected treatment-on-mediator and mediator-on-outcome blocks (the
    treatment coefficient is zero when stage 1 deactivated the treatment).
    Without observed covariates but with mediators, the total effect is the
    mediator product alone (front-door identification): the treatment then
    stays a regressor of the outcome model, but its coefficient carries the
    unadjusted treatment-outcome confounding, so it is not added.  This
    assumes that the mediators intercept every directed path from the
    treatment to the outcome.

Steps 3-5 are one function, :func:`fit_from_weights`.  :func:`pcm_total_effect`
runs it on the weights of steps 1-2.  The partially adaptive baseline
(``baselines.pal1ma_estimate``) is its no-mediator case: it runs the same
function on roles without mediators, with its own covariate weights and zero
treatment and mediator penalties.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import Dataset, RolePartition
from .errors import PcmSelectError
from .linalg import pseudo_inverse
from .solvers import l1_path, ols_solve, ridge_grid, ridge_solve

__all__ = [
    "PcmParams",
    "YModelCoefs",
    "MediatorCoefs",
    "PilotEstimates",
    "AdaptiveWeights",
    "DebiasBlocks",
    "CorrectedBlocks",
    "PcmFit",
    "ols_joint",
    "ridge_pilot_y",
    "ridge_pilot_y_grid",
    "ridge_pilot_m",
    "ridge_pilot_m_grid",
    "adaptive_weights",
    "reciprocal_power_weights",
    "pcm_stage1_y",
    "pcm_stage1_y_path",
    "pcm_stage1_m",
    "pcm_stage1_m_path",
    "debias_ridges",
    "pcm_correct",
    "fit_from_weights",
    "pcm_total_effect",
    "verify_active_set_relation",
]

WEIGHT_FLOOR = 1e-8

# How far zeta1 + xi1 may exceed 1: decimal inputs such as 0.7 + 0.3 carry
# rounding error in their sum.
MIX_SLACK = 1e-12

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
class PilotEstimates:
    y: YModelCoefs
    m: MediatorCoefs


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
    penalized active column (treatment, active candidate mediators, active
    candidate covariates, in frame order): that column's refit coefficients
    on the other columns of the frame, and -1 on its own row.
    ``resid_grams`` holds the residual gram of each nonempty penalized block
    in the same order.  ``zb_on_xz_coef``: unpenalized refit of the active
    candidate covariates on [x, z], used by the mediator-equation
    correction, with its residual gram; None without active candidate
    covariates.
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
    parts = np.split(beta, np.cumsum([1, len(roles.s), len(roles.z), len(roles.sbar)]))
    return YModelCoefs(float(parts[0][0]), *parts[1:])


def _split_m_coefs(coefs: np.ndarray, q_z: int) -> MediatorCoefs:
    """Mediator-model coefficient rows [x, z, zbar] as blocks."""
    return MediatorCoefs(coefs[0], coefs[1 : 1 + q_z], coefs[1 + q_z :])


def _y_moments(data: Dataset, roles: RolePartition) -> tuple[np.ndarray, np.ndarray, int]:
    """Gram matrix of the outcome-model regressors, their cross products with y, and
    the row count."""
    cols = roles.y_regressors
    return data.cross(cols, cols), data.cross(cols, [roles.y])[:, 0], data.n


def _m_moments(data: Dataset, roles: RolePartition) -> tuple[np.ndarray, np.ndarray, int]:
    """Gram matrix of the mediator-model regressors, their cross products with the
    mediators, and the row count."""
    regs = roles.m_regressors
    return data.cross(regs, regs), data.cross(regs, roles.mediators), data.n


# ---------------------------------------------------------------------------
# least squares and ridge pilots
# ---------------------------------------------------------------------------


def ols_joint(data: Dataset, roles: RolePartition) -> YModelCoefs:
    """Joint least-squares fit of the outcome on treatment, covariates, mediators.

    Raises
    ------
    SingularDesign
        When the design gram matrix is numerically singular; that is the
        regime where only the penalized estimators apply.
    """
    return _split_y_coefs(ols_solve(*_y_moments(data, roles)[:2]), roles)


def ridge_pilot_y(data: Dataset, roles: RolePartition, lam: float) -> YModelCoefs:
    """Outcome-model pilot: ``n*lam`` on the treatment/candidate diagonal blocks.

    Fixed covariates and mediators carry no penalty, so at ``lam == 0`` this
    is exactly the joint least-squares fit (and requires an invertible
    design).  The one-value case of :func:`ridge_pilot_y_grid`.
    """
    return _split_y_coefs(_first(ridge_pilot_y_grid(data, roles, [lam])[0]), roles)


def ridge_pilot_y_grid(data: Dataset, roles: RolePartition, lams) -> list:
    """:func:`ridge_pilot_y` at each of ``lams``, in one :func:`solvers.ridge_grid`
    call: its :meth:`YModelCoefs.stacked` vector or, if that fit failed, its
    exception."""
    pen = np.concatenate([[1.0], np.zeros(len(roles.s) + len(roles.z)),
                          np.ones(len(roles.sbar) + len(roles.zbar))])
    return ridge_grid(*_y_moments(data, roles), pen, lams)


def ridge_pilot_m(data: Dataset, roles: RolePartition, rho: float) -> MediatorCoefs:
    """Mediator-model pilot: each mediator on [x, z, zbar], ``n*rho`` on zbar.

    The one-value case of :func:`ridge_pilot_m_grid`.
    """
    return _split_m_coefs(_first(ridge_pilot_m_grid(data, roles, [rho])[0]), len(roles.z))


def ridge_pilot_m_grid(data: Dataset, roles: RolePartition, rhos) -> list:
    """:func:`ridge_pilot_m` at each of ``rhos``, in one :func:`solvers.ridge_grid`
    call: its :meth:`MediatorCoefs.stacked` matrix or, if that fit failed, its
    exception."""
    pen = np.concatenate([np.zeros(1 + len(roles.z)), np.ones(len(roles.zbar))])
    return ridge_grid(*_m_moments(data, roles), pen, rhos)


# ---------------------------------------------------------------------------
# adaptive weights
# ---------------------------------------------------------------------------


def reciprocal_power_weights(values: np.ndarray, eta: float = 1.0,
                             normalize: bool = True) -> tuple[np.ndarray, bool]:
    """``|v|**-eta`` weights, magnitudes floored at ``WEIGHT_FLOOR``, summing to one.

    Returns the weights and whether any magnitude was floored.
    ``normalize=False`` skips the sum-one standardization (the classical
    adaptive-weight form).
    """
    mags = np.abs(np.asarray(values, dtype=float)).ravel()
    if mags.size == 0:
        return mags.reshape(np.asarray(values).shape), False
    floored = bool(np.any(mags < WEIGHT_FLOOR))
    mags = np.maximum(mags, WEIGHT_FLOOR)
    raw = np.power(mags, -eta)
    out = raw / raw.sum() if normalize else raw
    return out.reshape(np.asarray(values).shape), floored


def adaptive_weights(pilots: PilotEstimates) -> AdaptiveWeights:
    """Standardized weights from the pilot coefficient magnitudes.

    Candidate-mediator weights use the treatment coefficients of the
    mediator-model pilot (a mediator whose treatment pilot vanishes carries
    no treatment effect, so its outcome coefficient should be free to drop);
    candidate-covariate weights use the outcome-model pilot; the mediator
    weight matrix uses the mediator-model candidate-covariate pilots.
    """
    q_m = pilots.m.x_row.shape[0]
    q_sb = pilots.y.coef_sbar.shape[0]
    q_s = q_m - q_sb
    w_sbar, f1 = reciprocal_power_weights(pilots.m.x_row[q_s:])
    w_zbar, f2 = reciprocal_power_weights(pilots.y.coef_zbar)
    w_med, f3 = reciprocal_power_weights(pilots.m.zbar_rows)
    return AdaptiveWeights(
        sbar=w_sbar, zbar=w_zbar, med=w_med, floored=bool(f1 or f2 or f3)
    )


# ---------------------------------------------------------------------------
# stage 1 (weighted L1)
# ---------------------------------------------------------------------------


def _zbar_share(zeta1: float, xi1: float) -> float:
    """Candidate covariates' penalty share, clipped (``1 - 0.8 - 0.2`` is -5.6e-17)."""
    return max(0.0, 1.0 - zeta1 - xi1)


def _y_l1_weights(roles: RolePartition, w: AdaptiveWeights,
                  lams, zeta1: float, xi1: float) -> np.ndarray:
    """The outcome model's L1 weights at each of ``lams``, one row each."""
    lams = np.asarray(lams, dtype=float)[:, None]
    return np.concatenate([lams * zeta1, np.zeros((len(lams), len(roles.s) + len(roles.z))),
                           lams * xi1 * w.sbar, lams * _zbar_share(zeta1, xi1) * w.zbar], 1)


def _restrict(roles: RolePartition, weights: AdaptiveWeights, active_sbar: np.ndarray,
              active_zbar: np.ndarray) -> tuple[RolePartition, AdaptiveWeights]:
    """Roles and weights of the active design: the fixed blocks plus the given candidates.

    ``med`` keeps the rows of the given candidate covariates and the columns
    of the fixed mediators followed by the given candidate mediators.
    """
    q_s = len(roles.s)
    med_cols = np.concatenate([np.arange(q_s), q_s + active_sbar])
    active_roles = replace(roles, sbar=[roles.sbar[i] for i in active_sbar],
                           zbar=[roles.zbar[i] for i in active_zbar])
    return active_roles, AdaptiveWeights(
        sbar=weights.sbar[active_sbar], zbar=weights.zbar[active_zbar],
        med=weights.med[np.ix_(active_zbar, med_cols)], floored=weights.floored,
    )


def _first(fit):
    """A one-candidate fit's solution; raises its failure."""
    if isinstance(fit, PcmSelectError):
        raise fit
    return fit


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
    return _split_y_coefs(_first(beta), roles)


def pcm_stage1_y_path(folds, roles: RolePartition, lams, pairs) -> list:
    """:func:`pcm_stage1_y` at each of ``lams`` (descending) for each (zeta1, xi1) of
    ``pairs``, on each (data, weights) pair of ``folds``.

    One :func:`solvers.l1_path` call with one lane per fold and pair:
    ``fits[f][i][k]`` is the coefficient vector (:meth:`YModelCoefs.stacked`)
    on ``folds[f]`` at ``pairs[i]`` and ``lams[k]`` or, if that fit failed,
    its exception.
    """
    grams, crosses, ns = zip(*[_y_moments(data, roles) for data, _ in folds])
    return l1_path(grams, [[cross] * len(pairs) for cross in crosses], ns,
                   np.array([[_y_l1_weights(roles, w, lams, *pair) for pair in pairs]
                             for _, w in folds]))


def _m_l1_weights(roles, w, rhos) -> np.ndarray:
    """Each mediator's L1 weights at each of ``rhos``: (mediators, rhos, regressors)."""
    return np.multiply.outer(rhos, np.vstack([np.zeros((1 + len(roles.z), w.med.shape[1])),
                                              w.med])).transpose(2, 0, 1)


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
    fits = [_first(beta) for (beta,) in pcm_stage1_m_path([(data, weights)], roles, [rho1])[0]]
    # the empty leading block keeps the shape when there are no mediators
    return _split_m_coefs(np.column_stack([np.zeros((len(roles.m_regressors), 0)), *fits]),
                          len(roles.z))


def pcm_stage1_m_path(folds, roles: RolePartition, rhos) -> list:
    """:func:`pcm_stage1_m` at each of ``rhos`` (descending), on each (data, weights)
    pair of ``folds``.

    One :func:`solvers.l1_path` call with one lane per fold and mediator:
    ``fits[f][j][k]`` is mediator j's coefficient column on ``folds[f]`` at
    ``rhos[k]`` or, if that fit failed, its exception.
    """
    grams, crosses, ns = zip(*[_m_moments(data, roles) for data, _ in folds])
    return l1_path(grams, [cross.T for cross in crosses], ns,
                   np.array([_m_l1_weights(roles, w, rhos) for _, w in folds]))


# ---------------------------------------------------------------------------
# debiasing ridges
# ---------------------------------------------------------------------------


def _refit(data: Dataset, responses, regressors, diag=None) -> tuple[np.ndarray, np.ndarray]:
    """Ridge (least squares when ``diag`` is None) refit from the cross products.

    Returns the coefficients, one column per response, and the residual gram
    ``S_rr - C.T S_ar - S_ra C + C.T S_aa C``.
    """
    s_aa = data.cross(regressors, regressors)
    s_ar = data.cross(regressors, responses)
    if diag is None:
        coef = ols_solve(s_aa, s_ar)
    else:
        coef = ridge_solve(s_aa, s_ar, data.n, diag)
    fitted = coef.T @ s_ar
    return coef, data.cross(responses, responses) - fitted - fitted.T + coef.T @ s_aa @ coef


def debias_ridges(
    data: Dataset,
    roles: RolePartition,
    lam2: float,
    xi2: float,
    rho2: float,
    rho2_prime: float,
    *,
    include_x: bool = True,
) -> DebiasBlocks:
    """Ridge refits of the penalized active columns plus their residual grams.

    The frame is [x, s, sbar, z, zbar] of the active design's ``roles``;
    ``include_x=False`` (treatment inactive in stage 1) leaves x out.  Each
    penalized block is refitted on the other columns of the frame: the
    treatment penalizing the candidate blocks by ``lam2*xi2`` /
    ``lam2*(1-xi2)``, the candidate mediators penalizing candidate
    covariates by ``rho2``, the candidate covariates penalizing candidate
    mediators by ``rho2_prime``.  A quadratic penalty ``p`` adds
    ``n*p`` to the gram diagonal, matching the pilot convention.  With all
    penalties zero the refits reduce to least squares and the residual grams
    to conditional cross-products.
    """
    groups = [[roles.x] if include_x else [], roles.s, roles.sbar, roles.z, roles.zbar]
    frame = np.array([name for group in groups for name in group], dtype=object)
    group_of = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    # ridge penalty of each penalized group's refit on the groups of the frame
    penalties = {0: [0.0, 0.0, lam2 * xi2, 0.0, lam2 * (1 - xi2)],
                 2: [0.0, 0.0, 0.0, 0.0, rho2],
                 4: [0.0, 0.0, rho2_prime, 0.0, 0.0]}
    columns, resid_grams = [np.zeros((frame.size, 0))], []
    for group, penalty in penalties.items():
        own = group_of == group
        if not own.any():
            continue
        refit, gram = _refit(data, list(frame[own]), list(frame[~own]),
                             np.asarray(penalty)[group_of[~own]])
        column = np.zeros((frame.size, refit.shape[1]))
        column[~own] = refit
        column[own] = -np.eye(refit.shape[1])
        columns.append(column)
        resid_grams.append(gram)
    zb_on_xz = _refit(data, roles.zbar, [roles.x, *roles.z]) if roles.zbar else (None, None)
    return DebiasBlocks(np.hstack(columns), resid_grams, *zb_on_xz)


# ---------------------------------------------------------------------------
# correction and assembly
# ---------------------------------------------------------------------------


def pcm_correct(
    stage1_y: YModelCoefs,
    stage1_m: MediatorCoefs,
    debias: DebiasBlocks,
    weights: AdaptiveWeights,
    params: PcmParams,
    n: int,
) -> CorrectedBlocks:
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
    exactly zero and all treatment-dependent blocks drop out.
    """
    active_x = stage1_y.beta_x != 0.0
    lam1, zeta1, xi1, rho1 = params.lambda1, params.zeta1, params.xi1, params.rho1
    x = [stage1_y.beta_x] if active_x else []
    # (penalty share, adaptive weights, coefficients) of each penalized block
    blocks = [(zeta1, np.ones(len(x)), np.array(x)),
              (xi1, weights.sbar, stage1_y.coef_sbar),
              (_zbar_share(zeta1, xi1), weights.zbar, stage1_y.coef_zbar)]
    u = np.concatenate([np.zeros(0)] + [
        share * pseudo_inverse(gram, CORRECTION_PINV_TOL) @ (w * np.sign(coef))
        for (share, w, coef), gram in zip([b for b in blocks if b[2].size], debias.resid_grams)
    ])
    target = np.concatenate([x, stage1_y.coef_s, stage1_y.coef_sbar])
    corrected = target - n * lam1 * (debias.coef[: target.size] @ u)
    qx, q_s = len(x), stage1_y.coef_s.size
    coef_s = corrected[qx : qx + q_s]
    coef_sbar_active = corrected[qx + q_s :]

    med_x = stage1_m.x_row.copy()
    if weights.zbar.size and rho1:
        for j in range(med_x.size):
            own = np.nonzero(stage1_m.zbar_rows[:, j])[0]
            gamma = weights.med[own, j]
            signs = np.sign(stage1_m.zbar_rows[own, j])
            med_x[j] -= n * rho1 * (
                debias.zb_on_xz_coef[0, own]
                @ pseudo_inverse(debias.zb_on_xz_resid_gram[np.ix_(own, own)],
                                 CORRECTION_PINV_TOL)
                @ (gamma * signs)
            )
    return CorrectedBlocks(
        beta_x=float(corrected[0]) if active_x else 0.0,
        coef_s=coef_s,
        coef_sbar_active=coef_sbar_active,
        med_x=med_x,
        y_on_mediators=np.concatenate([coef_s, coef_sbar_active]),
    )


def fit_from_weights(data: Dataset, roles: RolePartition, params: PcmParams,
                     weights: AdaptiveWeights) -> PcmFit:
    """Steps 3-5 of the pipeline, from the adaptive weights to the total effect.

    Stage-1 outcome fit -> active sets -> mediator fit on the active sets ->
    debiasing ridges -> corrections -> total effect.  The total effect is
    the corrected treatment coefficient plus the inner product of the
    corrected treatment-on-mediator and mediator-on-outcome blocks over the
    fixed and active candidate mediators; without mediators it is the
    corrected treatment coefficient alone, and without covariates but with
    mediators the inner product alone (front-door identification).
    """
    s1y = pcm_stage1_y(data, roles, weights, params.lambda1, params.zeta1, params.xi1)
    active_x = s1y.beta_x != 0.0
    active_sbar, active_zbar = np.nonzero(s1y.coef_sbar)[0], np.nonzero(s1y.coef_zbar)[0]
    act_roles, act_weights = _restrict(roles, weights, active_sbar, active_zbar)
    s1m = pcm_stage1_m(data, act_roles, act_weights, params.rho1)
    debias = debias_ridges(data, act_roles, params.lambda2, params.xi2, params.rho2,
                           params.rho2_prime, include_x=active_x)
    act_s1y = replace(s1y, coef_sbar=s1y.coef_sbar[active_sbar],
                      coef_zbar=s1y.coef_zbar[active_zbar])
    corrected = pcm_correct(act_s1y, s1m, debias, act_weights, params, data.n)
    if roles.mediators and not roles.covariates:
        tau = float(corrected.med_x @ corrected.y_on_mediators)
    else:
        tau = corrected.beta_x + float(corrected.med_x @ corrected.y_on_mediators)
    return PcmFit(
        params=params,
        weights=weights,
        stage1_y=s1y,
        stage1_m=s1m,
        active_x=active_x,
        active_sbar=active_sbar,
        active_zbar=active_zbar,
        corrected=corrected,
        total_effect=float(tau),
    )


def pcm_total_effect(data: Dataset, roles: RolePartition, params: PcmParams) -> PcmFit:
    """Run the full pipeline on a standardized dataset.

    Ridge pilots -> adaptive weights -> :func:`fit_from_weights`.
    """
    pilots = PilotEstimates(
        y=ridge_pilot_y(data, roles, params.pilot_lambda),
        m=ridge_pilot_m(data, roles, params.pilot_rho),
    )
    return fit_from_weights(data, roles, params, adaptive_weights(pilots))


# ---------------------------------------------------------------------------
# structural verification of the stage-1 solutions
# ---------------------------------------------------------------------------


def _stationarity_gap(data: Dataset, response: str, regressors, l1: np.ndarray,
                      beta: np.ndarray) -> float:
    """Largest gap between an L1 fit and its closed form on its active rows.

    The active rows are the nonzero or unpenalized coefficients, A their
    design columns.  The closed form is the least-squares fit of the
    response on A minus ``n * (A.T A)^-1 (l1 * sign(beta))``.
    """
    keep = (beta != 0.0) | (l1 == 0.0)
    a = data.values[:, data.index_of(regressors)[keep]]
    rhs = np.column_stack([a.T @ data.column(response), l1[keep] * np.sign(beta[keep])])
    ols, shrink = ols_solve(a.T @ a, rhs).T
    return float(np.max(np.abs(beta[keep] - (ols - data.n * shrink)))) if keep.any() else 0.0


def verify_active_set_relation(fit: PcmFit, data: Dataset, roles: RolePartition) -> float:
    """Max discrepancy of the closed-form stationarity relations at the fit.

    On every active row (the treatment when active, the fixed blocks, the
    active candidate blocks) the stage-1 outcome coefficients must equal the
    restricted least-squares fit minus ``n*(A.T A)^-1 (l1 * sign)``, with A
    the active design and l1 the stage-1 L1 weights.  Each column of the
    mediator fit satisfies the same relation on [treatment, fixed
    covariates] and that column's own active candidate covariates.
    Returns the largest absolute violation; small values certify that the
    stage-1 solver reached a stationary point.

    Raises
    ------
    SingularDesign
        If a restricted design needed by the relation is singular.
    """
    p = fit.params
    worst = _stationarity_gap(
        data, roles.y, roles.y_regressors,
        _y_l1_weights(roles, fit.weights, [p.lambda1], p.zeta1, p.xi1)[0],
        fit.stage1_y.stacked(),
    )
    act_roles, act_weights = _restrict(roles, fit.weights, fit.active_sbar, fit.active_zbar)
    for mediator, l1, coef in zip(act_roles.mediators,
                                  _m_l1_weights(act_roles, act_weights, [p.rho1])[:, 0],
                                  fit.stage1_m.stacked().T):
        worst = max(worst, _stationarity_gap(data, mediator, act_roles.m_regressors, l1, coef))
    return worst
