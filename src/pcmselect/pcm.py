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
    are never penalized.  The mediator model penalizes candidate covariates only.
    The supports of the treatment / candidate blocks are the active sets.
4.  Debiasing ridges on the active sets, their residual gram matrices, and a
    sign-based correction that removes the first-order shrinkage bias from
    the stage-1 coefficients.
5.  Total effect: corrected treatment coefficient plus the product of the
    corrected treatment-on-mediator and mediator-on-outcome blocks (the
    treatment coefficient is zero when stage 1 deactivated the treatment).

Steps 3-5 are one function, :func:`fit_from_weights`.  :func:`pcm_total_effect`
runs it on the weights of steps 1-2.  The partially adaptive baseline
(``baselines.pal1ma_estimate``) is its no-mediator case: it runs the same
function on roles without mediators, with its own covariate weights and zero
treatment and mediator penalties.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, RolePartition
from .errors import SingularDesign
from .linalg import conditional_cross_products as ccp
from .linalg import pseudo_inverse
from .solvers import coordinate_descent, ols_solve, ridge_solve

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
    "ridge_pilot_m",
    "adaptive_weights",
    "reciprocal_power_weights",
    "pcm_stage1_y",
    "pcm_stage1_m",
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
        for name in ("lambda1", "rho1", "zeta1", "xi1", "pilot_lambda",
                     "pilot_rho", "lambda2", "xi2", "rho2", "rho2_prime"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
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

    Each refit's regressors follow the order [x, s, active sbar, z, active
    zbar] with its own response block left out, and x left out when the
    treatment is inactive (``include_x`` False).  ``x_coef``: treatment on
    [s, active sbar, z, active zbar] (absent when the treatment is inactive).
    ``sb_coef`` / ``zb_coef``: active candidate mediators / covariates, one
    column each, on [x, s, z, active zbar] / [x, s, active sbar, z].
    ``zb_on_xz_coef``: unpenalized refit of the active candidate covariates
    on [x, z], used by the mediator-equation correction.  Residual gram
    matrices accompany each refit; a refit with no response is None.
    """

    include_x: bool
    x_coef: np.ndarray | None
    x_resid_ss: float | None
    sb_coef: np.ndarray | None
    sb_resid_gram: np.ndarray | None
    zb_coef: np.ndarray | None
    zb_resid_gram: np.ndarray | None
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
    """Everything produced by one run of the pipeline."""

    params: PcmParams
    pilots: PilotEstimates
    weights: AdaptiveWeights
    stage1_y: YModelCoefs
    stage1_m: MediatorCoefs
    active_x: bool
    active_sbar: np.ndarray
    active_zbar: np.ndarray
    stage1_m_restricted: MediatorCoefs
    debias: DebiasBlocks
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
    return YModelCoefs(
        beta_x=float(parts[0][0]),
        coef_s=parts[1],
        coef_z=parts[2],
        coef_sbar=parts[3],
        coef_zbar=parts[4],
    )


def _split_m_coefs(coefs: np.ndarray, q_z: int) -> MediatorCoefs:
    """Mediator-model coefficient rows [x, z, zbar] as blocks."""
    return MediatorCoefs(x_row=coefs[0, :], z_rows=coefs[1 : 1 + q_z, :],
                         zbar_rows=coefs[1 + q_z :, :])


def _y_moments(data: Dataset, roles: RolePartition) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the outcome-model regressors and their cross products with y."""
    cols = roles.y_regressors
    return data.cross(cols, cols), data.cross(cols, [roles.y])[:, 0]


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
    return _split_y_coefs(ols_solve(*_y_moments(data, roles)), roles)


def ridge_pilot_y(data: Dataset, roles: RolePartition, lam: float) -> YModelCoefs:
    """Outcome-model pilot: ``n*lam`` on the treatment/candidate diagonal blocks.

    Fixed covariates and mediators carry no penalty, so at ``lam == 0`` this
    is exactly the joint least-squares fit (and requires an invertible
    design).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    diag = np.concatenate([
        [lam], np.zeros(len(roles.s) + len(roles.z)),
        np.full(len(roles.sbar) + len(roles.zbar), lam),
    ])
    gram, cross = _y_moments(data, roles)
    if lam == 0:
        beta = ols_solve(gram, cross)
    else:
        beta = ridge_solve(gram, cross, data.n, diag)
    return _split_y_coefs(beta, roles)


def ridge_pilot_m(data: Dataset, roles: RolePartition, rho: float) -> MediatorCoefs:
    """Mediator-model pilot: each mediator on [x, z, zbar], ``n*rho`` on zbar."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    q_z, q_zb = len(roles.z), len(roles.zbar)
    if not roles.mediators:
        return _split_m_coefs(np.zeros((1 + q_z + q_zb, 0)), q_z)
    diag = np.concatenate([[0.0], np.zeros(q_z), np.full(q_zb, rho)])
    regs = roles.m_regressors
    gram, cross = data.cross(regs, regs), data.cross(regs, roles.mediators)
    if rho == 0 or q_zb == 0:
        coefs = ols_solve(gram, cross)
    else:
        coefs = ridge_solve(gram, cross, data.n, diag)
    return _split_m_coefs(coefs, q_z)


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
                  lam1: float, zeta1: float, xi1: float) -> np.ndarray:
    return np.concatenate(
        [
            [lam1 * zeta1],
            np.zeros(len(roles.s) + len(roles.z)),
            lam1 * xi1 * w.sbar,
            lam1 * _zbar_share(zeta1, xi1) * w.zbar,
        ]
    )


def _active_sets(s1y: YModelCoefs) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether stage 1 kept the treatment, and its active candidate mediators and covariates."""
    return s1y.beta_x != 0.0, np.nonzero(s1y.coef_sbar)[0], np.nonzero(s1y.coef_zbar)[0]


def pcm_stage1_y(
    data: Dataset,
    roles: RolePartition,
    weights: AdaptiveWeights,
    lam1: float,
    zeta1: float,
    xi1: float,
) -> YModelCoefs:
    """Weighted-L1 outcome fit; fixed covariates/mediators stay unpenalized."""
    if min(lam1, zeta1, xi1) < 0 or zeta1 + xi1 > 1.0 + MIX_SLACK:
        raise ValueError("need lam1, zeta1, xi1 >= 0 and zeta1 + xi1 <= 1")
    l1 = _y_l1_weights(roles, weights, lam1, zeta1, xi1)
    gram, cross = _y_moments(data, roles)
    beta = coordinate_descent(gram, cross, data.n, l1)
    return _split_y_coefs(beta, roles)


def pcm_stage1_m(
    data: Dataset,
    roles: RolePartition,
    weights: AdaptiveWeights,
    rho1: float,
    *,
    sbar_idx=None,
    zbar_idx=None,
) -> MediatorCoefs:
    """Weighted-L1 mediator fits (one independent problem per mediator).

    The squared loss and the elementwise penalty both separate across
    mediator columns, so each column is solved on the shared design
    [x, z, zbar] with its own candidate-covariate weights.  ``sbar_idx`` /
    ``zbar_idx`` restrict the candidate mediators (responses) and candidate
    covariates (regressors) to subsets; weights are subselected accordingly.
    """
    if rho1 < 0:
        raise ValueError("rho1 must be nonnegative")
    q_s, q_z = len(roles.s), len(roles.z)
    sb_cols = np.arange(len(roles.sbar)) if sbar_idx is None else np.asarray(sbar_idx, int)
    zb_cols = np.arange(len(roles.zbar)) if zbar_idx is None else np.asarray(zbar_idx, int)
    responses = list(roles.s) + [roles.sbar[i] for i in sb_cols]
    regs = [roles.x, *roles.z] + [roles.zbar[i] for i in zb_cols]
    q_zb, q_m = zb_cols.size, len(responses)
    if q_m == 0:
        return _split_m_coefs(np.zeros((1 + q_z + q_zb, 0)), q_z)
    med_cols = np.concatenate([np.arange(q_s), q_s + sb_cols]).astype(int)
    gram, cross = data.cross(regs, regs), data.cross(regs, responses)
    coefs = np.zeros((1 + q_z + q_zb, q_m))
    for j in range(q_m):
        w_j = weights.med[np.ix_(zb_cols, med_cols[j : j + 1])][:, 0] if q_zb else np.zeros(0)
        l1 = np.concatenate([[0.0], np.zeros(q_z), rho1 * w_j])
        coefs[:, j] = coordinate_descent(gram, cross[:, j], data.n, l1)
    return _split_m_coefs(coefs, q_z)


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
    active_sbar,
    active_zbar,
    lam2: float,
    xi2: float,
    rho2: float,
    rho2_prime: float,
    *,
    include_x: bool = True,
) -> DebiasBlocks:
    """Ridge refits on the active sets plus their residual gram matrices.

    Three quadratic problems: the treatment on everything else (penalizing
    the candidate blocks by ``lam2*xi2`` / ``lam2*(1-xi2)``); the active
    candidate mediators on the rest (penalty ``rho2`` on candidate
    covariates); the active candidate covariates on the rest (penalty
    ``rho2_prime`` on candidate mediators).  A quadratic penalty ``p`` adds
    ``n*p`` to the gram diagonal, matching the pilot convention.  With all
    penalties zero the refits reduce to least squares and the residual grams
    to conditional cross-products.

    ``include_x=False`` (treatment inactive in stage 1) skips the treatment
    refit and drops the treatment column from the other designs.
    """
    sba = [roles.sbar[i] for i in np.asarray(active_sbar, dtype=int)]
    zba = [roles.zbar[i] for i in np.asarray(active_zbar, dtype=int)]
    x = [roles.x] if include_x else []
    s, z = list(roles.s), list(roles.z)
    q_s, q_z, q_sa, q_za = len(s), len(z), len(sba), len(zba)

    x_coef = x_resid_ss = None
    if include_x:
        diag = np.concatenate([np.zeros(q_s), np.full(q_sa, lam2 * xi2),
                               np.zeros(q_z), np.full(q_za, lam2 * (1 - xi2))])
        coef, resid = _refit(data, x, s + sba + z + zba, diag)
        x_coef, x_resid_ss = coef[:, 0], float(resid[0, 0])

    sb_coef = sb_resid_gram = None
    if q_sa:
        diag = np.concatenate([np.zeros(len(x) + q_s + q_z), np.full(q_za, rho2)])
        sb_coef, sb_resid_gram = _refit(data, sba, x + s + z + zba, diag)

    zb_coef = zb_resid_gram = zb_on_xz_coef = zb_on_xz_resid_gram = None
    if q_za:
        diag = np.concatenate([np.zeros(len(x) + q_s), np.full(q_sa, rho2_prime),
                               np.zeros(q_z)])
        zb_coef, zb_resid_gram = _refit(data, zba, x + s + sba + z, diag)
        zb_on_xz_coef, zb_on_xz_resid_gram = _refit(data, zba, [roles.x] + z)

    return DebiasBlocks(
        include_x=include_x,
        x_coef=x_coef, x_resid_ss=x_resid_ss,
        sb_coef=sb_coef, sb_resid_gram=sb_resid_gram,
        zb_coef=zb_coef, zb_resid_gram=zb_resid_gram,
        zb_on_xz_coef=zb_on_xz_coef, zb_on_xz_resid_gram=zb_on_xz_resid_gram,
    )


# ---------------------------------------------------------------------------
# correction and assembly
# ---------------------------------------------------------------------------


def _correction_matrix(include_x: bool, q_s: int, q_sa: int, q_za: int, *,
                       x_coef_s=None, x_coef_sbar=None, sb_coef_x=None, sb_coef_s=None,
                       zb_coef_x=None, zb_coef_s=None, zb_coef_sbar=None) -> np.ndarray:
    """Partial-regression matrix that maps penalty subgradients to coefficients.

    Rows are [x, s, active sbar] and columns [x, active sbar, active zbar],
    without x when ``include_x`` is False.  ``x_coef_s`` is the coefficient
    of s in the treatment refit, ``sb_coef_x`` the coefficient of x in the
    candidate-mediator refit, and so on; a block is read only when both its
    row and its column set are nonempty.
    """
    rows = (1 if include_x else 0) + q_s + q_sa
    cols = (1 if include_x else 0) + q_sa + q_za
    m = np.zeros((rows, cols))
    r = c = 0
    if include_x:
        m[0, 0] = -1.0
        if q_sa:
            m[0, 1 : 1 + q_sa] = sb_coef_x
        if q_za:
            m[0, 1 + q_sa :] = zb_coef_x
        if q_s:
            m[1 : 1 + q_s, 0] = x_coef_s
        if q_sa:
            m[1 + q_s :, 0] = x_coef_sbar
        r = c = 1
    if q_s:
        if q_sa:
            m[r : r + q_s, c : c + q_sa] = sb_coef_s
        if q_za:
            m[r : r + q_s, c + q_sa :] = zb_coef_s
    if q_sa:
        m[r + q_s :, c : c + q_sa] = -np.eye(q_sa)
        if q_za:
            m[r + q_s :, c + q_sa :] = zb_coef_sbar
    return m


def _inv_or_zero(value: float) -> float:
    return 1.0 / value if abs(value) > 1e-300 else 0.0


def pcm_correct(
    stage1_y: YModelCoefs,
    stage1_m_restricted: MediatorCoefs,
    debias: DebiasBlocks,
    weights: AdaptiveWeights,
    params: PcmParams,
    n: int,
) -> CorrectedBlocks:
    """Remove the first-order shrinkage bias from the stage-1 coefficients.

    The corrected outcome blocks subtract ``n*lambda1`` times the
    partial-regression matrix (built from the debiasing ridges) applied to
    the sign-and-weight subgradient vector, with residual gram
    pseudoinverses standing in for the conditional gram inverses.  Each
    entry of the treatment-on-mediator row gets the analogous ``n*rho1``
    correction on that mediator column's own active candidate covariates:
    the rows and columns of the covariates-on-[treatment, fixed covariates]
    refit that the column's restricted stage-1 fit kept nonzero.
    When the treatment is inactive its corrected coefficient is exactly
    zero and all treatment-dependent blocks drop out.  The active sets are
    the supports of ``stage1_y``.
    """
    active_x, act_sb, act_zb = _active_sets(stage1_y)
    q_s, q_sa, q_za = stage1_y.coef_s.size, act_sb.size, act_zb.size
    lam1, zeta1, xi1, rho1 = params.lambda1, params.zeta1, params.xi1, params.rho1

    sb_signs = np.sign(stage1_y.coef_sbar[act_sb])
    zb_signs = np.sign(stage1_y.coef_zbar[act_zb])
    u_parts = [np.zeros(0)]
    if active_x:
        u_parts.append(
            [zeta1 * _inv_or_zero(debias.x_resid_ss) * np.sign(stage1_y.beta_x)]
        )
    if q_sa:
        u_parts.append(
            xi1 * pseudo_inverse(debias.sb_resid_gram, CORRECTION_PINV_TOL)
            @ (weights.sbar[act_sb] * sb_signs)
        )
    if q_za:
        u_parts.append(
            _zbar_share(zeta1, xi1)
            * pseudo_inverse(debias.zb_resid_gram, CORRECTION_PINV_TOL)
            @ (weights.zbar[act_zb] * zb_signs)
        )
    u = np.concatenate([np.atleast_1d(p) for p in u_parts])

    qx = 1 if active_x else 0
    blocks = {}
    if active_x:
        blocks.update(x_coef_s=debias.x_coef[:q_s], x_coef_sbar=debias.x_coef[q_s : q_s + q_sa])
    if q_sa:
        blocks.update(sb_coef_x=debias.sb_coef[:qx], sb_coef_s=debias.sb_coef[qx : qx + q_s])
    if q_za:
        blocks.update(zb_coef_x=debias.zb_coef[:qx], zb_coef_s=debias.zb_coef[qx : qx + q_s],
                      zb_coef_sbar=debias.zb_coef[qx + q_s : qx + q_s + q_sa])
    m = _correction_matrix(active_x, q_s, q_sa, q_za, **blocks)
    target_parts = ([stage1_y.beta_x] if active_x else [])
    target = np.concatenate(
        [np.atleast_1d(target_parts), stage1_y.coef_s, stage1_y.coef_sbar[act_sb]]
    )
    corrected = target - n * lam1 * (m @ u)
    beta_x = float(corrected[0]) if active_x else 0.0
    coef_s = corrected[qx : qx + q_s]
    coef_sbar_active = corrected[qx + q_s :]

    med_x = stage1_m_restricted.x_row.copy()
    if q_za and rho1:
        med_cols = np.concatenate([np.arange(q_s), q_s + act_sb]).astype(int)
        for j, col in enumerate(med_cols):
            own = np.nonzero(stage1_m_restricted.zbar_rows[:, j])[0]
            gamma = weights.med[act_zb[own], col]
            signs = np.sign(stage1_m_restricted.zbar_rows[own, j])
            med_x[j] -= n * rho1 * (
                debias.zb_on_xz_coef[0, own]
                @ pseudo_inverse(debias.zb_on_xz_resid_gram[np.ix_(own, own)],
                                 CORRECTION_PINV_TOL)
                @ (gamma * signs)
            )
    y_on_med = np.concatenate([coef_s, coef_sbar_active])
    return CorrectedBlocks(
        beta_x=beta_x,
        coef_s=coef_s,
        coef_sbar_active=coef_sbar_active,
        med_x=med_x,
        y_on_mediators=y_on_med,
    )


def fit_from_weights(data: Dataset, roles: RolePartition, params: PcmParams,
                     pilots: PilotEstimates, weights: AdaptiveWeights) -> PcmFit:
    """Steps 3-5 of the pipeline, from the adaptive weights to the total effect.

    Stage-1 fits -> active sets -> restricted mediator refit -> debiasing
    ridges -> corrections -> total effect.  The total effect is the
    corrected treatment coefficient plus the inner product of the corrected
    treatment-on-mediator and mediator-on-outcome blocks over the fixed and
    active candidate mediators; without mediators it is the corrected
    treatment coefficient alone.  ``pilots`` is only recorded in the fit.
    """
    s1y = pcm_stage1_y(data, roles, weights, params.lambda1, params.zeta1, params.xi1)
    active_x, active_sbar, active_zbar = _active_sets(s1y)
    s1m = pcm_stage1_m(data, roles, weights, params.rho1)
    s1m_restricted = pcm_stage1_m(
        data, roles, weights, params.rho1, sbar_idx=active_sbar, zbar_idx=active_zbar
    )
    debias = debias_ridges(
        data, roles, active_sbar, active_zbar,
        params.lambda2, params.xi2, params.rho2, params.rho2_prime,
        include_x=active_x,
    )
    corrected = pcm_correct(s1y, s1m_restricted, debias, weights, params, data.n)
    tau = corrected.beta_x + float(corrected.med_x @ corrected.y_on_mediators)
    return PcmFit(
        params=params,
        pilots=pilots,
        weights=weights,
        stage1_y=s1y,
        stage1_m=s1m,
        active_x=active_x,
        active_sbar=active_sbar,
        active_zbar=active_zbar,
        stage1_m_restricted=s1m_restricted,
        debias=debias,
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
    return fit_from_weights(data, roles, params, pilots, adaptive_weights(pilots))


# ---------------------------------------------------------------------------
# structural verification of the stage-1 solutions
# ---------------------------------------------------------------------------


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(str(exc)) from exc


def verify_active_set_relation(fit: PcmFit, data: Dataset, roles: RolePartition) -> float:
    """Max discrepancy of the closed-form stationarity relations at the fit.

    On the active restriction, the stage-1 outcome coefficients must equal
    the restricted least-squares coefficients plus ``n*lambda1`` times the
    partial-regression matrix applied to the weighted sign vector (with the
    treatment-inactive variant substituting zeros for every
    treatment-dependent block).  The mediator-model fit satisfies the
    analogous relation per mediator column on that column's own active
    candidate covariates.  Returns the largest absolute violation; small
    values certify that the stage-1 solver reached a stationary point.

    Raises
    ------
    SingularDesign
        If a restricted design needed by the relation is singular.
    """
    v = data.values
    n = data.n
    params = fit.params
    act_sb = np.asarray(fit.active_sbar, dtype=int)
    act_zb = np.asarray(fit.active_zbar, dtype=int)
    q_s, q_z = len(roles.s), len(roles.z)
    q_sa, q_za = act_sb.size, act_zb.size

    ix = data.index_of([roles.x]).tolist()
    iy = data.index_of([roles.y]).tolist()
    is_ = data.index_of(roles.s).tolist()
    iz = data.index_of(roles.z).tolist()
    isb = [data.index_of(roles.sbar).tolist()[i] for i in act_sb]
    izb = [data.index_of(roles.zbar).tolist()[i] for i in act_zb]
    include_x = bool(fit.active_x)

    def B(resp, reg, given):
        """Coefficients of ``reg`` in the joint regression of ``resp``."""
        return _solve(ccp(v, reg, reg, given), ccp(v, reg, resp, given))

    # restricted least squares of the outcome
    design_cols = (ix if include_x else []) + is_ + iz + isb + izb
    a = v[:, design_cols]
    beta_ols = ols_solve(a.T @ a, a.T @ v[:, iy[0]])
    off = 1 if include_x else 0
    ols_x = beta_ols[0] if include_x else 0.0
    ols_s = beta_ols[off : off + q_s]
    ols_sb = beta_ols[off + q_s + q_z : off + q_s + q_z + q_sa]

    blocks = {}
    if include_x:
        if q_sa:
            blocks["sb_coef_x"] = B(isb, ix, is_ + iz + izb)[0]
            blocks["x_coef_sbar"] = B(ix, isb, iz + izb + is_)[:, 0]
        if q_za:
            blocks["zb_coef_x"] = B(izb, ix, iz + is_ + isb)[0]
        if q_s:
            blocks["x_coef_s"] = B(ix, is_, iz + izb + isb)[:, 0]
        sxx_cm = float(ccp(v, ix, ix, iz + izb + is_ + isb)[0, 0])
    if q_s:
        base = (ix if include_x else [])
        if q_sa:
            blocks["sb_coef_s"] = B(isb, is_, base + iz + izb)
        if q_za:
            blocks["zb_coef_s"] = B(izb, is_, base + iz + isb)
    if q_sa and q_za:
        blocks["zb_coef_sbar"] = B(izb, isb, (ix if include_x else []) + is_ + iz)

    u_parts = [np.zeros(0)]
    if include_x:
        u_parts.append([params.zeta1 / sxx_cm * np.sign(fit.stage1_y.beta_x)])
    if q_sa:
        s_gram = ccp(v, isb, isb, (ix if include_x else []) + iz + izb + is_)
        u_parts.append(
            params.xi1
            * _solve(s_gram, fit.weights.sbar[act_sb] * np.sign(fit.stage1_y.coef_sbar[act_sb]))
        )
    if q_za:
        z_gram = ccp(v, izb, izb, (ix if include_x else []) + is_ + isb + iz)
        u_parts.append(
            _zbar_share(params.zeta1, params.xi1)
            * _solve(z_gram, fit.weights.zbar[act_zb] * np.sign(fit.stage1_y.coef_zbar[act_zb]))
        )
    u = np.concatenate([np.atleast_1d(p) for p in u_parts])
    m = _correction_matrix(include_x, q_s, q_sa, q_za, **blocks)
    rhs = (
        np.concatenate([np.atleast_1d([ols_x] if include_x else []), ols_s, ols_sb])
        + n * params.lambda1 * (m @ u)
    )
    lhs = np.concatenate(
        [
            np.atleast_1d([fit.stage1_y.beta_x] if include_x else []),
            fit.stage1_y.coef_s,
            fit.stage1_y.coef_sbar[act_sb],
        ]
    )
    worst = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0

    # mediator-model relation, per column on its own active candidate set
    med = fit.stage1_m
    izb_all = data.index_of(roles.zbar).tolist()
    for j in range(med.x_row.shape[0]):
        col_active = np.nonzero(med.zbar_rows[:, j])[0]
        cols = [izb_all[i] for i in col_active]
        resp = (is_ + data.index_of(roles.sbar).tolist())[j : j + 1]
        design = v[:, ix + iz + cols]
        beta = ols_solve(design.T @ design, design.T @ v[:, resp[0]])
        correction = 0.0
        if col_active.size:
            zx = B(cols, ix, iz)[0]
            gram_zb = ccp(v, cols, cols, ix + iz)
            gamma = fit.weights.med[col_active, j]
            signs = np.sign(med.zbar_rows[col_active, j])
            correction = float(n * params.rho1 * (zx @ _solve(gram_zb, gamma * signs)))
        worst = max(worst, abs(med.x_row[j] - (beta[0] + correction)))
    return worst

