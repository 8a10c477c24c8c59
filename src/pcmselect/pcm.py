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
1, 3 and 4 run over all of them at once: each ridge pilot of every dataset
is one batched solve, every dataset's stage-1 outcome fit is a lane of one
L1 path call, and its mediator fits are lanes of one more per width of the
active mediator design.  Each of these calls reads the grams of all its
datasets in one :func:`~pcmselect.data.gram_stack`.  Step 4
(:mod:`pcmselect.debias`) groups the datasets by the shape of their active
design and runs each group's debiasing ridges, residual grams,
pseudoinverses and corrections as stacked calls.  The adaptive weights, the
restriction to the active design and step 5 run per dataset.  Every system
is its own LAPACK call, so no fit depends on the other datasets of its call,
and a failure stays with its dataset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import Dataset, RolePartition, gram_stack
from .debias import (CorrectedBlocks, DebiasBlocks, corrections, debias_ridges, pcm_correct,
                     zbar_share)
from .errors import PcmSelectError, on_successes, unwrap
from .solvers import l1_path, ols_solve, ridge_grid

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
    "pilot_weights",
    "reciprocal_power_weights",
    "pcm_stage1_y",
    "pcm_stage1_y_path",
    "pcm_stage1_m",
    "pcm_stage1_m_path",
    "debias_ridges",
    "pcm_correct",
    "fit_from_weights",
    "pcm_total_effect",
    "pcm_fits",
    "verify_active_set_relation",
]

WEIGHT_FLOOR = 1e-8

# How far zeta1 + xi1 may exceed 1: decimal inputs such as 0.7 + 0.3 carry
# rounding error in their sum.
MIX_SLACK = 1e-12

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


def ols_joint(data: Dataset, roles: RolePartition) -> YModelCoefs:
    """Joint least-squares fit of the outcome on treatment, covariates, mediators.

    Raises
    ------
    SingularDesign
        When the design gram matrix is numerically singular; that is the
        regime where only the penalized estimators apply.
    """
    (gram,), (cross,), _ = _y_moments([data], roles)
    return _split_y_coefs(ols_solve(gram, cross), roles)


def ridge_pilot_y(data: Dataset, roles: RolePartition, lam: float) -> YModelCoefs:
    """Outcome-model pilot: ``n*lam`` on the treatment/candidate diagonal blocks.

    Fixed covariates and mediators carry no penalty, so at ``lam == 0`` this
    is exactly the joint least-squares fit (and requires an invertible
    design).  The one-dataset, one-value case of :func:`ridge_pilot_y_grid`.
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


def pilot_weights(y_pilots, m_pilots, roles: RolePartition) -> list:
    """Step 2 on each dataset: the :func:`adaptive_weights` of its outcome and mediator
    pilots, entries of :func:`ridge_pilot_y_grid` and :func:`ridge_pilot_m_grid`, or
    the failure of the first pilot that failed."""
    return [y if isinstance(y, PcmSelectError) else m if isinstance(m, PcmSelectError) else
            adaptive_weights(PilotEstimates(_split_y_coefs(y, roles),
                                            _split_m_coefs(m, len(roles.z))))
            for y, m in zip(y_pilots, m_pilots)]


# ---------------------------------------------------------------------------
# stage 1 (weighted L1)
# ---------------------------------------------------------------------------


def _y_l1_weights(roles: RolePartition, w: AdaptiveWeights,
                  lams, zeta1: float, xi1: float) -> np.ndarray:
    """The outcome model's L1 weights at each of ``lams``, one row each."""
    lams = np.asarray(lams, dtype=float)[:, None]
    return np.concatenate([lams * zeta1, np.zeros((len(lams), len(roles.s) + len(roles.z))),
                           lams * xi1 * w.sbar, lams * zbar_share(zeta1, xi1) * w.zbar], 1)


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
    its exception.
    """
    grams, crosses, ns = _y_moments([data for data, _ in folds], roles)
    # the candidates as a generator, so that l1_path holds one copy of them
    return l1_path(grams, [np.array([cross] * len(pairs)) for cross in crosses], ns,
                   (np.array([_y_l1_weights(roles, w, lams, *pair) for pair in pairs])
                    for _, w in folds))


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
    return unwrap(_m_coefs(pcm_stage1_m_path([(data, roles, weights)], [rho1])[0], roles))


def _m_coefs(lanes, roles: RolePartition):
    """A one-candidate mediator fit's coefficients, or the first failure of its lanes."""
    fits = [beta for (beta,) in lanes]
    failed = [fit for fit in fits if isinstance(fit, PcmSelectError)]
    # the empty leading block keeps the shape when there are no mediators
    return failed[0] if failed else _split_m_coefs(
        np.column_stack([np.zeros((len(roles.m_regressors), 0)), *fits]), len(roles.z))


def pcm_stage1_m_path(folds, rhos) -> list:
    """:func:`pcm_stage1_m` at each of ``rhos`` (descending), on each (data, roles,
    weights) triple of ``folds``.

    One :func:`solvers.l1_path` call per width of the mediator design, with
    one lane per fold and mediator: ``fits[f][j][k]`` is mediator j's
    coefficient column on ``folds[f]`` at ``rhos[k]`` or, if that fit
    failed, its exception.  A fold without mediators has no lanes and takes
    no part in a call.
    """
    fits = [[] for _ in folds]
    widths = {}  # the folds with mediators, by the width of their mediator design
    for f, (_, roles, _) in enumerate(folds):
        if roles.mediators:
            widths.setdefault(len(roles.m_regressors), []).append(f)
    for group in widths.values():
        datasets, roles = zip(*[folds[f][:2] for f in group])
        # the regressor grams in one gather; the mediator counts differ between folds
        lanes = l1_path(gram_stack(datasets, [r.m_regressors for r in roles]),
                        [d.cross(r.m_regressors, r.mediators).T for d, r in zip(datasets, roles)],
                        [d.n for d in datasets],
                        [_m_l1_weights(*folds[f][1:], rhos) for f in group])
        for f, lane in zip(group, lanes):
            fits[f] = lane
    return fits


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
    debiasing ridges and corrections part of one :func:`debias.corrections`
    call.  The total effect is the corrected treatment coefficient plus the
    inner product of the corrected treatment-on-mediator and
    mediator-on-outcome blocks over the fixed and active candidate
    mediators; without mediators it is the corrected treatment coefficient
    alone, and without covariates but with mediators the inner product
    alone (front-door identification).
    """
    p = params
    # each dataset's stage-1 outcome blocks and active sbar and zbar, or its failure
    fits = on_successes(weights, lambda ok: [
        beta if isinstance(beta, PcmSelectError) else _activate(beta, roles)
        for ((beta,),) in pcm_stage1_y_path([(datasets[i], weights[i]) for i in ok], roles,
                                            [p.lambda1], [(p.zeta1, p.xi1)])])
    # each dataset's active design: its roles and weights
    designs = on_successes(fits, lambda ok: [_restrict(roles, weights[i], *fits[i][1:])
                                             for i in ok])
    # each dataset's mediator fit on its active design, or the first failure of its lanes
    s1ms = on_successes(designs, lambda ok: [_m_coefs(lanes, designs[i][0]) for i, lanes in zip(
        ok, pcm_stage1_m_path([(datasets[i], *designs[i]) for i in ok], [p.rho1]))])
    # the outcome blocks on the active design go to the corrections only
    corrected = on_successes(s1ms, lambda ok: corrections(
        [(datasets[i], designs[i][0], _active_blocks(*fits[i]), s1ms[i], designs[i][1])
         for i in ok], p))
    return on_successes(corrected, lambda ok: [
        _pcm_fit(roles, p, weights[i], *fits[i], s1ms[i], corrected[i]) for i in ok])


def _activate(beta, roles) -> tuple:
    """A stage-1 outcome fit as blocks, and its active sbar and zbar."""
    s1y = _split_y_coefs(beta, roles)
    return s1y, np.nonzero(s1y.coef_sbar)[0], np.nonzero(s1y.coef_zbar)[0]


def _active_blocks(s1y, active_sbar, active_zbar) -> YModelCoefs:
    """The blocks of a stage-1 outcome fit on its active design."""
    return replace(s1y, coef_sbar=s1y.coef_sbar[active_sbar], coef_zbar=s1y.coef_zbar[active_zbar])


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
