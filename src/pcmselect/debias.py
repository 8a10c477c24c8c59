"""Debiasing ridges: the active-set ridge refits behind pcm's bias correction.

Step 4 of the pipeline (:mod:`pcmselect.pcm`) corrects each penalized active
column of the stage-1 outcome fit, and each mediator column's treatment
coefficient, with these refits: every penalized block of the active design
is ridge-refitted on the other columns, and the refit coefficients and the
residual grams form one partial-regression matrix and its pseudoinverted
blocks.  They read the data through its cross products only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, RolePartition
from .solvers import ols_solve, ridge_solve

__all__ = ["DebiasBlocks", "debias_ridges"]


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
