"""Comparison estimators: adjustment-formula least squares and penalized fits.

Least-squares plug-ins
----------------------
``back_door_estimate`` is the coefficient of the treatment in the regression
of the outcome on treatment plus an adjustment set.  ``front_door_like_estimate``
is the two-stage product: the treatment coefficients from regressing each
mediator on treatment plus a first conditioning set, times the mediator
coefficients from regressing the outcome on the mediators plus a second
conditioning set (optionally including the treatment).

Penalized baselines
-------------------
All four regress the outcome on treatment plus all covariates and return the
treatment coefficient; they take the method registry's names.  ``lasso``
applies a uniform L1 penalty; ``adaptive-lasso`` weights the L1 penalty by
reciprocal ridge-pilot magnitudes raised to ``eta``; ``elastic-net`` mixes
L1 and quadratic penalties by ``phi``; ``pal1ma``, the partially adaptive
variant, penalizes only the candidate covariates (treatment and fixed
covariates stay unpenalized), with pilot weights standardized to sum one,
and applies the active-set bias correction: it runs the pipeline's
:func:`~pcmselect.pcm.fit_from_weights` on roles without mediators.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, RolePartition
from .errors import PcmSelectError
from .pcm import (
    AdaptiveWeights,
    PcmParams,
    fit_from_weights,
    pcm_stage1_y,
    reciprocal_power_weights,
    ridge_pilot_y,
    ridge_pilot_y_grid,
)
from .solvers import coordinate_descent, ols_solve, ridge_solve

__all__ = [
    "back_door_estimate",
    "front_door_like_estimate",
    "baseline_penalized",
    "penalized_coefficients",
    "pilot_coefficients",
    "pal1ma_estimate",
    "pal1ma_estimates",
    "check_ranges",
]

# Valid (low, high) of each penalized baseline's parameters.
PARAM_RANGES = {
    "lam": (0.0, np.inf), "pilot_lam": (0.0, np.inf), "lam2": (0.0, np.inf),
    "eta": (0.0, np.inf), "phi": (0.0, 1.0), "xi2": (0.0, 1.0),
}


def check_ranges(**params) -> None:
    """Raise ``ValueError`` for a penalized-baseline parameter out of range."""
    for key, value in params.items():
        low, high = PARAM_RANGES[key]
        if not (low <= value <= high and np.isfinite(value)):
            raise ValueError(f"{key} must be finite in [{low:g}, {high:g}], got {value!r}")


def back_door_estimate(data: Dataset, x: str, y: str, z=()) -> float:
    """Treatment coefficient of the outcome regressed on treatment plus ``z``."""
    cols = [x] + list(z)
    beta = ols_solve(data.cross(cols, cols), data.cross(cols, [y])[:, 0])
    return float(beta[0])


def front_door_like_estimate(
    data: Dataset,
    x: str,
    y: str,
    s,
    z1=(),
    z2=(),
    *,
    include_x_in_second_stage: bool = True,
) -> float:
    """Two-stage product estimator through a mediator set ``s``.

    First stage: coefficient of ``x`` in each regression of a mediator on
    ``[x] + z1``.  Second stage: coefficients of the mediators in the
    regression of ``y`` on ``s (+ x) + z2``.  Returns their inner product.
    """
    s = list(s)
    if not s:
        raise ValueError("front-door-like estimation needs at least one mediator")
    first_cols = [x] + list(z1)
    first = ols_solve(data.cross(first_cols, first_cols), data.cross(first_cols, s))
    x_on_med = first[0, :]

    second_cols = s + ([x] if include_x_in_second_stage else []) + list(z2)
    second = ols_solve(data.cross(second_cols, second_cols),
                       data.cross(second_cols, [y])[:, 0])
    med_on_y = second[: len(s)]
    return float(x_on_med @ med_on_y)


def baseline_penalized(
    data: Dataset,
    roles: RolePartition,
    method: str,
    lam: float,
    *,
    eta: float = 1.0,
    phi: float = 0.5,
    pilot_lam: float = 1.0,
    lam2: float = 0.01,
    xi2: float = 0.5,
) -> float:
    """Treatment coefficient from a penalized regression on treatment + covariates.

    ``method`` is one of ``lasso``, ``adaptive-lasso``, ``elastic-net``,
    ``pal1ma``.  ``eta`` is the adaptive-weight exponent, ``phi`` the L1
    share of the elastic-net penalty, ``pilot_lam`` the ridge-pilot penalty
    for the adaptive variants; ``lam2`` and ``xi2`` are pal1ma's debiasing
    ridge penalties.
    """
    if method == "pal1ma":
        return pal1ma_estimate(data, roles, lam, eta=eta, pilot_lam=pilot_lam,
                               lam2=lam2, xi2=xi2)
    beta = penalized_coefficients(data, roles, method, lam, eta=eta, phi=phi, pilot_lam=pilot_lam)
    return float(beta[0])


def penalized_coefficients(
    data: Dataset,
    roles: RolePartition,
    method: str,
    lam: float,
    *,
    eta: float = 1.0,
    phi: float = 0.5,
    pilot_lam: float = 1.0,
) -> np.ndarray:
    """Penalized fit of the outcome on ``[x] + roles.covariates``.

    Arguments as in :func:`baseline_penalized`.  For ``pal1ma`` this is the
    stage-1 fit of :func:`pal1ma_estimate`, before its bias correction.
    """
    check_ranges(lam=lam, eta=eta, phi=phi, pilot_lam=pilot_lam)
    if method == "pal1ma":
        weights = _pal1ma_weights(pilot_coefficients(data, roles, method, pilot_lam), roles, eta)
        return pcm_stage1_y(data, _without_mediators(roles), weights, lam, 0.0, 0.0).stacked()
    cols = [roles.x] + list(roles.covariates)
    gram, cross = data.cross(cols, cols), data.cross(cols, [roles.y])[:, 0]
    n, p = data.n, len(cols)
    if method == "lasso":
        l1, l2 = np.full(p, lam), None
    elif method == "elastic-net":
        l1, l2 = np.full(p, lam * phi), np.full(p, lam * (1.0 - phi))
    elif method == "adaptive-lasso":
        pilot = pilot_coefficients(data, roles, method, pilot_lam)
        w, _ = reciprocal_power_weights(pilot, eta=eta, normalize=False)
        l1, l2 = lam * w, None
    else:
        raise ValueError(f"unknown penalized baseline {method!r}")
    return coordinate_descent(gram, cross, n, l1, l2)


def pilot_coefficients(data: Dataset, roles: RolePartition, method: str,
                       pilot_lam: float) -> np.ndarray:
    """Ridge pilot of ``method``'s adaptive weights: the outcome on ``[x] + roles.covariates``.

    ``adaptive-lasso`` penalizes every coefficient by ``pilot_lam``;
    ``pal1ma`` uses the pipeline's outcome pilot :func:`~pcmselect.pcm.ridge_pilot_y`
    on its roles, which leaves the fixed covariates unpenalized.
    """
    if method == "pal1ma":
        return ridge_pilot_y(data, _without_mediators(roles), pilot_lam).stacked()
    if method != "adaptive-lasso":
        raise ValueError(f"{method!r} has no ridge pilot")
    cols = [roles.x] + list(roles.covariates)
    return ridge_solve(data.cross(cols, cols), data.cross(cols, [roles.y])[:, 0], data.n,
                       np.full(len(cols), pilot_lam))


def _without_mediators(roles: RolePartition) -> RolePartition:
    """pal1ma's roles: ``roles`` without its mediators."""
    return replace(roles, s=(), sbar=())


def _pal1ma_weights(pilot, roles, eta) -> AdaptiveWeights:
    """pal1ma's weights: its pilot's reciprocal candidate-covariate magnitudes to the ``eta``."""
    zbar, floored = reciprocal_power_weights(pilot[1 + len(roles.z):], eta=eta)
    return AdaptiveWeights(sbar=np.zeros(0), zbar=zbar, med=np.zeros((len(roles.zbar), 0)),
                           floored=floored)


def pal1ma_estimate(
    data: Dataset,
    roles: RolePartition,
    lam: float,
    *,
    eta: float = 1.0,
    pilot_lam: float = 1.0,
    lam2: float = 0.01,
    xi2: float = 0.5,
) -> float:
    """Partially adaptive L1 fit with bias correction (no mediators).

    Candidate covariates are the only penalized block, with standardized
    reciprocal pilot weights raised to ``eta``; the treatment and fixed
    covariates stay unpenalized.  This is the no-mediator case of the
    pipeline: :func:`~pcmselect.pcm.fit_from_weights` on ``roles`` without
    its mediators, with these weights and zero treatment and mediator
    penalties.  So with ``eta == 1`` it equals
    :func:`~pcmselect.pcm.pcm_total_effect` on those roles.  The one-dataset
    case of :func:`pal1ma_estimates`, which raises the fit's failure.
    """
    (estimate,) = pal1ma_estimates([data], roles, lam, eta=eta, pilot_lam=pilot_lam,
                                   lam2=lam2, xi2=xi2)
    if isinstance(estimate, PcmSelectError):
        raise estimate
    return estimate


def pal1ma_estimates(datasets, roles: RolePartition, lam: float, *, eta: float = 1.0,
                     pilot_lam: float = 1.0, lam2: float = 0.01, xi2: float = 0.5) -> list:
    """:func:`pal1ma_estimate` on each of ``datasets``: its estimate or, if that fit
    failed, its exception, in order.

    Every dataset's pilot is one batched solve
    (:func:`~pcmselect.pcm.ridge_pilot_y_grid`), and one
    :func:`~pcmselect.pcm.fit_from_weights` call fits them all.
    """
    check_ranges(lam=lam, eta=eta, pilot_lam=pilot_lam, lam2=lam2, xi2=xi2)
    if not datasets:
        return []
    bare = _without_mediators(roles)
    params = PcmParams(
        lambda1=lam, rho1=0.0, zeta1=0.0, xi1=0.0,
        pilot_lambda=pilot_lam, pilot_rho=pilot_lam,
        lambda2=lam2, xi2=xi2, rho2=0.0, rho2_prime=0.0,
    )
    weights = [pilot if isinstance(pilot, PcmSelectError) else _pal1ma_weights(pilot, roles, eta)
               for (pilot,) in ridge_pilot_y_grid(datasets, bare, [pilot_lam])]
    return [fit if isinstance(fit, PcmSelectError) else fit.total_effect
            for fit in fit_from_weights(datasets, bare, params, weights)]
