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
Both regress the outcome on treatment plus all covariates and return the
treatment coefficient; the method registry
(:data:`pcmselect.experiment.METHODS`) names their cases and holds their
parameters.  :func:`baseline_penalized` is the adaptive elastic net (Zou &
Zhang 2009) at fixed ``(phi, eta)``: L1 weights ``lam * phi * w`` and
quadratic weights ``lam * (1 - phi)``, with ``w`` all ones, or the reciprocal
ridge-pilot magnitudes raised to ``eta`` given a pilot penalty ``pilot_lam``.
The lasso is its ``phi = 1`` case without a pilot, the adaptive lasso its
``phi = 1`` case with one and the elastic net its case without one.
:func:`pal1ma_estimates`, the partially adaptive variant, penalizes only the
candidate covariates (treatment and fixed covariates stay unpenalized), with
pilot weights standardized to sum one, and applies the active-set bias
correction: it runs the pipeline's :func:`~pcmselect.pcm.fit_from_weights`
on roles without mediators.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset, RolePartition
from .errors import PcmSelectError, unwrap
from .pcm import (
    AdaptiveWeights,
    PcmParams,
    fit_from_weights,
    pcm_stage1_y,
    reciprocal_power_weights,
    ridge_pilot_y,
    ridge_pilot_y_grid,
)
from .solvers import coordinate_descent, ols_batch, ridge_solve

__all__ = [
    "back_door_estimate",
    "back_door_estimates",
    "front_door_like_estimate",
    "front_door_like_estimates",
    "baseline_penalized",
    "penalized_coefficients",
    "pilot_coefficients",
    "pal1ma_coefficients",
    "pal1ma_pilot",
    "pal1ma_estimates",
]


def back_door_estimate(data: Dataset, x: str, y: str, z=()) -> float:
    """Treatment coefficient of the outcome regressed on treatment plus ``z``: the
    one-dataset case of :func:`back_door_estimates`, which raises its failure."""
    return unwrap(back_door_estimates([data], x, y, z)[0])


def back_door_estimates(datasets, x: str, y: str, z=()) -> list:
    """:func:`back_door_estimate` on each of ``datasets``: its estimate or, if its
    least squares failed, its exception, in order."""
    return [fit if isinstance(fit, PcmSelectError) else float(fit[0, 0])
            for fit in _least_squares(datasets, [x, *z], [y])]


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
    The one-dataset case of :func:`front_door_like_estimates`, which raises
    its failure.
    """
    (estimate,) = front_door_like_estimates(
        [data], x, y, s, z1, z2, include_x_in_second_stage=include_x_in_second_stage)
    return unwrap(estimate)


def front_door_like_estimates(datasets, x: str, y: str, s, z1=(), z2=(), *,
                              include_x_in_second_stage: bool = True) -> list:
    """:func:`front_door_like_estimate` on each of ``datasets``: its estimate or, if a
    stage's least squares failed, the first such failure, in order.  Each stage of
    every dataset is one :func:`~pcmselect.solvers.ols_batch` call."""
    s = list(s)
    if not s:
        raise ValueError("front-door-like estimation needs at least one mediator")
    first = _least_squares(datasets, [x, *z1], s)
    second = _least_squares(datasets, s + ([x] if include_x_in_second_stage else []) + list(z2),
                            [y])
    return [a if isinstance(a, PcmSelectError) else b if isinstance(b, PcmSelectError) else
            float(a[0, :] @ b[: len(s), 0]) for a, b in zip(first, second)]


def _least_squares(datasets, regressors: list, responses: list) -> list:
    """The least-squares coefficients of ``responses`` on ``regressors`` in each of
    ``datasets``, one column per response, in one :func:`~pcmselect.solvers.ols_batch`
    call, or each fit's failure."""
    if not datasets:
        return []
    names = regressors + responses
    grams = np.array([data.cross(names, names) for data in datasets])
    k = len(regressors)
    return ols_batch(grams[:, :k, :k], grams[:, :k, k:])


def baseline_penalized(data: Dataset, roles: RolePartition, lam: float, *, phi: float = 1.0,
                       eta: float = 1.0, pilot_lam: float | None = None) -> float:
    """Treatment coefficient of :func:`penalized_coefficients`."""
    return float(penalized_coefficients(data, roles, lam, phi=phi, eta=eta,
                                        pilot_lam=pilot_lam)[0])


def penalized_coefficients(data: Dataset, roles: RolePartition, lam: float, *,
                           phi: float = 1.0, eta: float = 1.0,
                           pilot_lam: float | None = None) -> np.ndarray:
    """Adaptive elastic-net fit of the outcome on ``[x] + roles.covariates``.

    The L1 weights are ``lam * phi * w`` and the quadratic weights
    ``lam * (1 - phi)``.  ``w`` is all ones without ``pilot_lam``, and else the
    reciprocal magnitudes of :func:`pilot_coefficients` at ``pilot_lam`` raised
    to ``eta``.
    """
    cols = [roles.x] + list(roles.covariates)
    gram, cross = data.cross(cols, cols), data.cross(cols, [roles.y])[:, 0]
    w = np.ones(len(cols)) if pilot_lam is None else reciprocal_power_weights(
        pilot_coefficients(data, roles, pilot_lam), eta=eta, normalize=False)[0]
    return coordinate_descent(gram, cross, data.n, lam * phi * w,
                              np.full(len(cols), lam * (1.0 - phi)))


def pilot_coefficients(data: Dataset, roles: RolePartition, pilot_lam: float) -> np.ndarray:
    """Ridge pilot of the outcome on ``[x] + roles.covariates``, every coefficient
    penalized by ``pilot_lam``."""
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


def pal1ma_pilot(data: Dataset, roles: RolePartition, pilot_lam: float) -> np.ndarray:
    """pal1ma's ridge pilot: the pipeline's outcome pilot
    :func:`~pcmselect.pcm.ridge_pilot_y` on roles without mediators, which leaves
    the fixed covariates unpenalized."""
    return ridge_pilot_y(data, _without_mediators(roles), pilot_lam).stacked()


def pal1ma_coefficients(data: Dataset, roles: RolePartition, lam: float, *, eta: float,
                        pilot_lam: float) -> np.ndarray:
    """pal1ma's stage-1 fit of the outcome on ``[x] + roles.covariates``, before its
    bias correction."""
    weights = _pal1ma_weights(pal1ma_pilot(data, roles, pilot_lam), roles, eta)
    return pcm_stage1_y(data, _without_mediators(roles), weights, lam, 0.0, 0.0).stacked()


def pal1ma_estimates(datasets, roles: RolePartition, lam: float, *, eta: float,
                     pilot_lam: float, lam2: float, xi2: float) -> list:
    """Partially adaptive L1 fit with bias correction (no mediators) on each of
    ``datasets``: its estimate or, if that fit failed, its exception, in order.

    Candidate covariates are the only penalized block, with standardized
    reciprocal pilot weights raised to ``eta``; the treatment and fixed
    covariates stay unpenalized.  This is the no-mediator case of the
    pipeline: :func:`~pcmselect.pcm.fit_from_weights` on ``roles`` without
    its mediators, with these weights and zero treatment and mediator
    penalties.  So with ``eta == 1`` it equals
    :func:`~pcmselect.pcm.pcm_total_effect` on those roles.  Every dataset's
    pilot is one batched solve (:func:`~pcmselect.pcm.ridge_pilot_y_grid`), and
    one :func:`~pcmselect.pcm.fit_from_weights` call fits them all.
    """
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
