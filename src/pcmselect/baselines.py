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
parameters.  :func:`penalized_estimates` is the adaptive elastic net (Zou
& Zhang 2009) at fixed ``(phi, eta)``: L1 weights ``lam * phi * w`` and
quadratic weights ``lam * (1 - phi)``, with ``w`` all ones, or the reciprocal
magnitudes of a ridge pilot (:func:`pilot_coefficients`) raised to ``eta``.
The lasso is its ``phi = 1`` case without a pilot, the adaptive lasso its
``phi = 1`` case with one and the elastic net its case without one.
:func:`pal1ma_estimates`, the partially adaptive variant, penalizes only the
candidate covariates (treatment and fixed covariates stay unpenalized), with
pilot weights standardized to sum one, and applies the active-set bias
correction: it runs the pipeline's :func:`~pcmselect.pcm.fit_from_weights`
on roles without mediators.  Both pilots are
:func:`~pcmselect.pcm.ridge_pilot_y_grid` fits, and both weight forms are
pcm's step 2 (:func:`~pcmselect.pcm.reciprocal_power_weights_stack`), one
pass over the stack of a chunk's pilots.  Each form takes a sequence of
datasets and returns one result or one failure per dataset.  The fits that
cross-validation scores, :func:`penalized_coefficients` and
:func:`pal1ma_coefficients`, take a descending grid of ``lam`` values and
read the values that share one quadratic weight off one L1 path.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from .data import Dataset, RolePartition, gram_stack
from .errors import PcmSelectError, on_successes, unwrap
from .pcm import (
    AdaptiveWeights,
    PcmParams,
    _y_moments,
    fit_from_weights,
    pcm_stage1_y_path,
    reciprocal_power_weights_stack,
    ridge_pilot_y_grid,
)
from .solvers import l1_path, ols_batch

__all__ = [
    "back_door_estimate",
    "back_door_estimates",
    "front_door_like_estimate",
    "front_door_like_estimates",
    "baseline_penalized",
    "penalized_estimates",
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
    grams = gram_stack(datasets, [regressors + responses] * len(datasets))
    k = len(regressors)
    return ols_batch(grams[:, :k, :k], grams[:, :k, k:])


def baseline_penalized(data: Dataset, roles: RolePartition, lam: float, *, phi: float = 1.0,
                       eta: float = 1.0, pilot_lam: float | None = None) -> float:
    """Treatment coefficient of the adaptive elastic net on one dataset: the
    one-dataset case of :func:`penalized_estimates`, which raises its failure."""
    return unwrap(penalized_estimates([data], roles, lam, phi=phi, eta=eta,
                                      pilot_lam=pilot_lam)[0])


def penalized_estimates(datasets, roles: RolePartition, lam: float, *, phi: float = 1.0,
                        eta: float = 1.0, pilot_lam: float | None = None) -> list:
    """The treatment coefficient of the :func:`penalized_coefficients` fit at ``lam``
    on each of ``datasets``, with the :func:`pilot_coefficients` fit at ``pilot_lam``
    when given: its estimate or, if its pilot or its fit failed, its exception."""
    if not datasets:
        return []
    pilots = None if pilot_lam is None else [
        fits[0] for fits in pilot_coefficients(datasets, roles, [pilot_lam])]
    return [fits if isinstance(fits, PcmSelectError) else
            fits[0] if isinstance(fits[0], PcmSelectError) else float(fits[0][0])
            for fits in penalized_coefficients(datasets, roles, pilots, [lam], phi=phi, eta=eta)]


def penalized_coefficients(datasets, roles: RolePartition, pilots, lams, *,
                           phi: float = 1.0, eta: float = 1.0) -> list:
    """Adaptive elastic-net fits of the outcome on ``[x] + roles.covariates`` at each
    of ``lams`` (descending) in each of ``datasets``: one list of fits per dataset,
    each its coefficient vector or its failure.

    The L1 weights are ``lam * phi * w`` and the quadratic weights
    ``lam * (1 - phi)``.  ``w`` is all ones without ``pilots``, and else the
    reciprocal magnitudes of the dataset's :func:`pilot_coefficients` fit in
    ``pilots`` raised to ``eta``, in one pass over the stack of the pilots that
    did not fail; a failed pilot is its dataset's result.  The values of
    ``lams`` that share one quadratic weight are the candidates of one
    :func:`~pcmselect.solvers.l1_path` call with one lane per dataset: all of
    them when ``phi`` is 1, one per call when it is below 1.
    """
    # [x] + roles.covariates is the outcome design of roles without mediators
    grams, crosses, ns = _y_moments(datasets, _without_mediators(roles))
    p = grams.shape[-1]
    weights = [np.ones(p)] * len(datasets) if pilots is None else on_successes(
        pilots, lambda ok: reciprocal_power_weights_stack(
            np.array([pilots[i] for i in ok]), eta=eta, normalize=False)[0])

    def fit(ok):
        fits = [[] for _ in ok]
        for l2, group in itertools.groupby(lams, lambda lam: lam * (1.0 - phi)):
            group = list(group)
            for out, (lane,) in zip(fits, l1_path(
                    grams[ok], [ns[i] for i in ok], [1] * len(ok), crosses[ok],
                    np.array([[lam * phi * weights[i] for lam in group] for i in ok]),
                    np.full(p, l2))):
                out.extend(lane)
        return fits

    return on_successes(weights, fit)


def pilot_coefficients(datasets, roles: RolePartition, pilot_lams) -> list:
    """Ridge pilots of the outcome on ``[x] + roles.covariates``, every coefficient
    penalized, at each of ``pilot_lams`` on each of ``datasets``: ``fits[d][k]`` is
    the fit on ``datasets[d]`` at ``pilot_lams[k]`` or, if it failed, its exception.
    :func:`~pcmselect.pcm.ridge_pilot_y_grid` on roles whose covariates are all
    candidates; a zero value is least squares with its rank guard."""
    return ridge_pilot_y_grid(datasets, RolePartition(roles.x, roles.y, zbar=roles.covariates),
                              pilot_lams)


def _without_mediators(roles: RolePartition) -> RolePartition:
    """pal1ma's roles: ``roles`` without its mediators."""
    return replace(roles, s=(), sbar=())


def _pal1ma_weights(pilots, roles, eta) -> list:
    """pal1ma's weights from each of ``pilots``: its reciprocal candidate-covariate
    magnitudes to the ``eta``, standardized to sum one, or the pilot's failure, in
    one pass over the stack of the pilots that did not fail."""
    def stacked(ok):
        zbar, floored = reciprocal_power_weights_stack(
            np.array([pilots[i][1 + len(roles.z):] for i in ok]), eta=eta)
        return [AdaptiveWeights(sbar=np.zeros(0), zbar=w, med=np.zeros((len(roles.zbar), 0)),
                                floored=f) for w, f in zip(zbar, floored.tolist())]

    return on_successes(pilots, stacked)


def pal1ma_pilot(datasets, roles: RolePartition, pilot_lams) -> list:
    """pal1ma's ridge pilots: :func:`~pcmselect.pcm.ridge_pilot_y_grid` on roles
    without mediators, which leaves the fixed covariates unpenalized."""
    return ridge_pilot_y_grid(datasets, _without_mediators(roles), pilot_lams)


def pal1ma_coefficients(datasets, roles: RolePartition, pilots, lams, *, eta: float) -> list:
    """pal1ma's stage-1 fits of the outcome on ``[x] + roles.covariates`` at each of
    ``lams`` (descending) in each of ``datasets``, before its bias correction, with
    the weights of its :func:`pal1ma_pilot` fit in ``pilots``: one list of fits
    per dataset, each its coefficient vector or its failure, or the dataset's
    pilot failure.  One :func:`~pcmselect.pcm.pcm_stage1_y_path` call reads every
    dataset's fits off one path."""
    weights = _pal1ma_weights(pilots, roles, eta)
    return on_successes(weights, lambda ok: [lane for (lane,) in pcm_stage1_y_path(
        [(datasets[i], weights[i]) for i in ok], _without_mediators(roles), lams, [(0.0, 0.0)])])


def pal1ma_estimates(datasets, roles: RolePartition, lam: float, *, eta: float,
                     pilot_lam: float) -> list:
    """Partially adaptive L1 fit with bias correction (no mediators) on each of
    ``datasets``: its estimate or, if that fit failed, its exception, in order.

    Candidate covariates are the only penalized block, with standardized
    reciprocal pilot weights raised to ``eta``; the treatment and fixed
    covariates stay unpenalized.  This is the no-mediator case of the
    pipeline: :func:`~pcmselect.pcm.fit_from_weights` on ``roles`` without
    its mediators, with these weights and zero treatment and mediator
    penalties.  So with ``eta == 1`` it equals
    :func:`~pcmselect.pcm.pcm_total_effect` on those roles.  With the zero
    share ``zeta1`` and ``rho1 == 0``, step 4 makes no treatment refit and no
    mediator correction; it refits the candidate covariates alone, whose
    ridge falls on the absent candidate mediators, so the debiasing
    penalties stay at their defaults.  Every dataset's pilot is one batched
    solve (:func:`pal1ma_pilot`), and one
    :func:`~pcmselect.pcm.fit_from_weights` call fits them all.
    """
    if not datasets:
        return []
    weights = _pal1ma_weights([pilot for (pilot,) in pal1ma_pilot(datasets, roles, [pilot_lam])],
                              roles, eta)
    params = PcmParams(lambda1=lam, rho1=0.0, zeta1=0.0, xi1=0.0)
    return [fit if isinstance(fit, PcmSelectError) else fit.total_effect
            for fit in fit_from_weights(datasets, _without_mediators(roles), params, weights)]
