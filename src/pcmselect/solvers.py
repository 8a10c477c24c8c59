"""Quadratic and L1 solvers shared by every penalized estimator.

All solvers work on sufficient statistics: the gram matrix ``G = A.T A`` of a
design, the cross products ``b = A.T y``, and the row count ``n``.  The loss
convention throughout the package is

    (1/(2n)) ||y - A beta||^2  +  sum_j w_j |beta_j|  +  sum_j (d_j/2) beta_j^2

so an L1 weight ``w_j`` soft-thresholds at ``n w_j`` on the cross-product
scale, and a quadratic weight ``d_j`` adds ``n d_j`` to the gram diagonal.

The L1 solver follows the solution path in the penalty scale (Osborne,
Presnell & Turlach 2000; Efron et al. 2004): the minimizer with L1 weights
``t w`` is piecewise linear in ``t``, so it is tracked exactly from
``t = inf``, where every penalized coordinate is zero, down to ``t = 1``,
one linear solve per change of the active set.  Candidates that are
multiples of one weight vector (a penalty grid) are points on one such path:
:func:`l1_path` follows it once, to the smallest candidate, and solves each
candidate on the segment where its scale falls, with that segment's active
set and signs and its own weight vector.  A singular active block or the
event cap ends the path and fails every candidate not yet reached; an
endpoint off the stationarity conditions fails only its own candidate.
"""

from __future__ import annotations

import numpy as np

from .errors import MaxIterationsExceeded, PcmSelectError, SingularDesign

__all__ = [
    "coordinate_descent",
    "l1_path",
    "kkt_residual",
    "ridge_solve",
    "ols_solve",
]

# Largest stationarity violation accepted at the end of the path.
KKT_LIMIT = 1e-9

# Largest condition number of a gram matrix that ols_solve inverts.
COND_LIMIT = 1e15


def coordinate_descent(
    gram: np.ndarray,
    cross: np.ndarray,
    n: int,
    l1_weights: np.ndarray,
    l2_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize the penalized least-squares loss given sufficient statistics.

    The name is kept for its callers; the solver is exact path following,
    not coordinate descent: :func:`l1_path` with the one candidate
    ``l1_weights``, which is the path's base.

    Parameters
    ----------
    gram, cross, n : A.T A, A.T y, and the row count of the design A.
    l1_weights : per-coordinate L1 penalty weights (>= 0).
    l2_weights : optional per-coordinate quadratic penalty weights.

    Raises
    ------
    SingularDesign
        If an active block of ``H`` is singular or the endpoint violates the
        stationarity conditions by more than ``KKT_LIMIT``.
    MaxIterationsExceeded
        If the path takes more than ``10 p + 10`` events.
    """
    (beta,) = l1_path(gram, cross, n, [l1_weights], l2_weights)
    if isinstance(beta, PcmSelectError):
        raise beta
    return beta


def l1_path(
    gram: np.ndarray,
    cross: np.ndarray,
    n: int,
    l1_weights,
    l2_weights: np.ndarray | None = None,
) -> list[np.ndarray | PcmSelectError]:
    """The minimizers at several L1 weight vectors, read off one path.

    ``l1_weights`` lists the candidate vectors in descending order, each a
    nonnegative multiple of the last.  With ``H = G/n + diag(l2)`` and the
    last positive candidate ``w`` scaled by ``t``, the active coefficients on
    a segment of the path are ``a - t b`` with ``H_AA [a, b] = [lin_A,
    w_A sign_A]``.  Going down from ``t = inf`` (the unpenalized coordinates
    active), the next event is the largest ``t`` in ``(1, t_now]`` where an
    inactive gradient reaches its bound or an active coefficient that is
    moving toward zero reaches it.  A candidate ``s w`` whose scale ``s``
    lies on a segment keeps that segment's active set and signs and is
    solved there with its own vector, as the path to it alone would solve
    its last segment, so it equals :func:`coordinate_descent` at that vector
    wherever the two paths take the same events.  Zero candidates are one
    segment of their own.

    Returns one solution or one failure per candidate, in the given order.
    A singular active block or the ``10 p + 10`` event cap ends the path:
    every candidate at or below that scale gets the failure
    (:class:`SingularDesign` or :class:`MaxIterationsExceeded`).  An
    endpoint that violates the stationarity conditions by more than
    ``KKT_LIMIT`` fails alone (:class:`SingularDesign`), and the path goes
    on.
    """
    p = gram.shape[0]
    cands = [np.asarray(w, dtype=float) for w in l1_weights]
    l2 = np.zeros(p) if l2_weights is None else np.asarray(l2_weights, dtype=float)
    if l2.shape != (p,) or any(w.shape != (p,) for w in cands):
        raise ValueError("penalty weight vectors must match the design width")
    if (l2 < 0).any() or any((w < 0).any() for w in cands):
        raise ValueError("penalty weights must be nonnegative")
    if p == 0:
        return [np.zeros(0) for _ in cands]
    # each candidate's scale relative to the last positive one; zero ones come last
    peaks = [w.max() for w in cands]
    positive = [peak for peak in peaks if peak > 0.0]
    scales = [peak / positive[-1] for peak in peaks] if positive else peaks
    if any(s < s_next for s, s_next in zip(scales, scales[1:])):
        raise ValueError("L1 candidates must be in descending order")
    m = len(positive)
    hess = gram / n
    hess.flat[:: p + 1] += l2
    lin = np.asarray(cross, dtype=float) / n
    fits = []
    for lo, hi in ((0, m), (m, len(cands))):
        if lo < hi:
            fits += _follow(hess, lin, cands[lo:hi], scales[lo:hi])
    return [fit if isinstance(fit, PcmSelectError)
            or kkt_residual(gram, cross, n, w, fit, l2) <= KKT_LIMIT
            else SingularDesign("the L1 path ended off the optimum (degenerate active set)")
            for w, fit in zip(cands, fits)]


def _follow(hess: np.ndarray, lin: np.ndarray, cands: list[np.ndarray], scales) -> list:
    """The path with weights ``t * cands[-1]``, solved at each candidate's ``t = scales[k]``."""
    p = hess.shape[0]
    base = cands[-1]
    rhs = np.column_stack([lin, base])
    usable = hess.diagonal() > 0.0
    active, penalized = usable & (base == 0.0), usable & (base > 0.0)
    one_segment = not penalized.any()  # least squares or ridge: no events
    theta = np.zeros(p)
    t = np.inf
    cap = 10 * p + 10
    fits = []
    for _ in range(cap):
        act = np.flatnonzero(active)
        h_act = hess[:, act]
        block = h_act[act]
        r = rhs[act]
        r[:, 1] *= theta[act]
        try:
            ab = np.linalg.solve(block, r)
        except np.linalg.LinAlgError as exc:
            failure = SingularDesign(f"active block of the L1 path is singular: {exc}")
            break
        t_next = -np.inf
        if not one_segment:
            path = np.zeros((p, 2))
            path[act] = ab
            pq = h_act @ ab
            pv = pq[:, 0] - lin
            # An active coordinate leaves where a - t b = 0, an inactive one joins
            # where |pv - t qv| = t w, that is at t = pv / (qv + sign(pv) w).  Only
            # a coefficient moving toward zero may leave, and only a positive
            # join time counts; without these conditions rounding lets a
            # coordinate that has just joined leave again at the same t.
            with np.errstate(divide="ignore", invalid="ignore"):
                event = np.where(active, path[:, 0] / path[:, 1],
                                 pv / (pq[:, 1] + np.sign(pv) * base))
            ok = (np.where(active, theta * path[:, 1] < 0.0, penalized)
                  & (event > 1.0) & (event <= t))
            if ok.any():
                e = int(np.argmax(np.where(ok, event, -np.inf)))
                t_next = event[e]
        # a candidate at or above the next event ends on this segment
        while len(fits) < len(cands) and scales[len(fits)] >= t_next:
            w = cands[len(fits)]
            if w is base:
                ab_w = ab
            else:
                r = np.column_stack([lin, w])[act]
                r[:, 1] *= theta[act]
                ab_w = np.linalg.solve(block, r)
            beta = np.zeros(p)
            beta[act] = ab_w[:, 0] - ab_w[:, 1]
            fits.append(beta)
        if len(fits) == len(cands):
            return fits
        t = t_next
        theta[e] = 0.0 if active[e] else -np.sign(pv[e])
        active[e] = not active[e]
    else:
        failure = MaxIterationsExceeded(cap)
    # the path ends here: every candidate not yet reached fails with it
    return fits + [failure] * (len(cands) - len(fits))


def kkt_residual(gram, cross, n, l1_weights, beta, l2_weights=None) -> float:
    """Max violation of the stationarity conditions at ``beta``.

    For nonzero coordinates the smooth gradient must equal minus the penalty
    times the sign; for zero coordinates its magnitude may not exceed the
    penalty weight.
    """
    if gram.shape[0] == 0:
        return 0.0
    l1 = np.asarray(l1_weights, dtype=float)
    grad = (gram @ beta - cross) / n
    if l2_weights is not None:
        grad = grad + np.asarray(l2_weights, dtype=float) * beta
    violation = np.where(beta != 0.0, np.abs(grad + l1 * np.sign(beta)),
                         np.maximum(np.abs(grad) - l1, 0.0))
    return float(violation.max())


def ridge_solve(gram, cross, n, diag_weights) -> np.ndarray:
    """Solve (G + n diag(d)) beta = cross; raises SingularDesign on failure.

    ``cross`` may have multiple right-hand-side columns.
    """
    p = gram.shape[0]
    if p == 0:
        return np.zeros_like(np.asarray(cross, dtype=float))
    d = np.asarray(diag_weights, dtype=float)
    system = gram + n * np.diag(d)
    try:
        solution = np.linalg.solve(system, cross)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(f"penalized system is singular: {exc}") from exc
    if not np.all(np.isfinite(solution)):
        raise SingularDesign("penalized system produced non-finite coefficients")
    return solution


def ols_solve(gram, cross) -> np.ndarray:
    """Least-squares coefficients from normal equations with a rank guard."""
    p = gram.shape[0]
    if p == 0:
        return np.zeros_like(np.asarray(cross, dtype=float))
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularDesign(f"design gram condition number {cond:.3e} exceeds limit")
    return np.linalg.solve(gram, cross)
