"""Quadratic and L1 solvers shared by every penalized estimator.

All solvers work on sufficient statistics: the gram matrix ``G = A.T A`` of a
design, the cross products ``b = A.T y``, and the row count ``n``.  The loss
convention throughout the package is

    (1/(2n)) ||y - A beta||^2  +  sum_j w_j |beta_j|  +  sum_j (d_j/2) beta_j^2

so an L1 weight ``w_j`` soft-thresholds at ``n w_j`` on the cross-product
scale, and a quadratic weight ``d_j`` adds ``n d_j`` to the gram diagonal.

The L1 solver is cyclic coordinate descent with exact per-coordinate
minimization.  After the sweep criterion (max coefficient change below
``tol``) is met, the solution is polished by solving the stationarity system
restricted to the detected support; the polish is kept only when it
reproduces the support and signs and satisfies the zero-coordinate bounds, so
reductions such as "no penalty equals least squares" hold to solver
precision rather than sweep precision.
"""

from __future__ import annotations

import numpy as np

from .errors import MaxIterationsExceeded, SingularDesign

__all__ = [
    "soft_threshold",
    "coordinate_descent",
    "kkt_residual",
    "l1_objective",
    "ridge_solve",
    "ridge_objective",
    "ols_solve",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100_000


def soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _sweep(gram, resid, beta, n, l1, l2, order) -> float:
    """One pass of exact coordinate updates; returns max |change|."""
    max_change = 0.0
    for j in order:
        gjj = gram[j, j] + n * l2[j]
        if gjj <= 0.0:
            continue
        cj = resid[j] + gram[j, j] * beta[j]
        new = soft_threshold(cj, n * l1[j]) / gjj
        change = new - beta[j]
        if change != 0.0:
            resid -= gram[:, j] * change
            beta[j] = new
            if abs(change) > max_change:
                max_change = abs(change)
    return max_change


def coordinate_descent(
    gram: np.ndarray,
    cross: np.ndarray,
    n: int,
    l1_weights: np.ndarray,
    l2_weights: np.ndarray | None = None,
    *,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    beta0: np.ndarray | None = None,
    polish: bool = True,
) -> np.ndarray:
    """Minimize the penalized least-squares loss given sufficient statistics.

    Parameters
    ----------
    gram, cross, n : A.T A, A.T y, and the row count of the design A.
    l1_weights : per-coordinate L1 penalty weights (>= 0).
    l2_weights : optional per-coordinate quadratic penalty weights.
    tol : convergence is declared when no coefficient moves more than this
        in a full sweep.
    beta0 : warm start (defaults to zero).

    Raises
    ------
    MaxIterationsExceeded
        If the sweep cap is hit first.
    """
    p = gram.shape[0]
    l1 = np.asarray(l1_weights, dtype=float)
    l2 = np.zeros(p) if l2_weights is None else np.asarray(l2_weights, dtype=float)
    if l1.shape != (p,) or l2.shape != (p,):
        raise ValueError("penalty weight vectors must match the design width")
    if np.any(l1 < 0) or np.any(l2 < 0):
        raise ValueError("penalty weights must be nonnegative")
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    if p == 0:
        return beta
    resid = cross - gram @ beta
    order = np.arange(p)
    sweeps = 0
    change = np.inf
    inner_budget = 100
    while sweeps < max_sweeps:
        change = _sweep(gram, resid, beta, n, l1, l2, order)
        sweeps += 1
        if change < tol:
            break
        if polish:
            # exact solve over the current sign pattern; kept only when it
            # certifies full optimality, which ends the slow tail of sweeps
            # on ill-conditioned supports
            candidate = _polish(gram, cross, n, l1, l2, beta)
            if candidate is not beta:
                return candidate
            inner_budget = min(2 * inner_budget, 5000)
        # refine the current support cheaply before the next full sweep
        active = np.nonzero(beta)[0]
        if 0 < active.size < p:
            budget = inner_budget
            while budget and sweeps < max_sweeps:
                inner = _sweep(gram, resid, beta, n, l1, l2, active)
                sweeps += 1
                budget -= 1
                if inner < tol:
                    break
    else:
        raise MaxIterationsExceeded(sweeps, float(change))
    if polish:
        beta = _polish(gram, cross, n, l1, l2, beta)
    return beta


def _polish(gram, cross, n, l1, l2, beta0):
    """Feature-sign refinement seeded by the sweep iterate.

    Alternates (i) admitting the worst zero-coordinate subgradient violation
    with its descent sign and (ii) solving the sign-restricted stationarity
    equalities on the active set, taking the best point along the segment to
    the solution among all zero crossings (so the objective strictly
    decreases and supports cannot cycle), pruning penalized coordinates that
    land on zero.  This is exact for the L1 problem once it terminates.

    Returns the input object unchanged when the refinement stalls, in which
    case the caller keeps sweeping.
    """
    p = beta0.size
    hess = gram / n + np.diag(l2)
    lin = cross / n
    beta = beta0.copy()
    active = (beta != 0.0) | ((l1 == 0.0) & (np.diag(hess) > 0.0))
    theta = np.sign(beta)
    add_tol = 1e-11 * max(1.0, float(np.max(np.abs(lin))) if p else 1.0)

    def objective(vec):
        return 0.5 * float(vec @ (hess @ vec)) - float(lin @ vec) + float(l1 @ np.abs(vec))

    def state():
        return beta.tobytes() + active.tobytes() + theta.tobytes()

    # Rounds and passes depend only on (beta, active, theta), so a repeated
    # state means they cycle from there on; the cycles are cut short below
    # with the result that running them out would give.
    seen = set()
    for _ in range(max(50, 6 * p)):
        if state() in seen:
            return beta0
        seen.add(state())
        grad = hess @ beta - lin
        excess = np.where(~active, np.abs(grad) - l1, -np.inf)
        j = int(np.argmax(excess)) if p else 0
        if p and excess[j] > add_tol:
            active[j] = True
            theta[j] = -np.sign(grad[j])
        else:
            stat = grad + l1 * theta
            act = np.nonzero(active)[0]
            if act.size == 0 or np.max(np.abs(stat[act])) <= 1e-10:
                break  # optimal
        # sign-restricted solves with zero-crossing line search
        passes = 4 * p + 4
        trail, first_seen = [], {}
        for i in range(passes):
            if state() in first_seen:
                start = first_seen[state()]
                beta, active, theta = trail[start + (passes - start) % (i - start)]
                active = active.copy()
                break
            first_seen[state()] = i
            trail.append((beta, active.copy(), theta))
            act = np.nonzero(active)[0]
            if act.size == 0:
                break
            h_aa = hess[np.ix_(act, act)]
            rhs = lin[act] - l1[act] * theta[act]
            try:
                solved = np.linalg.solve(h_aa, rhs)
            except np.linalg.LinAlgError:
                solved, *_ = np.linalg.lstsq(h_aa, rhs, rcond=None)
            if not np.all(np.isfinite(solved)):
                return beta0
            current = beta[act]
            penal = l1[act] > 0
            consistent = (~penal) | (np.sign(solved) == theta[act]) | (solved == 0.0)
            if np.all(consistent):
                beta = np.zeros(p)
                beta[act] = solved
                exact_zero = penal & (solved == 0.0)
                if np.any(exact_zero):
                    active[act[exact_zero]] = False
                theta = np.sign(beta)
                break
            # candidate steps: full step plus every sign crossing en route
            delta = solved - current
            with np.errstate(divide="ignore", invalid="ignore"):
                t_cross = np.where(delta != 0.0, current / (current - solved), np.inf)
            candidates: list[tuple[float, int | None]] = [(1.0, None)]
            for k in range(act.size):
                if 0.0 < t_cross[k] < 1.0:
                    candidates.append((float(t_cross[k]), k))
            best_obj, best_vec, best_zero = np.inf, None, None
            for t, zero_k in candidates:
                stepped = current + t * delta
                if zero_k is not None:
                    stepped[zero_k] = 0.0
                vec = np.zeros(p)
                vec[act] = stepped
                val = objective(vec)
                if val < best_obj:
                    best_obj, best_vec, best_zero = val, vec, zero_k
            beta = best_vec
            if best_zero is not None and penal[best_zero]:
                active[act[best_zero]] = False
            theta = np.sign(beta)
    else:
        return beta0
    # a candidate is only kept when it certifies optimality outright
    if kkt_residual(gram, cross, n, l1, beta, l2) <= 1e-9:
        return beta
    return beta0


def kkt_residual(gram, cross, n, l1_weights, beta, l2_weights=None) -> float:
    """Max violation of the stationarity conditions at ``beta``.

    For nonzero coordinates the smooth gradient must equal minus the penalty
    times the sign; for zero coordinates its magnitude may not exceed the
    penalty weight.
    """
    p = gram.shape[0]
    if p == 0:
        return 0.0
    l1 = np.asarray(l1_weights, dtype=float)
    l2 = np.zeros(p) if l2_weights is None else np.asarray(l2_weights, dtype=float)
    grad = (gram @ beta - cross) / n + l2 * beta
    worst = 0.0
    for j in range(p):
        if beta[j] != 0.0:
            worst = max(worst, abs(grad[j] + l1[j] * np.sign(beta[j])))
        else:
            worst = max(worst, max(abs(grad[j]) - l1[j], 0.0))
    return worst


def l1_objective(design, response, l1_weights, beta, l2_weights=None) -> float:
    """Penalized loss value on raw (design, response) arrays."""
    resid = response - design @ beta
    n = design.shape[0]
    value = 0.5 / n * float(resid @ resid) + float(np.abs(beta) @ np.asarray(l1_weights))
    if l2_weights is not None:
        value += 0.5 * float(np.asarray(l2_weights) @ (beta**2))
    return value


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


def ridge_objective(design, response, diag_weights, beta) -> float:
    """Quadratic loss matching :func:`ridge_solve` (response may be a matrix)."""
    resid = np.asarray(response) - design @ beta
    n = design.shape[0]
    value = 0.5 / n * float(np.sum(resid * resid))
    d = np.asarray(diag_weights, dtype=float)
    value += 0.5 * float(np.sum(d[:, None] * np.asarray(beta).reshape(len(d), -1) ** 2))
    return value


def ols_solve(gram, cross, *, cond_limit: float = 1e15) -> np.ndarray:
    """Least-squares coefficients from normal equations with a rank guard."""
    p = gram.shape[0]
    if p == 0:
        return np.zeros_like(np.asarray(cross, dtype=float))
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularDesign(f"design gram condition number {cond:.3e} exceeds limit")
    return np.linalg.solve(gram, cross)
