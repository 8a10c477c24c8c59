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
set and signs and its own weight vector.

:func:`l1_path` also takes several lanes: independent problems on one gram,
each with its own cross-product vector and its own candidate list.  Their
paths go in lockstep, and each event step is one batched solve of every live
path's active block, posed as a p x p system with the identity on the
inactive coordinates, plus one more of every candidate of every lane that
ends on that step's segment.  The stationarity of all the returned
candidates is checked in one stacked :func:`kkt_residual` pass.  Every
system is its own LAPACK call, so a lane's numbers do not depend on the
lanes it shares a call with.  Failures stay in their lane: a singular active
block or the event cap ends that lane's path and fails its candidates not
yet reached, and an endpoint off the stationarity conditions fails only its
own candidate.  :func:`ridge_grid` likewise solves a ridge fit at every value
of a penalty grid in one batched call.
"""

from __future__ import annotations

import numpy as np

from .errors import MaxIterationsExceeded, PcmSelectError, SingularDesign

__all__ = [
    "coordinate_descent",
    "l1_path",
    "kkt_residual",
    "ridge_solve",
    "ridge_grid",
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
) -> list:
    """The minimizers at several L1 weight vectors, read off one path per lane.

    A lane is one L1 problem on the shared ``gram``: its cross-product vector
    and its candidate vectors in descending order, each a nonnegative
    multiple of the last.  ``cross`` of shape (p,) with one candidate list is
    one lane, and the result is one list; a (B, p) stack with B lists is B
    lanes, and the result is B lists.  With ``H = G/n + diag(l2)`` and a
    lane's last positive candidate ``w`` scaled by ``t``, the active
    coefficients on a segment of its path are ``a - t b`` with
    ``H_AA [a, b] = [lin_A, w_A sign_A]``.  Going down from ``t = inf`` (the
    unpenalized coordinates active), the next event is the largest ``t`` in
    ``(1, t_now]`` where an inactive gradient reaches its bound or an active
    coefficient that is moving toward zero reaches it.  A candidate ``s w``
    whose scale ``s`` lies on a segment keeps that segment's active set and
    signs and is solved there with its own vector, as the path to it alone
    would solve its last segment, so it equals :func:`coordinate_descent` at
    that vector wherever the two paths take the same events.  Zero
    candidates are one segment of their own.  A lane's numbers do not depend
    on the other lanes of the call.

    Returns one solution or one failure per candidate, in the given order.
    A singular active block or the ``10 p + 10`` event cap ends that lane's
    path: each of its candidates at or below that scale gets the failure
    (:class:`SingularDesign` or :class:`MaxIterationsExceeded`).  An
    endpoint that violates the stationarity conditions by more than
    ``KKT_LIMIT`` fails alone (:class:`SingularDesign`), and the path goes
    on.  Other lanes are not affected by either.
    """
    p = gram.shape[0]
    crosses = np.asarray(cross, dtype=float)
    lanes = crosses.ndim == 2
    if not lanes:
        crosses, l1_weights = crosses[None], [l1_weights]
    lists = [[np.asarray(w, dtype=float) for w in ws] for ws in l1_weights]
    l2 = np.zeros(p) if l2_weights is None else np.asarray(l2_weights, dtype=float)
    if (crosses.shape != (len(lists), p) or l2.shape != (p,)
            or any(w.shape != (p,) for ws in lists for w in ws)):
        raise ValueError("cross products and penalty weights must match the design width")
    if (l2 < 0).any() or any((w < 0).any() for ws in lists for w in ws):
        raise ValueError("penalty weights must be nonnegative")
    fits = [[np.zeros(0)] * len(ws) for ws in lists]
    if p > 0 and any(lists):
        # a lane's positive and its zero candidates are two paths, each a list of
        # (lane, index, weights, scale) in descending order
        paths = []
        for b, ws in enumerate(lists):
            # each candidate's scale relative to the last positive one; zero ones come last
            peaks = [w.max() for w in ws]
            positive = [peak for peak in peaks if peak > 0.0]
            scales = [peak / positive[-1] for peak in peaks] if positive else peaks
            if any(s < s_next for s, s_next in zip(scales, scales[1:])):
                raise ValueError("L1 candidates must be in descending order")
            cands = [(b, k, ws[k], s) for k, s in enumerate(scales)]
            paths += [part for part in (cands[: len(positive)], cands[len(positive):]) if part]
        hess = gram / n
        hess.flat[:: p + 1] += l2
        _lockstep(hess, crosses / n, paths, fits)
        # the stationarity of every solved candidate of every lane in one pass
        done = [(b, k) for b, lane in enumerate(fits) for k, fit in enumerate(lane)
                if not isinstance(fit, PcmSelectError)]
        if done:
            worst = kkt_residual(gram, crosses[[i for i, _ in done]], n,
                                 [lists[i][j] for i, j in done],
                                 np.array([fits[i][j] for i, j in done]), l2)
            for (i, j), r in zip(done, worst.tolist()):
                if not r <= KKT_LIMIT:
                    fits[i][j] = SingularDesign(
                        "the L1 path ended off the optimum (degenerate active set)")
    return fits if lanes else fits[0]


def _lockstep(hess: np.ndarray, lin: np.ndarray, paths, fits) -> None:
    """Follow all paths together, with one batched solve of their active blocks per event.

    A path has the weights ``t * w`` of its last candidate ``(b, k, w, s)``
    and solves each of its candidates at ``t = s`` into ``fits[b][k]``.
    Each path's active block is solved as a p x p system with the identity
    on its inactive coordinates and a zero right-hand side there, one LAPACK
    call per path, so no path's numbers depend on the others.  Row i of the
    state arrays belongs to path ``live[i]``; a path's row is dropped when it
    ends.
    """
    p = hess.shape[0]
    base = np.array([path[-1][2] for path in paths]).reshape(-1, p)
    lin = lin[[path[0][0] for path in paths]]
    usable = hess.diagonal() > 0.0
    # a least-squares or ridge path has no penalized coordinate and so no event
    state = [usable & (base == 0.0), usable & (base > 0.0), base, lin, np.zeros_like(base),
             np.full(len(paths), np.inf)]
    eye, cap, steps = np.eye(p), 10 * p + 10, 0
    failure = [None] * len(paths)
    live = np.arange(len(paths))
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size and steps < cap:
            active, penalized, base, lin, theta, t = state
            blocks = np.where(active[:, :, None] & active[:, None, :], hess, eye)
            # the right-hand side [lin_A, w_A sign_A], zero off the active set
            rhs = np.empty((*base.shape, 2))
            rhs[..., 0], rhs[..., 1] = np.where(active, lin, 0.0), base * theta
            try:
                ab = np.linalg.solve(blocks, rhs)
            except np.linalg.LinAlgError:
                # the batched error names no path: solve one by one, drop the singular
                # ones and solve the rest again
                keep = np.ones(live.size, dtype=bool)
                for i, path in enumerate(live.tolist()):
                    try:
                        np.linalg.solve(blocks[i], rhs[i])
                    except np.linalg.LinAlgError as exc:
                        keep[i] = False
                        failure[path] = SingularDesign(
                            f"active block of the L1 path is singular: {exc}")
                live, *state = (x[keep] for x in (live, *state))
                continue
            steps += 1
            pq = hess @ ab
            pv = pq[..., 0] - lin
            # An active coordinate leaves where a - t b = 0, an inactive one joins
            # where |pv - t qv| = t w, that is at t = pv / (qv + sign(pv) w).  Only
            # a coefficient moving toward zero may leave, and only a positive
            # join time counts; without these conditions rounding lets a
            # coordinate that has just joined leave again at the same t.
            event = np.where(active, ab[..., 0] / ab[..., 1],
                             pv / (pq[..., 1] + np.sign(pv) * base))
            ok = (np.where(active, theta * ab[..., 1] < 0.0, penalized)
                  & (event > 1.0) & (event <= t[:, None]))
            event = np.where(ok, event, -np.inf)
            going, rows, own = [], [], []
            for i, (path, j) in enumerate(zip(live.tolist(), event.argmax(axis=1).tolist())):
                t[i] = event[i, j]
                todo = paths[path]
                # a candidate at or above the path's next event ends on this segment:
                # the path's base takes the path's own solve, every other candidate
                # is solved below with its own weights and this segment's signs
                while todo and todo[0][3] >= t[i]:
                    b, c, w, _ = todo.pop(0)
                    if todo:
                        rows.append(i)
                        own.append((b, c, w * theta[i]))
                    else:
                        fits[b][c] = ab[i, :, 0] - ab[i, :, 1]
                going.append(bool(todo))
                if todo:  # coordinate j joins or leaves
                    theta[i, j] = 0.0 if active[i, j] else -np.sign(pv[i, j])
                    active[i, j] = not active[i, j]
            if rows:
                # all of them, of every path, in one batched solve
                rhs = rhs[rows]
                rhs[..., 1] = [w_theta for *_, w_theta in own]
                for (b, c, _), ab_w in zip(own, np.linalg.solve(blocks[rows], rhs)):
                    fits[b][c] = ab_w[:, 0] - ab_w[:, 1]
            if not any(going):
                break
            if not all(going):
                live, *state = (x[going] for x in (live, *state))
    # a path that ended early fails every candidate it did not reach
    for path, failed in zip(paths, failure):
        for b, c, *_ in path:
            fits[b][c] = failed or MaxIterationsExceeded(cap)


def kkt_residual(gram, cross, n, l1_weights, beta, l2_weights=None):
    """Max violation of the stationarity conditions at ``beta``.

    For nonzero coordinates the smooth gradient must equal minus the penalty
    times the sign; for zero coordinates its magnitude may not exceed the
    penalty weight.  ``beta`` of shape (p,) gives a float; a (K, p) stack,
    with ``cross`` and ``l1_weights`` stacked alike, gives the K row maxima
    as an array.
    """
    beta = np.asarray(beta, dtype=float)
    l1 = np.asarray(l1_weights, dtype=float)
    grad = (beta @ gram - cross) / n
    if l2_weights is not None:
        grad = grad + np.asarray(l2_weights, dtype=float) * beta
    violation = np.where(beta != 0.0, np.abs(grad + l1 * np.sign(beta)),
                         np.maximum(np.abs(grad) - l1, 0.0))
    worst = violation.max(axis=-1, initial=0.0)
    return float(worst) if beta.ndim == 1 else worst


def ridge_solve(gram, cross, n, diag_weights) -> np.ndarray:
    """Solve (G + n diag(d)) beta = cross; raises SingularDesign on failure.

    ``cross`` may have multiple right-hand-side columns.
    """
    (solution,) = _ridge_batch(gram, cross, n, [diag_weights])
    if isinstance(solution, PcmSelectError):
        raise solution
    return solution


def ridge_grid(gram, cross, n, pen, scales) -> list:
    """The fits with ``n * s * pen`` added to the gram diagonal, at each scale ``s``.

    Returns one solution, or one :class:`SingularDesign`, per scale.  Every
    positive scale goes into one batched solve, and each system is its own
    LAPACK call, so its fit is :func:`ridge_solve`'s.  A zero scale, or a
    zero ``pen``, is least squares by :func:`ols_solve`, with its rank guard,
    solved once and shared by every such scale.  Without right-hand-side
    columns every fit is empty.
    """
    if any(s < 0 for s in scales):
        raise ValueError("penalty scales must be nonnegative")
    if not cross.size:
        return [cross] * len(scales)
    diags = [s * pen for s in scales]
    ridge = iter(_ridge_batch(gram, cross, n, [d for d in diags if d.any()]))
    if not all(d.any() for d in diags):
        try:
            ols = ols_solve(gram, cross)
        except SingularDesign as exc:
            ols = exc
    return [next(ridge) if d.any() else ols for d in diags]


def _ridge_batch(gram, cross, n, diags) -> list:
    """The solution of (G + n diag(d)) beta = cross for each ``d`` of ``diags``, or its
    :class:`SingularDesign`, all in one batched solve."""
    p = gram.shape[0]
    if p == 0:
        return [np.zeros_like(np.asarray(cross, dtype=float))] * len(diags)
    d = np.asarray(diags, dtype=float).reshape(-1, p)
    # copies of the gram with n d on their diagonals, as gram + n diag(d) gives them
    systems = np.empty((len(d), p, p))
    systems[:] = gram
    systems.reshape(len(d), p * p)[:, :: p + 1] += n * d
    try:
        fits = list(np.linalg.solve(systems, cross))
    except np.linalg.LinAlgError:
        # the batched error names no system: solve one by one
        fits = []
        for system in systems:
            try:
                fits.append(np.linalg.solve(system, cross))
            except np.linalg.LinAlgError as exc:
                fits.append(SingularDesign(f"penalized system is singular: {exc}"))
    return [fit if isinstance(fit, PcmSelectError) or np.isfinite(fit).all()
            else SingularDesign("penalized system produced non-finite coefficients")
            for fit in fits]


def ols_solve(gram, cross) -> np.ndarray:
    """Least-squares coefficients from normal equations with a rank guard.

    The guard is the gram's 2-norm condition number, the ratio of its extreme
    singular values; an infinite or undefined ratio fails too.
    """
    p = gram.shape[0]
    if p == 0:
        return np.zeros_like(np.asarray(cross, dtype=float))
    sv = np.linalg.svd(gram, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[0] / sv[-1]
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularDesign(f"design gram condition number {cond:.3e} exceeds limit")
    return np.linalg.solve(gram, cross)
