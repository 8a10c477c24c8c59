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
:func:`l1_path` follows it once, to the smallest positive candidate, and
solves each candidate on the segment where its scale falls, with that
segment's active set and signs and its own weight vector.  A zero candidate
has no penalized coordinate and so no event: it is the least-squares (or
ridge) fit on its lane's usable coordinates, and the zero candidates of a
call are one batched solve, apart from the paths.

:func:`l1_path` takes one input form: a stack of problems, each a gram and a
row count with a count of lanes, and the lanes of all of them as two stacked
arrays, their cross-product vectors and their candidates.  A lane is an
independent L1 problem on its problem's gram.  The problems may be the
training sets of the folds of a cross-validation, whose row counts differ by
one when the folds are unequal, or the samples of a chunk of Monte Carlo
replications, and they may hold different numbers of lanes.  All paths go
in lockstep, and each event step is one batched solve of every live path's
active block, posed as a p x p system with the identity on the inactive
coordinates, plus one more of every candidate of every lane that ends on
that step's segment.  A stack of one problem broadcasts its gram over the
paths; with several, each step stacks every live path's own.  The
stationarity of all the returned candidates is checked in one stacked
:func:`kkt_residual` pass, each lane's candidates against its problem's
gram.  Every system is its own LAPACK call, so a lane's numbers do not
depend on the lanes it shares a call with.  Failures stay in their lane: a
singular active block or the event cap ends that lane's path and fails its
candidates not yet reached, and an endpoint off the stationarity conditions
fails only its own candidate.  :func:`ridge_grid` likewise solves a ridge
fit at every value of a penalty grid, on a stack of grams, in one batched
call.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import MaxIterationsExceeded, PcmSelectError, SingularDesign, unwrap
from .linalg import batched

__all__ = [
    "coordinate_descent",
    "l1_path",
    "kkt_residual",
    "ridge_solve",
    "ridge_grid",
    "ols_solve",
    "ols_batch",
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

    The solver is exact path following, not coordinate descent: :func:`l1_path`
    on a stack of one problem with one lane and the one candidate
    ``l1_weights``, which is the path's base.  No module of the package calls
    it; it is kept for the benchmark tracer's hook until the tracer hooks
    :func:`l1_path` itself.

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
    (((beta,),),) = l1_path(np.asarray(gram, dtype=float)[None], [n], [1],
                            np.asarray(cross, dtype=float)[None],
                            np.asarray(l1_weights, dtype=float)[None, None], l2_weights)
    return unwrap(beta)


def l1_path(grams, ns, lanes, crosses, l1_weights, l2_weights: np.ndarray | None = None) -> list:
    """The minimizers at several L1 weight vectors, read off one path per lane.

    The input is a stack of F problems, such as the training sets of the
    folds of a cross-validation or the samples of a chunk of Monte Carlo
    replications: ``grams`` is their (F, p, p) stack of grams and ``ns``
    their F row counts.  Problem f has ``lanes[f]`` lanes, independent L1
    problems on its gram, and B = sum(lanes): ``crosses`` is the (B, p)
    stack of their cross-product vectors and ``l1_weights`` the (B, K, p)
    stack of their K candidate vectors each, both in problem order.  A
    lane's candidates are in descending order, each a nonnegative multiple
    of the last; a problem may have no lanes.  The quadratic weights
    ``l2_weights`` (p,) are shared.  Returns F lists of ``lanes[f]`` lane
    results, each a list of K.

    With ``H = G/n + diag(l2)`` and a lane's last positive candidate ``w``
    scaled by ``t``, the active coefficients on a segment of its path are
    ``a - t b`` with ``H_AA [a, b] = [lin_A, w_A sign_A]``.  Going down from
    ``t = inf`` (the unpenalized coordinates active), the next event is the
    largest ``t`` in ``(1, t_now]`` where an inactive gradient reaches its
    bound or an active coefficient that is moving toward zero reaches it.  A
    candidate ``s w`` whose scale ``s`` lies on a segment keeps that
    segment's active set and signs and is solved there with its own vector,
    as the path to it alone would solve its last segment, so it equals
    :func:`coordinate_descent` at that vector wherever the two paths take the
    same events.  Zero candidates, which come last, are not on a path: a
    lane's path ends at its last positive candidate, and each zero candidate
    is the least-squares (or ridge) fit on the lane's usable coordinates,
    the one system that such a path's first step would pose, solved for all
    zero candidates of the call in one batched solve; a lane of zero
    candidates only has no path.  A lane's numbers do not depend on the
    other lanes of the call.

    Returns one solution or one failure per candidate, in the given order.
    A singular active block or the ``10 p + 10`` event cap ends that lane's
    path: each of its candidates at or below that scale gets the failure
    (:class:`SingularDesign` or :class:`MaxIterationsExceeded`); a zero
    candidate whose block is singular gets that :class:`SingularDesign`.  An
    endpoint that violates the stationarity conditions by more than
    ``KKT_LIMIT`` fails alone (:class:`SingularDesign`), and the path goes
    on.  Other lanes are not affected by either.
    """
    grams = np.asarray(grams, dtype=float)
    n_rows = np.asarray(ns, dtype=float)
    sizes = [int(b) for b in lanes]
    crosses = np.asarray(crosses, dtype=float)
    weights = np.asarray(l1_weights, dtype=float)
    l2 = None if l2_weights is None else np.asarray(l2_weights, dtype=float)
    p, k = grams.shape[-1], weights.shape[1] if weights.ndim == 3 else -1
    if (grams.shape != (len(sizes), p, p) or n_rows.shape != (len(sizes),)
            or min(sizes, default=0) < 0 or crosses.shape != (sum(sizes), p)
            or weights.shape != (sum(sizes), k, p) or (l2 is not None and l2.shape != (p,))):
        raise ValueError("grams, row counts, lanes, cross products and penalty weights must match")
    # not >= 0 rather than < 0, so NaN fails too
    if not (weights >= 0.0).all() or (l2 is not None and not (l2 >= 0.0).all()):
        raise ValueError("penalty weights must be nonnegative")
    # each problem's first lane
    first = [0, *itertools.accumulate(sizes)]
    # each candidate's solution goes into its row of betas, a failure that ends a
    # path or fails a system into failures by (lane, candidate)
    betas = np.zeros(weights.shape)
    failures = {}
    if p > 0 and weights.size:
        peaks = weights.max(axis=2)
        # each problem's H, and its row count shaped to divide its gram and cross rows
        n_rows = n_rows.reshape(-1, 1, 1)
        hess = grams / n_rows
        if l2 is not None:
            hess.reshape(-1, p * p)[:, :: p + 1] += l2
        # A stack of one problem broadcasts its H.  That is every call of a setting-A
        # Monte Carlo chunk at n=15 (most with one lane); taking its H per live path
        # at each step made the benchmark's setting-A call 2-4% slower in alternating
        # runs, and holding each path's H in the lockstep state raised a tune
        # worker's resident peak by about 0.16 MiB.
        problem = np.repeat(np.arange(len(sizes)), sizes) if len(sizes) > 1 else None
        lin = crosses / (n_rows[0, 0] if problem is None else n_rows[problem, 0])
        # A lane's zero candidates come last, and peaks are nonnegative, so all() says
        # whether every lane's last candidate is positive: then there are none.
        # Each lane with a positive candidate is one path; the zero candidates
        # (lane, index) are solved apart, and a lane of zero candidates only has no path.
        # (A list's all() costs a quarter of an array's on a one-lane call.)
        zero = None
        if all(peaks[:, -1].tolist()):
            moving = enumerate(peaks.tolist())
        else:
            penalized = peaks > 0.0
            zero, rows = np.nonzero(~penalized), peaks.tolist()
            moving = [(b, rows[b]) for b in np.flatnonzero(penalized.any(axis=1)).tolist()]
        # a path is a list of (lane, index, scale) of its positive candidates, in
        # descending order
        paths = []
        for b, row in moving:
            # each candidate's scale relative to the last positive one
            positive = [peak for peak in row if peak > 0.0]
            scales = [peak / positive[-1] for peak in row]
            if any(s < s_next for s, s_next in zip(scales, scales[1:])):
                raise ValueError("L1 candidates must be in descending order")
            paths.append([(b, c, s) for c, s in enumerate(scales[: len(positive)])])
        if zero is not None:
            _zero_candidates(hess, problem, lin, weights, zero, betas, failures)
        if paths:
            _lockstep(hess, 0 if problem is None else problem[[path[0][0] for path in paths]],
                      lin, weights, paths, betas, failures)
        # the stationarity of every candidate of every lane in one pass, each lane's
        # (K, p) rows against its problem's gram
        worst = kkt_residual(grams[0] if problem is None else grams[problem], crosses[:, None],
                             n_rows[0] if problem is None else n_rows[problem], weights, betas,
                             l2)
        # each candidate's fit, at b * k + c: its row of betas or its failure
        fits = list(betas.reshape(-1, p))
        ok = (worst <= KKT_LIMIT).ravel().tolist()
        if not all(ok):
            for i, good in enumerate(ok):
                if not good:
                    fits[i] = SingularDesign("the L1 path ended off the optimum "
                                             "(degenerate active set)")
        for (b, c), failed in failures.items():
            fits[b * k + c] = failed
    else:
        # nothing to follow: every fit is its row of zeros
        fits = list(betas.reshape(len(betas) * k, p))
    by_lane = [fits[b * k : b * k + k] for b in range(len(betas))]
    return [by_lane[start : start + size] for start, size in zip(first, sizes)]


def _zero_candidates(hess: np.ndarray, problem, lin: np.ndarray, weights: np.ndarray, zero,
                     betas, failures) -> None:
    """Solve each zero candidate ``(b, c)`` of the index arrays ``zero`` into
    ``betas[b, c]``, all in one batched solve.

    A zero candidate penalizes nothing, so its fit is lane ``b``'s least-squares
    (or ridge) fit on ``hess[problem[b]]``'s usable coordinates, those with a
    positive diagonal, and has no event: the system that a path's first step
    poses, p x p with the identity on the other coordinates and the right-hand
    side ``[lin_b, 0 * w]`` on the usable ones, zero elsewhere.  The zero column
    keeps the signs of the candidate's weights ``w``, as that step's does, since
    a -0.0 there can change the signs of zero coefficients.  A singular system
    fails its candidate alone, with the message of a singular active block.
    """
    lanes, cands = zero
    p = hess.shape[-1]
    h = hess[0] if problem is None else hess[problem[lanes]]
    usable = h.diagonal(axis1=-2, axis2=-1) > 0.0
    blocks = np.where(usable[..., :, None] & usable[..., None, :], h, np.eye(p))
    rhs = np.empty((len(lanes), p, 2))
    rhs[..., 0], rhs[..., 1] = np.where(usable, lin[lanes], 0.0), 0.0 * weights[lanes, cands]
    ab, singular = _solve(np.broadcast_to(blocks, rhs.shape[:2] + (p,)), rhs,
                          "active block of the L1 path")
    betas[lanes, cands] = ab[..., 0] - ab[..., 1]
    for i, exc in singular.items():
        failures[int(lanes[i]), int(cands[i])] = exc


def _lockstep(hess: np.ndarray, problem, lin: np.ndarray, weights: np.ndarray, paths, betas,
              failures) -> None:
    """Follow all paths together, with one batched solve of their active blocks per event.

    A path has the weights ``t * weights[b, k]`` of its last candidate
    ``(b, k, s)``, which has a positive weight, and solves each of its
    candidates ``(b, c, s)`` at ``t = s`` into ``betas[b, c]``, on lane
    ``b``'s row of ``lin`` and on ``hess[problem[i]]`` for path i.  Each
    path's active block is solved as a p x p system with the identity on its
    inactive coordinates and a zero right-hand side there, one LAPACK call
    per path, so no path's numbers depend on the others.  Row i of the state
    arrays belongs to path ``live[i]``; a path's row is dropped when it ends.
    A path that ends early puts its failure in ``failures[b, c]`` for every
    candidate ``(b, c)`` it did not reach.
    """
    p = hess.shape[-1]
    base = np.array([weights[b, k] for b, k, _ in (path[-1] for path in paths)])
    lin = lin[[path[0][0] for path in paths]]
    # one problem's H is broadcast (see l1_path); several are taken by live path
    stacked = len(hess) > 1
    problem = np.array(problem) if stacked else 0
    usable = hess.diagonal(axis1=1, axis2=2)[problem] > 0.0
    hess = hess if stacked else hess[0]
    # the unpenalized usable coordinates are active from t = inf on
    state = [usable & (base == 0.0), usable & (base > 0.0), base, lin, np.zeros_like(base),
             np.full(len(paths), np.inf)]
    eye, cap, steps = np.eye(p), 10 * p + 10, 0
    failure = [None] * len(paths)
    live = np.arange(len(paths))
    # the event times below may divide by zero, overflow or be 0/0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while live.size and steps < cap:
            active, penalized, base, lin, theta, t = state
            # the last step's blocks go first, so no more than two stacks are held
            blocks = None
            h = hess[problem[live]] if stacked else hess
            blocks = np.where(active[:, :, None] & active[:, None, :], h, eye)
            # the right-hand side [lin_A, w_A sign_A], zero off the active set
            rhs = np.empty((*base.shape, 2))
            rhs[..., 0], rhs[..., 1] = np.where(active, lin, 0.0), base * theta
            ab, singular = _solve(blocks, rhs, "active block of the L1 path")
            if singular:
                # a singular block ends its path; the others take this step again
                for i, exc in singular.items():
                    failure[live[i]] = exc
                keep = np.ones(live.size, dtype=bool)
                keep[list(singular)] = False
                live, *state = (x[keep] for x in (live, *state))
                continue
            steps += 1
            pq = h @ ab
            del h
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
            # this segment's signs, for the candidates solved after the joins and leaves
            signs = theta.copy()
            going, rows, cands = [], [], []
            for i, (path, j) in enumerate(zip(live.tolist(), event.argmax(axis=1).tolist())):
                t[i] = event[i, j]
                todo = paths[path]
                # a candidate at or above the path's next event ends on this segment:
                # the path's base takes the path's own solve, every other candidate
                # is solved below with its own weights and this segment's signs
                while todo and todo[0][2] >= t[i]:
                    b, c, _ = todo.pop(0)
                    if todo:
                        rows.append(i)
                        cands.append((b, c))
                    else:
                        betas[b, c] = ab[i, :, 0] - ab[i, :, 1]
                going.append(bool(todo))
                if todo:  # coordinate j joins or leaves
                    theta[i, j] = 0.0 if active[i, j] else -np.sign(pv[i, j])
                    active[i, j] = not active[i, j]
            if rows:
                # all of them, of every path, in batched solves no larger than blocks
                at = tuple(zip(*cands))
                rhs = rhs[rows]
                rhs[..., 1] = weights[at] * signs[rows]
                for start in range(0, len(rows), len(blocks)):
                    chunk = slice(start, start + len(blocks))
                    ab_w = np.linalg.solve(blocks[rows[chunk]], rhs[chunk])
                    betas[at[0][chunk], at[1][chunk]] = ab_w[..., 0] - ab_w[..., 1]
            if not any(going):
                break
            if not all(going):
                live, *state = (x[going] for x in (live, *state))
    # a path that ended early fails every candidate it did not reach
    for path, failed in zip(paths, failure):
        for b, c, _ in path:
            failures[b, c] = failed or MaxIterationsExceeded(cap)


def kkt_residual(gram, cross, n, l1_weights, beta, l2_weights=None):
    """Max violation of the stationarity conditions at ``beta``.

    For nonzero coordinates the smooth gradient must equal minus the penalty
    times the sign; for zero coordinates its magnitude may not exceed the
    penalty weight.  Returns the maximum of each row of ``beta``: an array of
    its leading shape, such as (K,) for a (K, p) stack of rows.  ``cross``,
    ``l1_weights`` and ``n`` broadcast against ``beta``, and ``gram`` is one
    (p, p) matrix or a stack that ``beta @ gram`` broadcasts against it: a
    (K, p, p) stack with a (K, 1, p) ``beta`` is a gram per row.
    """
    beta = np.asarray(beta, dtype=float)
    l1 = np.asarray(l1_weights, dtype=float)
    grad = (beta @ gram - cross) / n
    if l2_weights is not None:
        grad = grad + np.asarray(l2_weights, dtype=float) * beta
    # |grad + l1 sign| where beta is nonzero, |grad| - l1 where it is zero; the
    # maximum starts from zero, so a zero coordinate inside its bound counts 0
    violation = np.abs(grad + l1 * np.sign(beta)) - l1 * (beta == 0.0)
    return violation.max(axis=-1, initial=0.0)


def ridge_solve(gram, cross, n, diag_weights) -> np.ndarray:
    """Solve (G + n diag(d)) beta = cross; raises SingularDesign on failure.

    ``cross`` may have multiple right-hand-side columns.  The one-problem case
    of :func:`ridge_grid`'s solve; no module of the package calls it, and it is
    kept for the benchmark tracer's hook until the tracer hooks the grid form.
    """
    ((solution,),) = _ridge_batch(np.asarray(gram, dtype=float)[None],
                                  np.asarray(cross, dtype=float)[None],
                                  n * np.asarray(diag_weights, dtype=float)[None, None])
    return unwrap(solution)


def ridge_grid(gram, cross, n, pen, scales) -> list:
    """The fits with ``n * s * pen`` added to the gram diagonal, at each scale ``s``,
    on each of D problems, such as the samples of D Monte Carlo replications:
    ``gram`` is a (D, p, p) stack, ``cross`` holds D cross products and ``n``
    D row counts.

    Returns D lists of one solution, or one :class:`SingularDesign`, per
    scale.  Every positive scale of every problem goes into one batched
    solve, and each system is its own LAPACK call, so its fit is
    :func:`ridge_solve`'s.  A zero scale, or a zero ``pen``, is least
    squares by :func:`ols_batch`, with its rank guard, solved once per
    problem and shared by every such scale of it.  Without right-hand-side
    columns every fit is empty.  A shift that overflows is infinite, and
    :func:`_ridge_batch` takes it at its limit.
    """
    if any(s < 0 for s in scales):
        raise ValueError("penalty scales must be nonnegative")
    gram = np.asarray(gram, dtype=float)
    cross = np.asarray(cross, dtype=float)
    diags = np.asarray(scales, dtype=float)[:, None] * pen
    positive = diags.any(axis=1).tolist()
    # every problem at every positive scale, in one batched solve
    with np.errstate(over="ignore"):
        shifts = np.array(n, dtype=float)[:, None, None] * (diags if all(positive) else
                                                             diags[positive])
    if cross.size and shifts.shape[1]:
        rows = _ridge_batch(gram, cross, shifts)
    else:
        rows = [[rhs] * shifts.shape[1] for rhs in cross]
    if all(positive):
        return rows
    least = ols_batch(gram, cross) if cross.size else list(cross)
    return [[next(row) if pos else ols for pos in positive]
            for row, ols in zip(map(iter, rows), least)]


def _ridge_batch(gram, cross, shifts) -> list:
    """The solution of (G + diag(shift)) beta = cross on each of a (D, p, p) stack of
    grams with its D cross products, for each of its K rows of the (D, K, p)
    ``shifts`` (``n * d`` for the ridge weights d), or its :class:`SingularDesign`,
    all in one batched solve: D lists of K fits.  An infinite shift is the limit of
    a growing penalty: its coefficient is zero, and the others solve the system
    without its row and column."""
    _, k, p = shifts.shape
    if p == 0:
        fits = [np.zeros_like(rhs) for rhs in cross for _ in range(k)]
    else:
        # copies of each gram with its shifts on their diagonals, as gram + n diag(d)
        # gives them; each cross product goes with each of its shifts
        systems = np.repeat(gram, k, axis=0) if k > 1 else gram.copy()
        shifts = shifts.reshape(-1, p)
        systems.reshape(-1, p * p)[:, :: p + 1] += shifts
        rhs = np.repeat(cross, k, axis=0) if k > 1 else cross
        infinite = np.isinf(shifts)
        if infinite.any():
            # each infinite shift's row and column become those of the identity
            free = ~infinite
            systems = np.where(free[:, :, None] & free[:, None, :], systems, np.eye(p))
            rhs = rhs * (free if rhs.ndim == 2 else free[:, :, None])
        fits, failed = _solve(systems, rhs, "penalized system")
        finite = np.isfinite(fits.reshape(len(fits), -1)).all(axis=1).tolist()
        fits = [failed.get(i, fit) if ok else
                SingularDesign("penalized system produced non-finite coefficients")
                for i, (fit, ok) in enumerate(zip(fits, finite))]
    return [fits[i : i + k] for i in range(0, len(fits), k)]


def ols_solve(gram, cross) -> np.ndarray:
    """Least-squares coefficients from normal equations with a rank guard.

    The one-problem case of :func:`ols_batch`; raises its failure.
    """
    (solution,) = ols_batch(np.asarray(gram, dtype=float)[None],
                            np.asarray(cross, dtype=float)[None])
    return unwrap(solution)


def ols_batch(gram, cross) -> list:
    """Least-squares coefficients from normal equations on each of D problems, such
    as the samples of D Monte Carlo replications: ``gram`` is a (D, p, p) stack and
    ``cross`` holds D cross products, vectors or matrices of right-hand sides.

    Returns D solutions, or one :class:`SingularDesign` each.  The rank guard
    is each gram's 2-norm condition number, the ratio of its extreme singular
    values; an infinite or undefined ratio fails too.  Every gram's singular
    values come from one batched SVD and every system is solved in one
    batched solve, each its own LAPACK call; a rejected system's solution is
    replaced by its failure.
    """
    if gram.shape[-1] == 0:
        return list(np.zeros_like(cross))
    sv = np.linalg.svd(gram, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = (sv[:, 0] / sv[:, -1]).tolist()
    fits, failed = _solve(gram, cross, "design gram")
    return [failed.get(i, fit) if c <= COND_LIMIT else
            SingularDesign(f"design gram condition number {c:.3e} exceeds limit")
            for i, (fit, c) in enumerate(zip(fits, cond))]


def _solve(systems, rhs, kind: str) -> tuple:
    """The solution of each of a (D, p, p) stack of systems with its right-hand side, a
    vector or a matrix, in one batched solve: the stack of solutions, zero for a
    singular system, and the :class:`SingularDesign` of each such system, by index."""
    column = rhs.ndim == 2
    (fits,), failed = batched(lambda a, b: (np.linalg.solve(a, b),),
                              [systems, rhs[..., None] if column else rhs],
                              lambda exc: SingularDesign(f"{kind} is singular: {exc}"))
    return fits[..., 0] if column else fits, failed
