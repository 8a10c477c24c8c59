"""Deliberately slow reference implementations used to cross-check the fast paths, and
the helpers that only tests need: a model's population covariance, the stacked layout
of pcm's coefficient blocks, a roles file's JSON object and an edge-list file."""

from __future__ import annotations

from itertools import permutations, product
from pathlib import Path

import numpy as np

from pcmselect import pcm, solvers
from pcmselect.data import Dataset, RolePartition
from pcmselect.errors import PcmSelectError
from pcmselect.pcm import (
    MediatorCoefs,
    PcmFit,
    adaptive_weights,
    pcm_stage1_m,
    pcm_stage1_y,
    ridge_pilot_m,
    ridge_pilot_y,
)


def brute_force_cross_products(data, a, b):
    """Elementwise double-loop sum of cross products."""
    out = np.zeros((len(a), len(b)))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc = 0.0
            for t in range(data.shape[0]):
                acc += data[t, ai] * data[t, bj]
            out[i, j] = acc
    return out


def penrose_violation(m, pinv):
    """Largest violation of the four Moore-Penrose conditions."""
    return max(
        np.max(np.abs(m @ pinv @ m - m)),
        np.max(np.abs(pinv @ m @ pinv - pinv)),
        np.max(np.abs((m @ pinv).T - m @ pinv)),
        np.max(np.abs((pinv @ m).T - pinv @ m)),
    )


# -- d-separation by exhaustive path enumeration ----------------------------------


def all_undirected_paths(dag, start, goal):
    """Simple paths in the skeleton, each step annotated with the edge direction."""
    adjacency: dict[str, list[tuple[str, bool]]] = {v: [] for v in dag.vertices}
    for tail, head in dag.edges:
        adjacency[tail].append((head, True))   # traversed tail -> head
        adjacency[head].append((tail, False))  # traversed against the arrow
    paths = []

    def walk(vertex, visited, steps):
        if vertex == goal:
            paths.append(list(steps))
            return
        for nxt, forward in adjacency[vertex]:
            if nxt in visited:
                continue
            visited.add(nxt)
            steps.append((vertex, nxt, forward))
            walk(nxt, visited, steps)
            steps.pop()
            visited.remove(nxt)

    walk(start, {start}, [])
    return paths


def path_is_active(dag, steps, given):
    """Blocking rules applied vertex by vertex along one path."""
    given = set(given)
    for i in range(len(steps) - 1):
        mid = steps[i][1]
        into_mid_first = steps[i][2]        # previous edge points into mid
        into_mid_second = not steps[i + 1][2]  # next edge points into mid
        if into_mid_first and into_mid_second:
            # collider: active iff mid or a descendant of mid is conditioned on
            if mid not in given and not (dag.descendants(mid) & given):
                return False
        else:
            if mid in given:
                return False
    return True


def d_separated_by_paths(dag, a, b, given):
    """Oracle: separated iff no active path connects the two sets."""
    for x in a:
        for y in b:
            for steps in all_undirected_paths(dag, x, y):
                if path_is_active(dag, steps, given):
                    return False
    return True


def random_dag(rng, n_vertices, edge_prob=0.4, shuffle=True):
    """Random DAG with optional label shuffling (kills ordering artifacts)."""
    from pcmselect.graphs import Dag

    names = [f"v{i}" for i in range(n_vertices)]
    if shuffle:
        names = [names[i] for i in rng.permutation(n_vertices)]
    edges = []
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < edge_prob:
                edges.append((names[i], names[j]))
    return Dag(sorted(names), edges)


def all_upper_triangular_dags(n_vertices):
    """Every DAG whose edges respect the identity ordering of n vertices."""
    from pcmselect.graphs import Dag

    names = [f"v{i}" for i in range(n_vertices)]
    slots = [(names[i], names[j]) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
    for mask in range(2 ** len(slots)):
        edges = [slots[k] for k in range(len(slots)) if mask >> k & 1]
        yield Dag(names, edges)


def format_edge_list(g) -> str:
    """A graph in the ``tail -> head`` line format of ``graphs.parse_edge_list``."""
    lines = [f"{t} -> {h}" for t, h in sorted(g.edges)]
    linked = {v for e in g.edges for v in e}
    lines.extend(v for v in g.vertices if v not in linked)
    return "\n".join(lines) + "\n"


def save_graph(path, dag) -> None:
    """Write ``dag`` as an edge-list file that ``io.load_graph`` reads."""
    Path(path).write_text(format_edge_list(dag))


def roles_dict(roles: RolePartition) -> dict:
    """The roles JSON object that ``RolePartition.from_dict`` reads back as ``roles``."""
    return {"x": roles.x, "y": roles.y,
            **{key: list(getattr(roles, key)) for key in ("z", "zbar", "s", "sbar")}}


def total_effect_by_path_enumeration(scm, x, y):
    """Sum of coefficient products over explicitly enumerated directed paths."""
    total = 0.0
    stack = [(x, 1.0)]
    while stack:
        vertex, prod = stack.pop()
        if vertex == y:
            total += prod
            continue
        for child in scm.dag.children(vertex):
            stack.append((child, prod * scm.coefficients[(vertex, child)]))
    return total


def population_covariance(scm, exogenous_block=None) -> np.ndarray:
    """Exact covariance of all the variables of ``scm``, ordered like ``dag.vertices``.

    Solves the structural composition v = W v + e in closed form.  For a DAG the
    system matrix I - W is unipotent, so it is never singular.
    """
    scm._check_block(exogenous_block)
    idx = {v: i for i, v in enumerate(scm.dag.vertices)}
    q = len(idx)
    w = np.zeros((q, q))
    for (tail, head), coef in scm.coefficients.items():
        w[idx[head], idx[tail]] = coef
    omega = np.diag([scm.error_variances[v] for v in scm.dag.vertices])
    if scm.correlated:
        cols = [idx[v] for v in scm.correlated]
        omega[np.ix_(cols, cols)] = exogenous_block.matrix
    inv = np.linalg.solve(np.eye(q) - w, np.eye(q))
    return inv @ omega @ inv.T


def sample_vertex_by_vertex(scm, n, rng, spec=None):
    """One sample of ``scm``, built a column at a time: the generator's (n, q) standard
    normals, the correlated block times its Cholesky factor, each other column scaled
    by its disturbance SD, then each vertex in topological order as its noise plus
    each parent's coefficient times that parent's column."""
    idx = {v: i for i, v in enumerate(scm.dag.vertices)}
    noise = rng.standard_normal((n, len(idx)))
    if scm.correlated:
        cols = [idx[v] for v in scm.correlated]
        noise[:, cols] = noise[:, cols] @ spec.cholesky_factor().T
    values = np.zeros_like(noise)
    for v in scm.dag.topological_order:
        col = noise[:, idx[v]] * (1.0 if v in scm.correlated
                                  else np.sqrt(scm.error_variances[v]))
        for parent in scm.dag.parents(v):
            col += scm.coefficients[(parent, v)] * values[:, idx[parent]]
        values[:, idx[v]] = col
    return values


# -- objective values of the penalized solvers -----------------------------------


def l1_objective(design, response, l1_weights, beta, l2_weights=None) -> float:
    """Penalized loss value on raw (design, response) arrays."""
    resid = response - design @ beta
    n = design.shape[0]
    value = 0.5 / n * float(resid @ resid) + float(np.abs(beta) @ np.asarray(l1_weights))
    if l2_weights is not None:
        value += 0.5 * float(np.asarray(l2_weights) @ (beta**2))
    return value


def ridge_objective(design, response, diag_weights, beta) -> float:
    """Quadratic loss matching ``solvers.ridge_solve`` (response may be a matrix)."""
    resid = np.asarray(response) - design @ beta
    n = design.shape[0]
    value = 0.5 / n * float(np.sum(resid * resid))
    d = np.asarray(diag_weights, dtype=float)
    value += 0.5 * float(np.sum(d[:, None] * np.asarray(beta).reshape(len(d), -1) ** 2))
    return value


# -- closed-form stationarity of pcm's stage-1 fits ------------------------------


def stacked(coefs) -> np.ndarray:
    """The blocks of a ``YModelCoefs`` as one vector in the ``RolePartition.y_regressors``
    order, or those of a ``MediatorCoefs`` as one matrix with its rows in the
    ``m_regressors`` order: the layout of the pilot grids and the stage-1 paths."""
    if isinstance(coefs, MediatorCoefs):
        return np.vstack([coefs.x_row[None, :], coefs.z_rows, coefs.zbar_rows])
    return np.concatenate([[coefs.beta_x], coefs.coef_s, coefs.coef_z, coefs.coef_sbar,
                           coefs.coef_zbar])


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
    ols, shrink = solvers.ols_solve(a.T @ a, rhs).T
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
    stage-1 solver reached a stationary point.  Raises ``SingularDesign`` if
    a restricted design needed by the relation is singular.
    """
    p = fit.params
    worst = _stationarity_gap(
        data, roles.y, roles.y_regressors,
        pcm._y_l1_weights(roles, fit.weights.sbar[None], fit.weights.zbar[None], [p.lambda1],
                          [(p.zeta1, p.xi1)])[0, 0, 0],
        stacked(fit.stage1_y),
    )
    ((act_roles, act_weights, *_),) = pcm._active_designs(roles, [stacked(fit.stage1_y)],
                                                          [fit.weights])
    m_l1 = pcm._m_l1_weights(len(act_roles.z), [act_weights.med], [p.rho1])[:, 0]
    for mediator, l1, coef in zip(act_roles.mediators, m_l1, stacked(fit.stage1_m).T):
        worst = max(worst, _stationarity_gap(data, mediator, act_roles.m_regressors, l1, coef))
    return worst


# -- cyclic coordinate descent with a feature-sign polish ----------------------


class SweepCapHit(Exception):
    """The reference descent ran out of sweeps."""


def _soft_threshold(value, threshold):
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _sweep(gram, resid, beta, n, l1, l2, order):
    """One pass of exact coordinate updates; returns max |change|."""
    max_change = 0.0
    for j in order:
        gjj = gram[j, j] + n * l2[j]
        if gjj <= 0.0:
            continue
        cj = resid[j] + gram[j, j] * beta[j]
        new = _soft_threshold(cj, n * l1[j]) / gjj
        change = new - beta[j]
        if change != 0.0:
            resid -= gram[:, j] * change
            beta[j] = new
            if abs(change) > max_change:
                max_change = abs(change)
    return max_change


def descent_with_polish(gram, cross, n, l1, l2=None, *, tol=1e-8, max_sweeps=100_000):
    """The weighted elastic-net fit by cyclic coordinate descent.

    Sweeps until no coefficient moves more than ``tol``, refining the current
    support between full sweeps, and after each sweep tries a feature-sign
    polish that is kept only when it certifies optimality.  Raises
    :class:`SweepCapHit` after ``max_sweeps`` sweeps.
    """
    p = gram.shape[0]
    l1 = np.asarray(l1, dtype=float)
    l2 = np.zeros(p) if l2 is None else np.asarray(l2, dtype=float)
    beta = np.zeros(p)
    if p == 0:
        return beta
    resid = np.array(cross, dtype=float)
    sweeps, inner_budget = 0, 100
    while sweeps < max_sweeps:
        change = _sweep(gram, resid, beta, n, l1, l2, np.arange(p))
        sweeps += 1
        if change < tol:
            break
        candidate = feature_sign_polish(gram, cross, n, l1, l2, beta)
        if candidate is not beta:
            return candidate
        inner_budget = min(2 * inner_budget, 5000)
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
        raise SweepCapHit(sweeps)
    return feature_sign_polish(gram, cross, n, l1, l2, beta)


def feature_sign_polish(gram, cross, n, l1, l2, beta0):
    """Feature-sign refinement seeded by the sweep iterate (Lee et al. 2007).

    Alternates admitting the worst zero-coordinate violation and solving the
    sign-restricted stationarity equalities with a zero-crossing line search.
    Returns ``beta0`` itself unless the result certifies optimality.
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

    for _ in range(max(50, 6 * p)):
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
        for _ in range(4 * p + 4):
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
    if solvers.kkt_residual(gram, cross, n, l1, beta, l2) <= 1e-9:
        return beta
    return beta0


# -- pcm cross-validation, one full refit per candidate and fold -------------

# The debiasing-ridge values the per-candidate search carried as one-value
# grid axes: they entered its rows and its tie key but never its score.
DEBIAS_AXES = {"lambda2": 0.01, "xi2": 0.5, "rho2": 0.01, "rho2_prime": 0.01}


def spans_training_rows(train, roles, weights, lam1, zeta1, xi1) -> bool:
    """Whether the outcome-model columns that (lam1, zeta1, xi1) leave with a zero L1
    weight are at least as many as the rows of ``train``: such a candidate
    interpolates its training outcome, and cross-validation scores it infinity."""
    l1 = np.concatenate([[lam1 * zeta1], np.zeros(len(roles.s) + len(roles.z)),
                         lam1 * xi1 * weights.sbar,
                         lam1 * max(0.0, 1.0 - zeta1 - xi1) * weights.zbar])
    return np.count_nonzero(l1 == 0.0) >= train.n


def brute_force_pcm_cv(data, roles, grid):
    """pcm cross-validation that refits the pilots, the weights and both
    stage-1 models for every candidate on every fold.

    Returns ``(table, chosen, score)`` with table rows ``(params, mean,
    fold_scores)``; the debiasing axes are dropped from the returned params.
    """
    rng = np.random.default_rng(grid.fold_seed)
    folds = [np.sort(part) for part in np.array_split(rng.permutation(data.n), grid.folds)]

    def score_mean(fit_predict):
        scores = []
        for i, test_rows in enumerate(folds):
            train_rows = np.concatenate([folds[j] for j in range(len(folds)) if j != i])
            try:
                scores.append(fit_predict(Dataset(data.values[train_rows], data.columns),
                                          Dataset(data.values[test_rows], data.columns)))
            except PcmSelectError:
                scores.append(float("inf"))
        return float(np.mean(scores)), tuple(scores)

    def y_error(test, coef):
        a = test.values[:, test.index_of(roles.y_regressors)]
        resid = test.column(roles.y) - a @ stacked(coef)
        return float(resid @ resid) / test.n

    def m_error(test, coef):
        q_m = len(roles.mediators)
        if q_m == 0:
            return 0.0
        a = test.values[:, test.index_of(roles.m_regressors)]
        resid = test.values[:, test.index_of(roles.mediators)] - a @ stacked(coef)
        return float(np.sum(resid * resid)) / (test.n * q_m)

    def stage1_score(train, test, cand):
        weights = adaptive_weights(ridge_pilot_y(train, roles, pilot_lam),
                                   ridge_pilot_m(train, roles, pilot_rho))
        if spans_training_rows(train, roles, weights, cand["lambda1"], cand["zeta1"],
                               cand["xi1"]):
            return float("inf")
        score = y_error(test, pcm_stage1_y(train, roles, weights, cand["lambda1"],
                                           cand["zeta1"], cand["xi1"]))
        if roles.mediators:
            score += m_error(test, pcm_stage1_m(train, roles, weights, cand["rho1"]))
        return score

    def select(rows, tie_key):
        return min(rows, key=lambda r: (r[1],) + tie_key(r[0]))

    lam_rows = [({"pilot_lambda": lam},
                 *score_mean(lambda tr, te, lam=lam: y_error(te, ridge_pilot_y(tr, roles, lam))))
                for lam in grid.pilot_lambda]
    pilot_lam = select(lam_rows, lambda p: (-p["pilot_lambda"],))[0]["pilot_lambda"]
    rho_rows = [({"pilot_rho": rho},
                 *score_mean(lambda tr, te, rho=rho: m_error(te, ridge_pilot_m(tr, roles, rho))))
                for rho in grid.pilot_rho]
    pilot_rho = select(rho_rows, lambda p: (-p["pilot_rho"],))[0]["pilot_rho"]
    rows = []
    for lam1, rho1, (zeta1, xi1) in product(grid.lambda1, grid.rho1, grid.zeta_xi):
        cand = {"lambda1": lam1, "rho1": rho1, "zeta1": zeta1, "xi1": xi1, **DEBIAS_AXES}
        rows.append((cand, *score_mean(lambda tr, te, c=cand: stage1_score(tr, te, c))))
    best = select(rows, lambda p: (-p["lambda1"], -p["rho1"], -p["lambda2"], -p["rho2"],
                                   -p["rho2_prime"], -p["zeta1"], -p["xi1"], -p["xi2"]))

    def scored(params):
        return {k: v for k, v in params.items() if k not in DEBIAS_AXES}

    table = lam_rows + rho_rows + [(scored(p), mean, fs) for p, mean, fs in rows]
    chosen = {"pilot_lambda": pilot_lam, "pilot_rho": pilot_rho, **scored(best[0])}
    return table, chosen, best[1]


def row_by_row_table_csv(result) -> str:
    """A CV score table as CSV, one row and one cell at a time."""
    keys = sorted({k for row in result.table for k in row.params})
    n_folds = max((len(row.fold_scores) for row in result.table), default=0)
    lines = [",".join(keys + ["mean_score"] + [f"fold_{i + 1}" for i in range(n_folds)])]
    for row in result.table:
        cells = [repr(row.params[k]) if k in row.params else "" for k in keys]
        cells += [repr(score) for score in (row.mean_score, *row.fold_scores)]
        cells += [""] * (n_folds - len(row.fold_scores))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
