import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pcmselect import baselines, pcm, solvers
from pcmselect.data import Dataset, RolePartition
from pcmselect.errors import ConfigInvalid, EmptyGrid, FoldTooSmall, PcmSelectError
from pcmselect.experiment import METHODS, experiment_roles
from pcmselect.pcm import (
    AdaptiveWeights,
    adaptive_weights,
    pcm_stage1_m_path,
    pcm_stage1_y,
    pcm_stage1_y_path,
    reciprocal_power_weights_stack,
    ridge_pilot_m,
    ridge_pilot_y,
)
from pcmselect.scm import build_experiment_scm
from pcmselect.solvers import coordinate_descent, ols_solve, ridge_solve
from pcmselect.tuning import (CvResult, CvRow, ParamGrid, _fold_indices, cross_validate,
                              cv_table_csv, default_log_grid)

from oracles import brute_force_pcm_cv, row_by_row_table_csv, spans_training_rows, stacked
from test_pcm import ROLES, random_instance

BASE_ROLES = RolePartition(x="X", y="Y", z=("Z1",), zbar=("Zb1", "Zb2"))


def small_grid(**kwargs):
    base = dict(
        pilot_lambda=(0.5,), pilot_rho=(0.5,),
        lambda1=(0.05,), rho1=(0.05,), zeta_xi=((0.3, 0.3),),
        lam=(0.05,), folds=4, fold_seed=7,
    )
    base.update(kwargs)
    return ParamGrid(**base)


class TestGridValidation:
    def test_mix_pairs_respect_the_simplex(self):
        for pair in ((0.8, 0.4), (0.5, 0.5 + 1e-10)):
            with pytest.raises(ValueError):
                ParamGrid(zeta_xi=(pair,))

    def test_from_dict_filters_product(self):
        grid = ParamGrid.from_dict({"zeta1": [0.0, 0.6], "xi1": [0.0, 0.6],
                                    "lambda1": [0.1], "folds": 3}, "pcm")
        assert (0.6, 0.6) not in grid.zeta_xi
        assert (0.6, 0.0) in grid.zeta_xi

    @pytest.mark.parametrize("keys", [("zeta1",), ("xi1",), ("zeta1", "xi1")])
    def test_zeta_xi_with_zeta1_or_xi1_is_rejected(self, keys):
        # either form of the (zeta1, xi1) pairs would be dropped without a message
        with pytest.raises(ConfigInvalid, match=f"got {', '.join(('zeta_xi', *keys))}$"):
            ParamGrid.from_dict({"zeta_xi": [[0.1, 0.2]], **{key: [0.5] for key in keys}}, "pcm")

    def test_negative_candidate_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid(lam=(-0.1,))

    def test_fold_count(self):
        with pytest.raises(ValueError):
            ParamGrid(folds=1)

    @pytest.mark.parametrize("key, value", [
        ("lam", "12"), ("pilot_lambda", "5"), ("eta", [True]), ("zeta1", [0.1, False]),
        ("zeta_xi", [["0.1", "0.2"]]), ("zeta_xi", [[True, False]]), ("zeta_xi", [[0.1]]),
        ("folds", True), ("fold_seed", True)])
    def test_strings_and_booleans_name_their_key(self, key, value):
        with pytest.raises(ConfigInvalid, match=key):
            ParamGrid.from_dict({key: value}, "pcm")

    @pytest.mark.parametrize("payload", [[["lam", [0.1]], ["folds", 3]], [], "lam", None])
    def test_a_grid_that_is_not_an_object_is_rejected(self, payload):
        # dict() would take a list of pairs as a grid
        with pytest.raises(ConfigInvalid, match="must be a JSON object"):
            ParamGrid.from_dict(payload, "lasso")

    @pytest.mark.parametrize("payload, method, unread", [
        ({"lambda1": [0.5], "folds": 3}, "lasso", "lambda1"),
        ({"lam": [0.5], "eta": [3.0]}, "elastic-net", "eta"),
        ({"lam": [0.5], "pilot_lambda": [1.0]}, "elastic-net", "pilot_lambda"),
        ({"lambda1": [0.1], "lam": [0.5], "eta": [1.0]}, "pcm", "eta, lam"),
        ({"lam": [0.5], "zeta1": [0.2], "xi1": [0.3]}, "pal1ma", "xi1, zeta1"),
    ])
    def test_keys_the_method_does_not_search_are_rejected(self, payload, method, unread):
        with pytest.raises(ConfigInvalid, match=f"^{method} does not search the grid key"
                                                f"\\(s\\) {unread}$"):
            ParamGrid.from_dict(payload, method)

    @pytest.mark.parametrize("payload, method, grid", [
        ({"zeta1": [0.0, 0.6], "xi1": [0.3], "folds": 3, "fold_seed": 2}, "pcm",
         ParamGrid(zeta_xi=((0.0, 0.3), (0.6, 0.3)), folds=3, fold_seed=2)),
        ({"zeta_xi": [[0.1, 0.2]], "lambda1": [0.1], "rho1": [0.2]}, "pcm",
         ParamGrid(zeta_xi=((0.1, 0.2),), lambda1=(0.1,), rho1=(0.2,))),
        ({"lam": [0.5], "phi": [0.5]}, "elastic-net", ParamGrid(lam=(0.5,), phi=(0.5,))),
        ({"lam": [0.5], "eta": [2.0], "pilot_lambda": [0.1]}, "adaptive-lasso",
         ParamGrid(lam=(0.5,), eta=(2.0,), pilot_lambda=(0.1,))),
        ({"lam": [0.5], "eta": [2.0], "pilot_lambda": [0.1]}, "pal1ma",
         ParamGrid(lam=(0.5,), eta=(2.0,), pilot_lambda=(0.1,))),
    ])
    def test_searched_keys_pass(self, payload, method, grid):
        assert ParamGrid.from_dict(payload, method) == grid

    def test_number_lists_and_tuples_pass(self):
        grid = ParamGrid.from_dict({"lam": list(np.logspace(-1, 0, 3)), "eta": (1, 2.5)},
                                   "adaptive-lasso")
        assert grid.lam == tuple(np.logspace(-1, 0, 3).tolist()) and grid.eta == (1.0, 2.5)


class TestCrossValidate:
    def test_single_candidate_grid(self):
        ds = random_instance(60, n=60)
        result = cross_validate(ds, BASE_ROLES, "lasso", small_grid())
        assert result.chosen == {"lam": 0.05}
        assert np.isfinite(result.score)

    def test_exact_model_wins_at_zero_noise(self):
        rng = np.random.default_rng(61)
        z = rng.standard_normal(60)
        zb = rng.standard_normal((60, 2))
        x = rng.standard_normal(60)
        y = 0.7 * x + 0.5 * z + zb @ [0.4, -0.3]  # exactly linear
        ds = Dataset(np.column_stack([x, y, z, zb]), ("X", "Y", "Z1", "Zb1", "Zb2"))
        result = cross_validate(ds, BASE_ROLES, "lasso", small_grid(lam=(0.0, 5.0)))
        assert result.chosen["lam"] == 0.0
        assert result.score == pytest.approx(0.0, abs=1e-18)

    def test_deterministic_given_seed(self):
        ds = random_instance(62, n=50)
        grid = small_grid(lam=(0.01, 0.1, 1.0))
        a = cross_validate(ds, BASE_ROLES, "lasso", grid)
        b = cross_validate(ds, BASE_ROLES, "lasso", grid)
        assert a.chosen == b.chosen
        assert a.table == b.table

    def test_selection_invariant_to_grid_order(self):
        ds = random_instance(63, n=50)
        fwd = cross_validate(ds, BASE_ROLES, "lasso", small_grid(lam=(0.01, 0.1, 1.0)))
        rev = cross_validate(ds, BASE_ROLES, "lasso", small_grid(lam=(1.0, 0.1, 0.01)))
        assert fwd.chosen == rev.chosen
        assert fwd.score == rev.score

    def test_ties_break_toward_larger_penalty(self):
        rng = np.random.default_rng(64)
        z = rng.standard_normal(40)
        zb = rng.standard_normal((40, 2))
        x = rng.standard_normal(40)
        y = 0.5 * x + 0.5 * z  # candidates carry nothing
        ds = Dataset(np.column_stack([x, y, z, zb]), ("X", "Y", "Z1", "Zb1", "Zb2"))
        # pal1ma at zero noise: any penalty that removes the candidates scores 0
        result = cross_validate(ds, BASE_ROLES, "pal1ma",
                                small_grid(lam=(3.0, 7.0), pilot_lambda=(0.5,)))
        assert result.chosen["lam"] == 7.0

    def test_leave_one_out_matches_brute_force(self):
        rng = np.random.default_rng(65)
        n = 12
        z = rng.standard_normal(n)
        zb = rng.standard_normal((n, 2))
        x = rng.standard_normal(n)
        y = 0.7 * x + 0.2 * z + zb @ [0.1, 0.2] + rng.standard_normal(n) * 0.3
        ds = Dataset(np.column_stack([x, y, z, zb]), ("X", "Y", "Z1", "Zb1", "Zb2"))
        grid = small_grid(lam=(0.0,), folds=n, fold_seed=3)
        result = cross_validate(ds, BASE_ROLES, "lasso", grid)
        cols = ds.index_of(["X", "Z1", "Zb1", "Zb2"])
        scores = []
        for i in range(n):
            keep = [j for j in range(n) if j != i]
            a, yy = ds.values[np.ix_(keep, cols)], ds.values[keep, 1]
            beta = np.linalg.solve(a.T @ a, a.T @ yy)
            resid = ds.values[i, cols] @ beta - ds.values[i, 1]
            scores.append(float(resid**2))
        assert result.score == pytest.approx(np.mean(scores), abs=1e-10)

    def test_pcm_two_phase_selection(self):
        ds = random_instance(66, n=60)
        grid = small_grid(
            pilot_lambda=(0.1, 1.0), pilot_rho=(0.1, 1.0),
            lambda1=(0.01, 0.2), rho1=(0.05,), zeta_xi=((0.2, 0.2), (0.0, 0.0)),
        )
        result = cross_validate(ds, ROLES, "pcm", grid)
        assert set(result.chosen) == {"pilot_lambda", "pilot_rho", "lambda1", "rho1",
                                      "zeta1", "xi1"}
        assert np.isfinite(result.score)

    def test_pal1ma_scores_its_own_stage1_fit(self):
        # ROLES has mediators; pal1ma's pilot and stage 1 must ignore them
        ds = random_instance(70, n=60)
        lam, pilot = 0.05, 0.5
        grid = small_grid(lam=(lam,), pilot_lambda=(pilot,))
        result = cross_validate(ds, ROLES, "pal1ma", grid)
        base = RolePartition(x="X", y="Y", z=ROLES.z, zbar=ROLES.zbar)
        cols = ["X", *ROLES.z, *ROLES.zbar]
        folds = _fold_indices(ds.n, grid.folds, grid.fold_seed)
        expected = []
        for i, test_rows in enumerate(folds):
            train_rows = np.concatenate([f for j, f in enumerate(folds) if j != i])
            train = Dataset(ds.values[train_rows], ds.columns)
            weights = adaptive_weights(ridge_pilot_y(train, base, pilot),
                                       ridge_pilot_m(train, base, pilot))
            beta = stacked(pcm_stage1_y(train, base, weights, lam, 0.0, 0.0))
            test = ds.values[test_rows]
            resid = test[:, ds.index_of(["Y"])[0]] - test[:, ds.index_of(cols)] @ beta
            expected.append(float(resid @ resid) / len(test_rows))
        np.testing.assert_allclose(result.table[0].fold_scores, expected, rtol=1e-12)

    def test_empty_grid_and_small_folds(self):
        ds = random_instance(67, n=30)
        with pytest.raises(EmptyGrid):
            cross_validate(ds, BASE_ROLES, "lasso", small_grid(lam=()))
        with pytest.raises(FoldTooSmall):
            cross_validate(ds, BASE_ROLES, "lasso", small_grid(folds=31))

    def test_unknown_method(self):
        ds = random_instance(68, n=30)
        for method in ("ols", "adaptive_lasso", "elastic_net", "backdoor"):
            with pytest.raises(ValueError):
                cross_validate(ds, BASE_ROLES, method, small_grid())


def setting_a_sample(rep, n=15):
    """Replication ``rep`` of the seed-0 setting-A run, standardized."""
    children = np.random.SeedSequence(0).spawn(13)
    scm, spec, _ = build_experiment_scm("A", np.random.default_rng(children[0]))
    roles = experiment_roles("A")
    raw = scm.sample(n, np.random.default_rng(children[rep]), spec)
    observed = roles.required_columns()
    return Dataset(raw[:, [scm.dag.vertices.index(c) for c in observed]],
                   observed).standardized(), roles


def search_case(name):
    """(data, roles, grid) of one separated-search check."""
    if name == "n > p with mediators":
        return random_instance(72, n=60), ROLES, small_grid(
            pilot_lambda=(0.1, 1.0), pilot_rho=(0.1, 1.0), lambda1=(0.01, 0.2, 1.0),
            rho1=(0.05, 0.5), zeta_xi=((0.2, 0.2), (0.0, 0.0), (0.8, 0.2)))
    if name == "p >= n, failing stage-1 fits":
        ds, roles = setting_a_sample(6)
        return ds, roles, small_grid(
            pilot_lambda=(0.01, 1.0), pilot_rho=(0.01, 1.0), lambda1=(0.001, 0.1, 10.0),
            rho1=(0.001, 1.0), zeta_xi=((0.2, 0.3), (0.0, 0.0), (0.8, 0.2)), folds=5,
            fold_seed=0)
    if name.startswith("unsorted, zero and repeated candidates"):
        # a zero penalty is solved on its own; the paths run to the smallest positive one.
        # -0.0 and 0.0 are equal candidates: their rows share the fits of the one kept
        # as distinct, tie, and the first in grid order is chosen (rho1 = -0.0)
        ds, roles = (random_instance(72, n=60), ROLES) if name.endswith("n > p") \
            else setting_a_sample(6)
        return ds, roles, small_grid(
            pilot_lambda=(0.1, 1.0), pilot_rho=(0.1, 1.0), lambda1=(0.1, 0.0, -0.0, 1.0, 0.1),
            rho1=(0.5, -0.0, 0.0), zeta_xi=((0.2, 0.3), (0.0, 0.0), (0.8, 0.2)), folds=5,
            fold_seed=0)
    if name == "p >= n, failing pilots":
        # every row scores inf, so the tie key alone picks the row
        return random_instance(71, n=8), ROLES, small_grid(
            pilot_lambda=(0.0,), lambda1=(0.01, 0.3), rho1=(0.0, 0.2),
            zeta_xi=((0.2, 0.6), (0.8, 0.2), (0.0, 0.0)), fold_seed=1)
    return random_instance(73, n=40), BASE_ROLES, small_grid(
        pilot_lambda=(0.1, 1.0), pilot_rho=(0.1, 1.0), lambda1=(0.01, 0.2),
        rho1=(0.05, 0.5), zeta_xi=((0.2, 0.2), (0.0, 0.0)))


class TestSeparatedSearch:
    @pytest.mark.parametrize("name", ["n > p with mediators", "p >= n, failing stage-1 fits",
                                      "p >= n, failing pilots", "no mediators",
                                      "unsorted, zero and repeated candidates, n > p",
                                      "unsorted, zero and repeated candidates, p >= n"])
    def test_equals_the_per_candidate_search(self, name):
        ds, roles, grid = search_case(name)
        result = cross_validate(ds, roles, "pcm", grid)
        table, chosen, score = brute_force_pcm_cv(ds, roles, grid)
        assert [(r.params, r.mean_score, r.fold_scores) for r in result.table] == table
        # repr tells -0.0 from 0.0
        assert repr(result.chosen) == repr(chosen)
        assert result.score == score
        stage = [s for r in result.table if "lambda1" in r.params for s in r.fold_scores]
        if name.startswith("p >= n"):
            assert np.inf in stage
        if name != "p >= n, failing pilots":
            assert np.isfinite(result.score)


def fold_by_fold_pcm_cv(data, roles, grid):
    """pcm cross-validation one fold at a time: each fold's pilots, its one-fold
    stage-1 path calls, and each candidate's held-out error on its own.

    Returns the table as ``(params, mean, fold_scores)`` rows, the chosen
    parameters and the score, as ``cross_validate`` orders them.
    """
    folds = _fold_indices(data.n, grid.folds, grid.fold_seed)
    splits = [(Dataset(data.values[np.concatenate(folds[:i] + folds[i + 1:])], data.columns),
               Dataset(data.values[rows], data.columns)) for i, rows in enumerate(folds)]

    def y_error(test, beta):
        a = test.values[:, test.index_of(roles.y_regressors)]
        resid = test.column(roles.y) - a @ beta
        return float(resid @ resid) / test.n

    def m_error(test, coef):
        if not roles.mediators:
            return 0.0
        if isinstance(coef, PcmSelectError):
            return np.inf
        a = test.values[:, test.index_of(roles.m_regressors)]
        resid = test.values[:, test.index_of(roles.mediators)] - a @ coef
        return float(np.sum(resid * resid)) / resid.size

    def or_inf(score):
        try:
            return score()
        except PcmSelectError:
            return np.inf

    def rows_of(params, per_fold):
        return [(p, float(np.mean(scores)), tuple(scores)) for p, scores in zip(params, per_fold)]

    def best(rows, keys):
        return min(rows, key=lambda r: (r[1],) + tuple(-r[0][k] for k in keys))

    lam_rows = rows_of([{"pilot_lambda": v} for v in grid.pilot_lambda], [
        [or_inf(lambda: y_error(te, stacked(ridge_pilot_y(tr, roles, v)))) for tr, te in splits]
        for v in grid.pilot_lambda])
    rho_rows = rows_of([{"pilot_rho": v} for v in grid.pilot_rho], [
        [or_inf(lambda: m_error(te, stacked(ridge_pilot_m(tr, roles, v))))
         for tr, te in splits] for v in grid.pilot_rho])
    pilot_lam = best(lam_rows, ["pilot_lambda"])[0]["pilot_lambda"]
    pilot_rho = best(rho_rows, ["pilot_rho"])[0]["pilot_rho"]
    lams, rhos = sorted(set(grid.lambda1), reverse=True), sorted(set(grid.rho1), reverse=True)
    pairs = list(dict.fromkeys(grid.zeta_xi))
    cands = list(itertools.product(grid.lambda1, grid.rho1, grid.zeta_xi))
    per_fold = []
    for tr, te in splits:
        try:
            weights = adaptive_weights(ridge_pilot_y(tr, roles, pilot_lam),
                                       ridge_pilot_m(tr, roles, pilot_rho))
        except PcmSelectError:
            per_fold.append([np.inf] * len(cands))
            continue
        (y_lanes,) = pcm_stage1_y_path([(tr, weights)], roles, lams, pairs)
        (m_coefs,) = pcm_stage1_m_path([(tr, roles, weights)], rhos)
        y_errs = {(lam1, pair): or_inf(lambda: y_error(te, _raise(fit)))
                  for pair, lane in zip(pairs, y_lanes) for lam1, fit in zip(lams, lane)}
        m_errs = {rho1: m_error(te, coef) for rho1, coef in zip(rhos, m_coefs)}
        per_fold.append([np.inf if spans_training_rows(tr, roles, weights, lam1, *pair) else
                         y_errs[lam1, pair] + m_errs[rho1] for lam1, rho1, pair in cands])
    rows = rows_of([{"lambda1": l, "rho1": r, "zeta1": z, "xi1": x} for l, r, (z, x) in cands],
                   list(zip(*per_fold)))
    chosen = best(rows, ["lambda1", "rho1", "zeta1", "xi1"])
    return (lam_rows + rho_rows + rows, {"pilot_lambda": pilot_lam, "pilot_rho": pilot_rho,
                                         **chosen[0]}, chosen[1])


def _raise(fit):
    if isinstance(fit, PcmSelectError):
        raise fit
    return fit


def merge_case(name):
    """(data, roles, grid) of one check of the merged folds against fold by fold."""
    logs = list(np.logspace(-3, 2, 13))
    if name == "n=16, unequal folds":
        return random_instance(74, n=16), ROLES, small_grid(
            pilot_lambda=logs[::3], pilot_rho=logs[::3], lambda1=logs[::2], rho1=logs[::3],
            zeta_xi=((0.2, 0.3), (0.0, 0.0), (0.8, 0.2)), folds=5)
    if name == "setting A, n=15":
        ds, roles = setting_a_sample(3)
        return ds, roles, small_grid(
            pilot_lambda=logs[::2], pilot_rho=logs[::2], lambda1=logs, rho1=logs[::3],
            zeta_xi=((0.0, 0.0), (0.2, 0.3), (0.4, 0.6), (0.0, 1.0)), folds=5, fold_seed=0)
    if name == "failing fold pilots":
        # 22 rows in 5 folds train on 17 or 18 rows: the least-squares outcome
        # pilot on setting A's 18 regressors fails on the 17-row folds only
        ds, roles = setting_a_sample(2, n=22)
        return ds, roles, small_grid(
            pilot_lambda=(0.0,), pilot_rho=(0.0, 0.1), lambda1=logs[::2], rho1=logs[::4],
            zeta_xi=((0.2, 0.3), (0.0, 0.0)), folds=5, fold_seed=0)
    # zero pilot and rho1 candidates: least-squares pilots and unpenalized mediator fits
    return random_instance(75, n=40), ROLES, small_grid(
        pilot_lambda=(0.0, 0.1, 1.0), pilot_rho=(1.0, 0.0), lambda1=(1.0, 0.1, 0.0, 0.01),
        rho1=(0.0, 0.3), zeta_xi=((0.2, 0.3), (0.0, 0.0)), folds=5)


class TestMergedFolds:
    @pytest.mark.parametrize("name", ["n=16, unequal folds", "setting A, n=15",
                                      "failing fold pilots", "zero pilot and rho1 candidates"])
    def test_equals_the_fold_by_fold_search(self, name):
        # every fold's stage-1 lanes go into one L1 path call per model; the
        # table must be the one of one-fold calls, byte for byte
        ds, roles, grid = merge_case(name)
        result = cross_validate(ds, roles, "pcm", grid)
        table, chosen, score = fold_by_fold_pcm_cv(ds, roles, grid)
        assert [(r.params, r.mean_score, r.fold_scores) for r in result.table] == table
        assert result.chosen == chosen and result.score == score
        stage = [r.fold_scores for r in result.table if "lambda1" in r.params]
        if name == "failing fold pilots":
            failed = [all(np.isinf(s) for s in fold) for fold in zip(*stage)]
            assert 0 < sum(failed) < len(failed)
            assert all(np.isfinite(fold).any() for fold, out in zip(zip(*stage), failed)
                       if not out)
        if name == "n=16, unequal folds":
            assert len({len(f) for f in _fold_indices(16, 5, grid.fold_seed)}) == 2


def fold_by_fold_baseline_cv(data, roles, name, grid):
    """A penalized baseline's cross-validation one fold and one candidate at a time:
    each pilot value's ridge fit alone, then each candidate's fit alone on its fold
    with the chosen pilot, and each held-out error on its own.

    Returns the table as ``(params, mean, fold_scores)`` rows, the chosen
    parameters and the score, as ``cross_validate`` orders them.
    """
    folds = _fold_indices(data.n, grid.folds, grid.fold_seed)
    splits = [(Dataset(data.values[np.concatenate(folds[:i] + folds[i + 1:])], data.columns),
               Dataset(data.values[rows], data.columns)) for i, rows in enumerate(folds)]
    bare = replace(roles, s=(), sbar=())
    cols = [roles.x, *roles.covariates]
    keys = {"lasso": ("lam",), "adaptive-lasso": ("lam", "eta"), "elastic-net": ("lam", "phi"),
            "pal1ma": ("lam", "eta")}[name]
    adaptive = name in ("adaptive-lasso", "pal1ma")

    def moments(train):
        return train.cross(cols, cols), train.cross(cols, [roles.y])[:, 0], train.n

    def pilot(train, value):
        if name == "pal1ma":
            return stacked(ridge_pilot_y(train, bare, value))
        if value == 0.0:  # least squares, with its rank guard
            return ols_solve(*moments(train)[:2])
        return ridge_solve(*moments(train), np.full(len(cols), value))

    def fit(train, pilot_beta, lam, eta=1.0, phi=1.0):
        _raise(pilot_beta)
        if name == "pal1ma":
            (zbar,), _ = reciprocal_power_weights_stack(pilot_beta[None, 1 + len(roles.z):],
                                                        eta=eta)
            weights = AdaptiveWeights(np.zeros(0), zbar, np.zeros((len(roles.zbar), 0)))
            return stacked(pcm_stage1_y(train, bare, weights, lam, 0.0, 0.0))
        w = (np.ones(len(cols)) if pilot_beta is None
             else reciprocal_power_weights_stack(pilot_beta[None], eta=eta,
                                                 normalize=False)[0][0])
        return coordinate_descent(*moments(train), lam * phi * w, np.full(len(cols), lam * (1 - phi)))

    def error(test, beta):
        resid = test.column(roles.y) - test.values[:, test.index_of(cols)] @ beta
        return float(resid @ resid) / test.n

    def or_inf(score):
        try:
            return score()
        except PcmSelectError:
            return np.inf

    def or_error(fit):
        try:
            return fit()
        except PcmSelectError as exc:
            return exc

    def rows_of(params, per_fold):
        return [(p, float(np.mean(scores)), tuple(scores)) for p, scores in zip(params, per_fold)]

    pilots = [None] * len(splits)
    suffix = {}
    if adaptive:
        lam_rows = rows_of([{"pilot_lambda": v} for v in grid.pilot_lambda], [
            [or_inf(lambda: error(te, pilot(tr, v))) for tr, te in splits]
            for v in grid.pilot_lambda])
        best = min(lam_rows, key=lambda r: (r[1], -r[0]["pilot_lambda"]))
        suffix = {"pilot_lam": best[0]["pilot_lambda"]}
        pilots = [or_error(lambda: pilot(tr, suffix["pilot_lam"])) for tr, _ in splits]
    cands = [dict(zip(keys, combo)) for combo in itertools.product(*(getattr(grid, k)
                                                                       for k in keys))]
    rows = rows_of([{**cand, **suffix} for cand in cands], [
        [or_inf(lambda: error(te, fit(tr, beta, **cand))) for (tr, te), beta in zip(splits, pilots)]
        for cand in cands])
    best = min(rows, key=lambda r: (r[1], -r[0]["lam"], -r[0].get("eta", 0.0),
                                    -r[0].get("phi", 0.0)))
    return rows, best[0], best[1]


def baseline_case(name):
    """(data, roles, grid) of one check of baseline CV against fold by fold."""
    logs = list(np.logspace(-3, 2, 13))
    if name == "setting A, n=14":
        # p >= n: the training sets have 11 or 12 rows for 12 regressors, and some
        # zero-penalty fits fail
        ds, roles = setting_a_sample(1, n=14)
        return ds, roles, small_grid(lam=[0.0] + logs, eta=(0.5, 1.0, 2.0), phi=(0.5, 0.9, 1.0),
                                     pilot_lambda=logs[::3], folds=5, fold_seed=0)
    if name == "setting A, n=14, failing pilots":
        # the least-squares pilot fails on the four 11-row training sets
        ds, roles = setting_a_sample(1, n=14)
        return ds, roles, small_grid(lam=[0.0] + logs, eta=(0.5, 1.0, 2.0), phi=(0.5, 0.9, 1.0),
                                     pilot_lambda=(0.0,), folds=5, fold_seed=0)
    if name == "mediators, unequal folds":
        return random_instance(76, n=17), ROLES, small_grid(
            lam=(1.0, 0.0, 0.05, 0.3, 0.05), eta=(2.0, 0.5), phi=(0.3, 1.0),
            pilot_lambda=(1.0, 0.01, 0.3), folds=5)
    return random_instance(77, n=40), BASE_ROLES, small_grid(
        lam=logs[::2], eta=(1.0, 0.1), phi=(0.9, 0.5), pilot_lambda=logs[1::4], folds=4)


class TestBaselineFolds:
    @pytest.mark.parametrize("case", ["setting A, n=14", "setting A, n=14, failing pilots",
                                      "mediators, unequal folds", "n > p"])
    @pytest.mark.parametrize("name", ["lasso", "adaptive-lasso", "elastic-net", "pal1ma"])
    def test_equals_the_fold_by_fold_search(self, name, case):
        # the table, the chosen parameters and the score must be those of one fit
        # per fold and candidate, byte for byte
        ds, roles, grid = baseline_case(case)
        result = cross_validate(ds, roles, name, grid)
        table, chosen, score = fold_by_fold_baseline_cv(ds, roles, name, grid)
        assert [(r.params, r.mean_score, r.fold_scores) for r in result.table] == table
        assert result.chosen == chosen and result.score == score
        folds = list(zip(*(row.fold_scores for row in result.table)))
        if case.endswith("failing pilots") and METHODS[name].pilot:
            # a fold whose pilot failed scores inf on every candidate
            failed = [all(np.isinf(s) for s in fold) for fold in folds]
            assert failed == [True] * 4 + [False]
            assert np.isfinite(folds[-1]).any()
        else:
            assert np.isfinite(score)
        if case.startswith("setting A, n=14"):
            # some fold fits fail, and score inf there
            assert any(np.isinf(s) for fold in folds for s in fold)


def count_calls(monkeypatch, name, modules, size) -> list:
    """Install a wrapper of the function ``name`` of ``solvers`` on each of
    ``modules``; the list gets ``size(*args)`` for each call."""
    calls, original = [], getattr(solvers, name)

    def counted(*args, **kwargs):
        calls.append(size(*args))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestCallCounts:
    @pytest.mark.parametrize("name", ["lasso", "adaptive-lasso", "elastic-net", "pal1ma"])
    def test_a_baseline_tune_fits_its_pilot_grid_once(self, name, monkeypatch):
        # 5 folds and 13 lam values: one ridge_grid call of 15 systems for 3 pilot
        # values, and one L1 path call on all 5 folds per eta value, or per phi
        # value and distinct quadratic weight lam * (1 - phi): 13 + 13 + 1 for phi
        other, ridge_calls, path_calls = {
            "lasso": ({}, [], 1), "adaptive-lasso": ({"eta": (0.5, 1.0, 2.0)}, [15], 3),
            "elastic-net": ({"phi": (0.5, 0.9, 1.0)}, [], 27),
            "pal1ma": ({"eta": (0.5, 1.0, 2.0)}, [15], 3)}[name]
        ds, roles = setting_a_sample(1, n=100)
        grid = small_grid(lam=default_log_grid(), pilot_lambda=(0.1, 1.0, 10.0), folds=5,
                          **other)
        ridges = count_calls(monkeypatch, "ridge_grid", (pcm,),
                             lambda gram, cross, n, pen, scales: len(gram) * len(scales))
        paths = count_calls(monkeypatch, "l1_path", (baselines, pcm), lambda grams, *_: len(grams))
        solves = count_calls(monkeypatch, "ridge_solve", (solvers,), lambda *_: 1)
        result = cross_validate(ds, roles, name, grid)
        assert len(result.table) == 13 * max(map(len, other.values()), default=1)
        assert ridges == ridge_calls and paths == [5] * path_calls and solves == []

    def test_a_pcm_tune_fits_each_pilot_grid_once(self, monkeypatch):
        # one pilot-grid call per kind over every fold; stage 1 reuses the chosen fits
        ds, roles = setting_a_sample(1, n=100)
        grid = small_grid(pilot_lambda=(0.1, 1.0, 10.0), pilot_rho=(0.5, 5.0),
                          lambda1=(0.01, 0.1), rho1=(0.05, 0.5), folds=5)
        ridges = count_calls(monkeypatch, "ridge_grid", (pcm,),
                             lambda gram, cross, n, pen, scales: len(gram) * len(scales))
        refits = count_calls(monkeypatch, "ridge_solve", (solvers,), lambda *_: 1)
        for pilot in ("ridge_pilot_y", "ridge_pilot_m"):
            monkeypatch.setattr(pcm, pilot, None)
        result = cross_validate(ds, roles, "pcm", grid)
        assert np.isfinite(result.score)
        assert ridges == [15, 10] and refits == []


class TestTableExport:
    def test_hand_written_table(self):
        lam, zero = 0.25, -0.0
        rows = (
            CvRow({"pilot_lambda": 3.5}, 0.5, (0.25, 0.75)),  # a pilot row: other keys empty
            CvRow({"pilot_lambda": 3.5}, math.inf, (math.inf, 1.0)),
            CvRow({"lambda1": lam, "rho1": zero}, 0.125, (0.1, 0.15, 1e-05)),
            CvRow({"lambda1": lam, "rho1": 0.0}, 0.125, (0.1, 0.15, 1e-05)),
            CvRow({"lambda1": 1, "rho1": 1.0}, -math.inf, (-math.inf,)),
        )
        text = cv_table_csv(CvResult({}, 0.125, rows))
        assert text == (
            "lambda1,pilot_lambda,rho1,mean_score,fold_1,fold_2,fold_3\n"
            ",3.5,,0.5,0.25,0.75,\n"
            ",3.5,,inf,inf,1.0,\n"
            "0.25,,-0.0,0.125,0.1,0.15,1e-05\n"
            "0.25,,0.0,0.125,0.1,0.15,1e-05\n"
            "1,,1.0,-inf,-inf,,\n"
        )
        assert cv_table_csv(CvResult({}, math.nan, ())) == "mean_score\n"

    def test_blocks_match_a_row_by_row_rendering(self):
        # rows past several blocks, with missing keys, ragged fold counts, the widest
        # rows in one stretch only, and grid values shared between rows
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, 0.1, 1e-05, 3.0, 123456.789, math.inf]
        keys = ["lambda1", "rho1", "zeta1", "pilot_lambda"]
        rows = []
        for i in range(3000):
            present = [k for k in keys if rng.random() < 0.7]
            folds = 7 if 1000 <= i < 1100 else int(rng.integers(0, 6))
            rows.append(CvRow({k: values[rng.integers(len(values))] for k in present},
                              float(rng.standard_normal()),
                              tuple(rng.standard_normal(folds).tolist())))
        result = CvResult({}, 0.0, tuple(rows))
        text = cv_table_csv(result)
        assert text == row_by_row_table_csv(result)
        tracemalloc.start()
        try:
            cv_table_csv(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_csv_shape(self):
        ds = random_instance(69, n=40)
        result = cross_validate(ds, BASE_ROLES, "lasso", small_grid(lam=(0.01, 0.1)))
        text = cv_table_csv(result)
        lines = text.strip().splitlines()
        assert lines[0].startswith("lam,mean_score,fold_1")
        assert len(lines) == 3


class TestInterpolatingCandidates:
    """A pcm candidate whose unpenalized outcome-model columns are at least as many
    as a fold's training rows scores infinity on that fold."""

    GRID = dict(pilot_lambda=(1.0,), pilot_rho=(1.0,), lambda1=(0.05,), rho1=(0.1,),
                zeta_xi=((0.3, 0.7), (0.6, 0.4), (0.3, 0.3)), folds=5, fold_seed=0)

    def scores(self, roles):
        ds, _ = setting_a_sample(4)
        result = cross_validate(ds, roles, "pcm", ParamGrid(**self.GRID))
        return {(row.params["zeta1"], row.params["xi1"]): row.fold_scores
                for row in result.table if "lambda1" in row.params}

    def test_a_block_as_wide_as_the_training_rows_scores_inf_on_every_fold(self):
        # n=15 in 5 folds trains on 12 rows; with zeta1 + xi1 = 1 the candidate
        # covariates are unpenalized, and with S and Z they are 12 columns
        roles = experiment_roles("A")
        assert len(roles.s) + len(roles.z) + len(roles.zbar) == 12
        scores = self.scores(roles)
        assert scores[0.3, 0.7] == scores[0.6, 0.4] == (math.inf,) * 5
        assert all(math.isfinite(s) for s in scores[0.3, 0.3])

    def test_one_fewer_unpenalized_column_keeps_a_finite_score(self):
        roles = experiment_roles("A")
        roles = replace(roles, zbar=roles.zbar[:-1])
        scores = self.scores(roles)
        assert all(math.isfinite(s) for pair in scores for s in scores[pair])

    def test_the_wide_rows_are_those_that_leave_their_block_unpenalized(self):
        # lambda1 = 0 leaves all 18 columns unpenalized; zeta1 = 0 adds the treatment
        # and xi1 = 0 the 5 candidate mediators to the fixed S and Z
        ds, roles = setting_a_sample(4)
        grid = ParamGrid(**{**self.GRID, "lambda1": (0.0, 0.05),
                            "zeta_xi": ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0))})
        for row in cross_validate(ds, roles, "pcm", grid).table:
            if "lambda1" in row.params:
                wide = row.params["lambda1"] == 0.0
                assert (row.fold_scores == (math.inf,) * 5) == wide, row.params
