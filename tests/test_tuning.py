import numpy as np
import pytest

from pcmselect.data import Dataset, RolePartition
from pcmselect.errors import EmptyGrid, FoldTooSmall
from pcmselect.experiment import experiment_roles
from pcmselect.pcm import PilotEstimates, adaptive_weights, pcm_stage1_y, ridge_pilot_m, ridge_pilot_y
from pcmselect.scm import build_experiment_scm
from pcmselect.tuning import ParamGrid, _fold_indices, cross_validate, cv_table_csv

from oracles import brute_force_pcm_cv
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
                                    "lambda1": [0.1], "folds": 3})
        assert (0.6, 0.6) not in grid.zeta_xi
        assert (0.6, 0.0) in grid.zeta_xi

    def test_negative_candidate_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid(lam=(-0.1,))

    def test_fold_count(self):
        with pytest.raises(ValueError):
            ParamGrid(folds=1)


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
            weights = adaptive_weights(PilotEstimates(
                y=ridge_pilot_y(train, base, pilot), m=ridge_pilot_m(train, base, pilot)))
            beta = pcm_stage1_y(train, base, weights, lam, 0.0, 0.0).stacked()
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
        # a zero penalty is solved on its own; the paths run to the smallest positive one
        ds, roles = (random_instance(72, n=60), ROLES) if name.endswith("n > p") \
            else setting_a_sample(6)
        return ds, roles, small_grid(
            pilot_lambda=(0.1, 1.0), pilot_rho=(0.1, 1.0), lambda1=(0.1, 0.0, 1.0, 0.1),
            rho1=(0.5, 0.0), zeta_xi=((0.2, 0.3), (0.0, 0.0), (0.8, 0.2)), folds=5,
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
        assert result.chosen == chosen
        assert result.score == score
        stage = [s for r in result.table if "lambda1" in r.params for s in r.fold_scores]
        if name.startswith("p >= n"):
            assert np.inf in stage
        if name != "p >= n, failing pilots":
            assert np.isfinite(result.score)


class TestTableExport:
    def test_csv_shape(self):
        ds = random_instance(69, n=40)
        result = cross_validate(ds, BASE_ROLES, "lasso", small_grid(lam=(0.01, 0.1)))
        text = cv_table_csv(result)
        lines = text.strip().splitlines()
        assert lines[0].startswith("lam,mean_score,fold_1")
        assert len(lines) == 3
