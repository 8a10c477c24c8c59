import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from pcmselect.baselines import (back_door_estimate, back_door_estimates, baseline_penalized,
                                 front_door_like_estimate, front_door_like_estimates)
from pcmselect.data import Dataset, RolePartition
from pcmselect.errors import DecompositionFailure, PcmSelectError, SingularDesign
from pcmselect.pcm import (
    AdaptiveWeights,
    PcmParams,
    MediatorCoefs,
    YModelCoefs,
    adaptive_weights,
    debias_ridges,
    pcm_correct,
    pcm_stage1_m,
    pcm_stage1_m_path,
    pcm_fits,
    pcm_stage1_y,
    pcm_total_effect,
    ridge_pilot_m,
    ridge_pilot_m_grid,
    ridge_pilot_y,
    ridge_pilot_y_grid,
)
from pcmselect.experiment import METHODS, PRESETS, experiment_roles
from pcmselect.scm import LinearScm, build_experiment_scm
from pcmselect.graphs import Dag
from pcmselect import baselines, pcm, solvers
from pcmselect.pcm import ETA_MAX, WEIGHT_FLOOR, reciprocal_power_weights_stack
from pcmselect.solvers import kkt_residual, ols_batch, ols_solve

from oracles import l1_objective, ridge_objective, stacked, verify_active_set_relation

ROLES = RolePartition(
    x="X", y="Y", z=("Z1",), zbar=("Zb1", "Zb2"), s=("S1",), sbar=("Sb1", "Sb2")
)
COLS = ("X", "Y", "S1", "Sb1", "Sb2", "Z1", "Zb1", "Zb2")


def random_instance(seed, n=200, noise=0.7):
    """Standardized dataset with genuine confounding and mediation structure."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    zb = 0.4 * z1[:, None] + rng.standard_normal((n, 2))
    x = 0.6 * z1 + 0.2 * zb[:, 0] + rng.standard_normal(n) * 0.8
    s1 = 0.5 * x + 0.2 * z1 + rng.standard_normal(n) * 0.8
    sb = 0.3 * s1[:, None] + 0.15 * x[:, None] + rng.standard_normal((n, 2))
    y = (
        0.4 * s1
        + 0.2 * z1
        + sb @ [0.2, -0.1]
        + zb @ [0.15, 0.1]
        + rng.standard_normal(n) * noise
    )
    raw = np.column_stack([x, y, s1, sb, z1, zb])
    return Dataset(raw, COLS).standardized()


def y_design(ds, roles=ROLES):
    cols = [roles.x] + list(roles.s) + list(roles.z) + list(roles.sbar) + list(roles.zbar)
    return ds.values[:, ds.index_of(cols)]


def stack_m(coefs: MediatorCoefs) -> np.ndarray:
    return np.vstack([coefs.x_row[None, :], coefs.z_rows, coefs.zbar_rows])


def default_params(**kwargs) -> PcmParams:
    base = dict(lambda1=0.05, rho1=0.05, zeta1=0.3, xi1=0.3,
                pilot_lambda=0.5, pilot_rho=0.5)
    base.update(kwargs)
    return PcmParams(**base)


class TestOlsJoint:
    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((60, 7))
        coefs = rng.uniform(-1, 1, 7)
        y = base @ coefs
        raw = np.column_stack([base[:, 0], y, base[:, 1], base[:, 2], base[:, 3],
                               base[:, 4], base[:, 5], base[:, 6]])
        ds = Dataset(raw, COLS)
        fit = ridge_pilot_y(ds, ROLES, 0.0)
        assert fit.beta_x == pytest.approx(coefs[0], abs=1e-10)
        np.testing.assert_allclose(fit.coef_s, coefs[1:2], atol=1e-10)

    def test_orthogonal_design_gives_marginal_slopes(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((40, 7)))
        y = q @ rng.uniform(-1, 1, 7) + 0.0
        raw = np.column_stack([q[:, 0], y] + [q[:, j] for j in range(1, 7)])
        ds = Dataset(raw, COLS)
        fit = ridge_pilot_y(ds, ROLES, 0.0)
        x = ds.column("X")
        assert fit.beta_x == pytest.approx(float(x @ y) / float(x @ x), abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        ds = random_instance(2)
        fit = ridge_pilot_y(ds, ROLES, 0.0)
        a = y_design(ds)
        oracle = np.linalg.inv(a.T @ a) @ (a.T @ ds.column("Y"))
        np.testing.assert_allclose(stacked(fit), oracle, atol=1e-9)

    def test_singular_design_raises(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((5, 8))  # fewer rows than regressors
        ds = Dataset(raw, COLS)
        with pytest.raises(SingularDesign):
            ridge_pilot_y(ds, ROLES, 0.0)


class TestRidgePilots:
    def test_huge_lambda_shrinks_penalized_blocks(self):
        ds = random_instance(5)
        fit = ridge_pilot_y(ds, ROLES, 1e8)
        assert abs(fit.beta_x) < 1e-4
        assert np.max(np.abs(fit.coef_sbar)) < 1e-4
        assert np.max(np.abs(fit.coef_zbar)) < 1e-4
        reduced_cols = ds.index_of(["S1", "Z1"])
        a = ds.values[:, reduced_cols]
        reduced = np.linalg.solve(a.T @ a, a.T @ ds.column("Y"))
        np.testing.assert_allclose(fit.coef_s, reduced[:1], atol=1e-4)
        np.testing.assert_allclose(fit.coef_z, reduced[1:], atol=1e-4)

    def test_scalar_closed_form(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(50)
        y = 0.7 * x + rng.standard_normal(50)
        ds = Dataset(np.column_stack([x, y]), ("X", "Y")).standardized()
        roles = RolePartition(x="X", y="Y")
        lam = 0.8
        fit = ridge_pilot_y(ds, roles, lam)
        x_std = ds.column("X")
        expected = float(x_std @ ds.column("Y")) / (50 * lam + float(x_std @ x_std))
        assert fit.beta_x == pytest.approx(expected, abs=1e-12)

    def test_mediator_pilot_rho_zero_is_ols(self):
        ds = random_instance(7)
        fit = ridge_pilot_m(ds, ROLES, 0.0)
        cols = ds.index_of(["X", "Z1", "Zb1", "Zb2"])
        a = ds.values[:, cols]
        m = ds.values[:, ds.index_of(["S1", "Sb1", "Sb2"])]
        oracle = np.linalg.solve(a.T @ a, a.T @ m)
        np.testing.assert_allclose(stack_m(fit), oracle, atol=1e-9)

    def test_mediator_pilot_without_candidates_ignores_rho(self):
        ds = random_instance(8)
        roles = RolePartition(x="X", y="Y", z=("Z1",), s=("S1",), sbar=("Sb1", "Sb2"))
        a = ridge_pilot_m(ds, roles, 0.0)
        b = ridge_pilot_m(ds, roles, 17.3)
        np.testing.assert_array_equal(stack_m(a), stack_m(b))

    def test_mediator_block_closed_form(self):
        rng = np.random.default_rng(9)
        n = 50
        x = rng.standard_normal(n)
        zb = 0.3 * x + rng.standard_normal(n)
        m = 0.5 * x + 0.2 * zb + rng.standard_normal(n)
        y = m + rng.standard_normal(n)
        ds = Dataset(np.column_stack([x, y, m, zb]), ("X", "Y", "M", "Zb")).standardized()
        roles = RolePartition(x="X", y="Y", zbar=("Zb",), s=("M",))
        rho = 2.5
        fit = ridge_pilot_m(ds, roles, rho)
        a = ds.values[:, ds.index_of(["X", "Zb"])]
        system = a.T @ a + n * rho * np.diag([0.0, 1.0])
        expected = np.linalg.solve(system, a.T @ ds.column("M"))
        assert fit.x_row[0] == pytest.approx(expected[0], abs=1e-12)
        assert fit.zbar_rows[0, 0] == pytest.approx(expected[1], abs=1e-12)

    def test_no_mediators_gives_empty_fit(self):
        ds = random_instance(9)
        roles = RolePartition(x="X", y="Y", z=("Z1",), zbar=("Zb1", "Zb2"))
        fit = ridge_pilot_m(ds, roles, 3.0)
        assert fit.x_row.shape == (0,)


def pilot_alone(pilot, ds, roles, value):
    """One pilot's stacked coefficients, or the exception it raises."""
    try:
        return stacked(pilot(ds, roles, value))
    except PcmSelectError as exc:
        return exc


def grid_cases():
    """(dataset, roles) pairs: a regular design; fewer rows than regressors, where
    only the zero outcome pilot fails; unpenalized columns that are copies, where
    the batched outcome solve raises and some of its systems fail alone; and
    roles without mediators."""
    wide = np.random.default_rng(33).standard_normal((5, len(COLS)))
    copies = random_instance(34).values.copy()
    copies[:, COLS.index("Z1")] = copies[:, COLS.index("S1")]
    copies[:, COLS.index("Zb1")] = copies[:, COLS.index("Z1")]
    no_mediators = replace(ROLES, s=(), sbar=())
    return [(random_instance(31), ROLES), (Dataset(wide, COLS).standardized(), ROLES),
            (Dataset(copies, COLS), ROLES), (random_instance(35), no_mediators)]


class TestPilotGrids:
    # zero (least squares), repeated and widely spread values
    VALUES = (3.0, 0.0, 1e-3, 0.5, 1e4, 0.5, 0.0)

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("pilot, grid", [(ridge_pilot_y, ridge_pilot_y_grid),
                                             (ridge_pilot_m, ridge_pilot_m_grid)])
    def test_each_value_equals_the_pilot_alone(self, case, pilot, grid):
        ds, roles = grid_cases()[case]
        (fits,) = grid([ds], roles, self.VALUES)
        assert len(fits) == len(self.VALUES)
        for value, fit in zip(self.VALUES, fits):
            alone = pilot_alone(pilot, ds, roles, value)
            if isinstance(alone, PcmSelectError):
                assert type(fit) is type(alone)
            else:
                assert isinstance(fit, np.ndarray)
                assert fit.shape == alone.shape and fit.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("case", range(2))
    def test_positive_values_match_the_ridge_formula(self, case):
        # the system gram + n diag(d) solved alone, as the pilots solved it before
        # they were batched
        ds, roles = grid_cases()[case]
        q = len(roles.s) + len(roles.z)
        for grid, regs, resp, pen in [
            (ridge_pilot_y_grid, roles.y_regressors, [roles.y],
             [1.0] + [0.0] * q + [1.0] * (len(roles.sbar) + len(roles.zbar))),
            (ridge_pilot_m_grid, roles.m_regressors, roles.mediators,
             [0.0] * (1 + len(roles.z)) + [1.0] * len(roles.zbar)),
        ]:
            gram, cross = ds.cross(regs, regs), ds.cross(regs, resp)
            for value, fit in zip(self.VALUES, grid([ds], roles, self.VALUES)[0]):
                if value > 0:
                    expected = np.linalg.solve(gram + ds.n * np.diag(value * np.array(pen)),
                                               cross)
                    assert fit.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("pilot, grid", [(ridge_pilot_y, ridge_pilot_y_grid),
                                             (ridge_pilot_m, ridge_pilot_m_grid)])
    def test_a_stack_of_datasets_equals_each_dataset_alone(self, pilot, grid, monkeypatch):
        # the regular, the wide (5 rows) and the copied design of grid_cases and one
        # more, on a gram stack: each fit equals that dataset's pilot alone, byte for
        # byte, and the copied design's failures are its own
        datasets = [ds for ds, roles in grid_cases() if roles == ROLES] + [random_instance(36)]
        guarded = []

        def ols_spy(gram, cross):
            guarded.append(gram.shape)
            return ols_batch(gram, cross)

        monkeypatch.setattr(solvers, "ols_batch", ols_spy)
        fits = grid(datasets, ROLES, self.VALUES)
        # the zero values are least squares through the rank guard, once per dataset,
        # all in one stacked call
        assert [shape[0] for shape in guarded] == [len(datasets)]
        assert len(fits) == len(datasets)
        for ds, row in zip(datasets, fits):
            assert len(row) == len(self.VALUES)
            for value, fit in zip(self.VALUES, row):
                alone = pilot_alone(pilot, ds, ROLES, value)
                if isinstance(alone, PcmSelectError):
                    assert type(fit) is type(alone)
                else:
                    assert isinstance(fit, np.ndarray) and fit.tobytes() == alone.tobytes()
        failed = [[isinstance(fit, SingularDesign) for fit in row] for row in fits]
        assert [any(row) for row in failed] == ([False, True, True, False] if grid is
                                                ridge_pilot_y_grid else [False, False, True, False])

    def test_the_rank_guard_refuses_the_wide_least_squares_pilot(self):
        datasets = [ds for ds, roles in grid_cases()[:2]]
        regular, wide = ridge_pilot_y_grid(datasets, ROLES, (0.0,))
        assert isinstance(regular[0], np.ndarray)
        assert isinstance(wide[0], SingularDesign) and "condition number" in str(wide[0])

    def test_the_cases_fail_where_intended(self):
        outcome = [[isinstance(f, SingularDesign)
                    for f in ridge_pilot_y_grid([ds], roles, (0.0, 1.0))[0]]
                   for ds, roles in grid_cases()]
        mediator = [[isinstance(f, SingularDesign)
                     for f in ridge_pilot_m_grid([ds], roles, (0.0, 1.0))[0]]
                    for ds, roles in grid_cases()]
        assert outcome == [[False, False], [True, False], [True, True], [False, False]]
        assert mediator == [[False, False], [False, False], [True, False], [False, False]]

    def test_negative_values_are_rejected(self):
        with pytest.raises(ValueError):
            ridge_pilot_y_grid([random_instance(36)], ROLES, (1.0, -0.5))
        with pytest.raises(ValueError):
            ridge_pilot_m(random_instance(36), ROLES, -0.5)


class TestAdaptiveWeights:
    def make_pilots(self, sbar_x, y_zbar, m_zbar):
        y = YModelCoefs(0.5, np.array([0.3]), np.array([0.2]),
                        np.array([0.1, 0.1]), np.asarray(y_zbar, dtype=float))
        m = MediatorCoefs(
            x_row=np.concatenate([[0.4], np.asarray(sbar_x, dtype=float)]),
            z_rows=np.zeros((1, 3)),
            zbar_rows=np.asarray(m_zbar, dtype=float),
        )
        return y, m

    def test_equal_pilots_give_uniform_weights(self):
        pilots = self.make_pilots([0.3, 0.3], [0.2, 0.2], np.full((2, 3), 0.5))
        w = adaptive_weights(*pilots)
        np.testing.assert_allclose(w.sbar, [0.5, 0.5])
        np.testing.assert_allclose(w.zbar, [0.5, 0.5])
        np.testing.assert_allclose(w.med, np.full((2, 3), 1.0 / 6.0))

    def test_hand_computed_reciprocals(self):
        pilots = self.make_pilots([0.1, 0.4], [0.1, 0.4], np.full((2, 3), 0.5))
        w = adaptive_weights(*pilots)
        np.testing.assert_allclose(w.sbar, [0.8, 0.2])
        np.testing.assert_allclose(w.zbar, [0.8, 0.2])

    def test_normalization_identity(self):
        rng = np.random.default_rng(10)
        pilots = self.make_pilots(rng.uniform(0.05, 1, 2), rng.uniform(0.05, 1, 2),
                                  rng.uniform(0.05, 1, (2, 3)))
        w = adaptive_weights(*pilots)
        assert w.sbar.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.zbar.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.med.sum() == pytest.approx(1.0, abs=1e-12)
        assert not w.floored

    def test_zero_pilot_is_floored(self):
        vals = np.array([0.0, 0.5])
        (w,), (floored,) = reciprocal_power_weights_stack(vals[None])
        assert floored and w[0] > w[1]

    @pytest.mark.parametrize("normalize", [True, False])
    def test_eta_max_is_finite_on_floored_magnitudes(self, normalize):
        # every magnitude floored, in a row of 10,000: the largest eta leaves the
        # weights and their sum finite, and a larger one is rejected
        vals = np.zeros((2, 10_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (w, _), floored = reciprocal_power_weights_stack(vals, eta=ETA_MAX,
                                                             normalize=normalize)
        assert np.isfinite(w).all() and floored.all()
        for eta in (np.nextafter(ETA_MAX, np.inf), 1e308, np.nan):
            with pytest.raises(ValueError, match="eta must be at most 32"):
                reciprocal_power_weights_stack(vals, eta=eta, normalize=normalize)


def weights_one_at_a_time(values, eta=1.0, normalize=True):
    """Reciprocal-power weights of one array, as they were computed before the stacked
    pass: floor, power and sum over the raveled array alone."""
    mags = np.abs(np.asarray(values, dtype=float)).ravel()
    if mags.size == 0:
        return mags.reshape(np.shape(values)), False
    raw = np.power(np.maximum(mags, WEIGHT_FLOOR), -eta)
    out = raw / raw.sum() if normalize else raw
    return out.reshape(np.shape(values)), bool(np.any(mags < WEIGHT_FLOOR))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def setting_chunk(setting, count, n=15):
    """``count`` standardized samples of the seed-0 model of ``setting``, and its roles."""
    roles = experiment_roles(setting)
    scm, spec, _ = build_experiment_scm(setting, np.random.default_rng(0))
    cols = [scm.dag.vertices.index(c) for c in roles.required_columns()]
    raw = scm.sample_stack(n, [np.random.default_rng(s) for s in range(1, count + 1)], spec)
    return Dataset.standardized_stack(raw[:, :, cols], roles.required_columns()), roles


class TestStackedWeights:
    """The weights of a chunk come from stacks in one pass, and each dataset's equal,
    bit for bit, those of its pilots alone."""

    @pytest.mark.parametrize("setting", ["A", "B"])
    def test_pilot_weights_equal_each_dataset_alone(self, setting):
        datasets, roles = setting_chunk(setting, 7)
        y_pilots = [y for (y,) in ridge_pilot_y_grid(datasets, roles, [3.157])]
        m_pilots = [m for (m,) in ridge_pilot_m_grid(datasets, roles, [3.726])]
        # a zero pilot magnitude hits the floor; a failed pilot sits mid-chunk
        y_pilots[1] = y_pilots[1].copy()
        y_pilots[1][-1] = 0.0
        m_pilots[2] = m_pilots[2].copy()
        m_pilots[2][0, -1] = 0.0
        failure = SingularDesign("a failed pilot")
        y_pilots[3] = failure
        weights = pcm.pilot_weights(y_pilots, m_pilots, roles)
        assert weights[3] is failure
        if setting == "A":
            assert weights[1].floored and weights[2].floored
        else:
            # no candidate covariates: the zero outcome pilot is a fixed block's
            assert not weights[1].floored and weights[2].floored
            assert all(w.zbar.shape == (0,) and w.med.shape == (0, 6)
                       for w in weights if w is not failure)
        q_s = len(roles.s)
        for y, m, w in zip(y_pilots, m_pilots, weights):
            if w is failure:
                continue
            alone = adaptive_weights(pcm._split_y_coefs(y, roles),
                                     pcm._split_m_coefs(m, len(roles.z)))
            blocks = [weights_one_at_a_time(block) for block in (
                m[0, q_s:], y[len(roles.y_regressors) - len(roles.zbar):], m[1 + len(roles.z):])]
            for key, (old, _) in zip(("sbar", "zbar", "med"), blocks):
                assert same_bits(getattr(w, key), getattr(alone, key)), key
                assert same_bits(getattr(w, key), old), key
            assert w.floored is alone.floored is any(f for _, f in blocks)

    @pytest.mark.parametrize("eta", [0.1, 1.2])
    def test_baseline_weights_equal_each_pilot_alone(self, eta, monkeypatch):
        # pal1ma's standardized candidate-covariate weights and the adaptive lasso's
        # unstandardized weights of every coefficient come from one stack of a chunk's
        # pilots, here with a floored magnitude and a failed pilot mid-chunk, and equal
        # those of each pilot alone and of the one-array form
        datasets, roles = setting_chunk("A", 6)
        failure = SingularDesign("a failed pilot")
        lams = [0.407, 0.1]

        def chunk_pilots(pilot_fit):
            pilots = [p for (p,) in pilot_fit(datasets, roles, [3.157])]
            pilots[0] = pilots[0].copy()
            pilots[0][-2] = 0.0
            pilots[3] = failure
            return pilots

        pilots = chunk_pilots(baselines.pal1ma_pilot)
        weights = baselines._pal1ma_weights(pilots, roles, eta)
        assert weights[3] is failure
        assert [w.floored for w in weights if w is not failure] == [True] + [False] * 4
        for pilot, w in zip(pilots, weights):
            if pilot is failure:
                continue
            (alone,) = baselines._pal1ma_weights([pilot], roles, eta)
            old, floored = weights_one_at_a_time(pilot[1 + len(roles.z):], eta)
            assert same_bits(w.zbar, alone.zbar) and same_bits(w.zbar, old)
            assert w.floored is alone.floored is floored
        # the adaptive lasso's candidate weights, as they reach the L1 path
        seen, l1_path = [], baselines.l1_path

        def recording(grams, ns, lanes, crosses, l1_weights, *rest):
            seen.append(l1_weights)
            return l1_path(grams, ns, lanes, crosses, l1_weights, *rest)

        monkeypatch.setattr(baselines, "l1_path", recording)
        pilots = chunk_pilots(baselines.pilot_coefficients)
        fits = baselines.penalized_coefficients(datasets, roles, pilots, lams, eta=eta)
        assert fits[3] is failure
        (stack,) = seen  # phi = 1: one path call on every dataset whose pilot did not fail
        ok = [i for i, pilot in enumerate(pilots) if pilot is not failure]
        assert len(stack) == len(ok)
        for i, lane in zip(ok, stack):
            old, floored = weights_one_at_a_time(pilots[i], eta, normalize=False)
            assert floored is (i == 0)
            (alone,) = baselines.penalized_coefficients([datasets[i]], roles, [pilots[i]], lams,
                                                        eta=eta)
            assert same_bits(lane, np.array([lam * 1.0 * old for lam in lams]))
            assert same_bits(lane, seen[-1][0])
            assert repr(alone) == repr(fits[i])

    def test_outcome_candidate_weights_equal_each_fold_and_pair(self):
        # (0.8, 0.2) and (0.9, 0.1): 1 - zeta1 - xi1 is -5.6e-17 and -2.8e-17, clipped to 0
        assert 1.0 - 0.8 - 0.2 < 0.0 and 1.0 - 0.9 - 0.1 < 0.0
        pairs = [(0.8, 0.2), (0.9, 0.1), (0.27, 0.19), (0.0, 1.0), (0.0, 0.0), (0.3, 0.7)]
        lams = np.logspace(2, -3, 13).tolist() + [0.0]
        datasets, roles = setting_chunk("A", 5)
        weights = pcm.pilot_weights([y for (y,) in ridge_pilot_y_grid(datasets, roles, [3.1])],
                                    [m for (m,) in ridge_pilot_m_grid(datasets, roles, [69.5])],
                                    roles)
        sbar, zbar = (np.array([getattr(w, key) for w in weights]) for key in ("sbar", "zbar"))
        stack = pcm._y_l1_weights(roles, sbar, zbar, lams, pairs)
        assert stack.shape == (5, len(pairs), len(lams), len(roles.y_regressors))
        for f, w in enumerate(weights):
            for i, (zeta1, xi1) in enumerate(pairs):
                column = np.asarray(lams)[:, None]
                old = np.concatenate([
                    column * zeta1, np.zeros((len(lams), len(roles.s) + len(roles.z))),
                    column * xi1 * w.sbar, column * max(0.0, 1.0 - zeta1 - xi1) * w.zbar], 1)
                one = pcm._y_l1_weights(roles, sbar[f:f + 1], zbar[f:f + 1], lams,
                                                [(zeta1, xi1)])[0, 0]
                assert same_bits(stack[f, i], old) and same_bits(stack[f, i], one)

    def test_mediator_candidate_weights_equal_each_design(self):
        rng = np.random.default_rng(3)
        meds = [rng.uniform(0.01, 1.0, (3, q)) for q in (2, 0, 4, 1)]
        rhos = [0.5, 0.2, 0.0]
        stack = pcm._m_l1_weights(1, meds, rhos)
        start = 0
        for med in meds:
            old = np.multiply.outer(rhos, np.vstack([np.zeros((2, med.shape[1])), med]))
            lanes = stack[start:start + med.shape[1]]
            assert same_bits(lanes, old.transpose(2, 0, 1))
            start += med.shape[1]
        assert start == len(stack)


class TestStage1:
    def test_no_mediators_fit_nothing(self, monkeypatch):
        # pal1ma's roles: the empty mediator fit, with no gather and no solver call
        ds = random_instance(13)
        roles = replace(ROLES, s=(), sbar=())
        w = AdaptiveWeights(sbar=np.zeros(0), zbar=np.array([0.5, 0.5]), med=np.zeros((2, 0)))

        def refuse(*args, **kwargs):
            raise AssertionError("a fit without mediators gathered moments or followed a path")

        monkeypatch.setattr(pcm, "gram_stack", refuse)
        monkeypatch.setattr(Dataset, "cross", refuse)
        monkeypatch.setattr(pcm, "l1_path", refuse)
        fit = pcm_stage1_m(ds, roles, w, 0.3)
        assert fit.x_row.shape == (0,) and fit.z_rows.shape == (1, 0)
        assert fit.zbar_rows.shape == (2, 0)
        # each fold's fit at each rho is an empty (regressors x 0) matrix
        fits = pcm_stage1_m_path([(ds, roles, w), (ds, roles, w)], [0.3, 0.1])
        assert [[coef.shape for coef in fold] for fold in fits] == [[(4, 0)] * 2] * 2

    def test_mediator_path_matrices_equal_each_fit_alone(self, monkeypatch):
        # folds of two design widths (two solver calls), one without mediators, and
        # one failing column: each fold's matrix at each rho is pcm_stage1_m's
        # stacked [x; z; zbar] blocks on that fold alone, bit for bit, and the
        # failure fails only its own fold and rho
        rng = np.random.default_rng(41)
        narrow = replace(ROLES, zbar=("Zb1",), sbar=("Sb1",))
        folds = [(random_instance(31 + f, n=n), roles) for f, (n, roles) in enumerate(
            [(40, ROLES), (37, narrow), (45, replace(ROLES, s=(), sbar=())), (50, ROLES),
             (38, narrow)])]
        folds = [(ds, roles, AdaptiveWeights(np.zeros(len(roles.sbar)), np.zeros(len(roles.zbar)),
                                             rng.uniform(0.1, 1.0, (len(roles.zbar),
                                                                    len(roles.mediators)))))
                 for ds, roles in folds]
        rhos = [0.3, 0.05, 0.0]
        failing = 3, 1, 1  # fold, mediator, rho
        _, roles, w = folds[failing[0]]
        target = rhos[failing[2]] * np.concatenate([np.zeros(1 + len(roles.z)),
                                                    w.med[:, failing[1]]])
        kkt = solvers.kkt_residual

        def kkt_failing_target(gram, cross, n, l1_weights, beta, l2_weights=None):
            worst = kkt(gram, cross, n, l1_weights, beta, l2_weights)
            l1_weights = np.asarray(l1_weights)
            if l1_weights.shape[-1] != target.size:  # the other design width's call
                return worst
            return np.where((l1_weights == target).all(axis=-1), np.inf, worst)

        monkeypatch.setattr(solvers, "kkt_residual", kkt_failing_target)
        fits = pcm_stage1_m_path(folds, rhos)
        assert [len(fold) for fold in fits] == [len(rhos)] * len(folds)
        for f, (ds, roles, w) in enumerate(folds):
            for k, rho in enumerate(rhos):
                try:
                    alone = stack_m(pcm_stage1_m(ds, roles, w, rho))
                except PcmSelectError as exc:
                    assert (f, k) == (failing[0], failing[2])
                    assert type(fits[f][k]) is type(exc) and str(fits[f][k]) == str(exc)
                    continue
                assert (f, k) != (failing[0], failing[2])
                assert same_bits(fits[f][k], alone)
                assert fits[f][k].shape == (len(roles.m_regressors), len(roles.mediators))

    def test_lambda_zero_equals_ols(self):
        ds = random_instance(11)
        w = adaptive_weights(ridge_pilot_y(ds, ROLES, 0.5), ridge_pilot_m(ds, ROLES, 0.5))
        fit = pcm_stage1_y(ds, ROLES, w, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            stacked(fit), stacked(ridge_pilot_y(ds, ROLES, 0.0)), atol=1e-8
        )

    def test_total_shrinkage_leaves_reduced_ols(self):
        ds = random_instance(12)
        w = adaptive_weights(ridge_pilot_y(ds, ROLES, 0.5), ridge_pilot_m(ds, ROLES, 0.5))
        fit = pcm_stage1_y(ds, ROLES, w, 1e4, 1.0 / 3, 1.0 / 3)
        assert fit.beta_x == 0.0
        assert np.all(fit.coef_sbar == 0.0) and np.all(fit.coef_zbar == 0.0)
        a = ds.values[:, ds.index_of(["S1", "Z1"])]
        reduced = np.linalg.solve(a.T @ a, a.T @ ds.column("Y"))
        np.testing.assert_allclose(np.r_[fit.coef_s, fit.coef_z], reduced, atol=1e-8)

    def test_objective_beats_perturbations_and_kkt(self):
        ds = random_instance(13, n=50)
        w = adaptive_weights(ridge_pilot_y(ds, ROLES, 0.5), ridge_pilot_m(ds, ROLES, 0.5))
        lam1, zeta1, xi1 = 0.08, 0.25, 0.25
        fit = pcm_stage1_y(ds, ROLES, w, lam1, zeta1, xi1)
        a = y_design(ds)
        l1 = np.concatenate([
            [lam1 * zeta1], [0.0], [0.0], lam1 * xi1 * w.sbar,
            lam1 * (1 - zeta1 - xi1) * w.zbar,
        ])
        beta = stacked(fit)
        base = l1_objective(a, ds.column("Y"), l1, beta)
        rng = np.random.default_rng(14)
        for scale in (1e-3, 1e-2, 0.2):
            deltas = rng.standard_normal((2000, beta.size)) * scale
            vals = [l1_objective(a, ds.column("Y"), l1, beta + d) for d in deltas]
            assert base <= min(vals) + 1e-12
        # subgradient conditions
        grad = (a.T @ a @ beta - a.T @ ds.column("Y")) / ds.n
        for j in range(beta.size):
            if beta[j] != 0:
                assert abs(grad[j] + l1[j] * np.sign(beta[j])) < 1e-6
            else:
                assert abs(grad[j]) <= l1[j] + 1e-6

    def test_mediator_model_objective_is_columnwise_optimal(self):
        ds = random_instance(15, n=60)
        w = adaptive_weights(ridge_pilot_y(ds, ROLES, 0.5), ridge_pilot_m(ds, ROLES, 0.5))
        rho1 = 0.08
        fit = pcm_stage1_m(ds, ROLES, w, rho1)
        a = ds.values[:, ds.index_of(["X", "Z1", "Zb1", "Zb2"])]
        m = ds.values[:, ds.index_of(["S1", "Sb1", "Sb2"])]
        coefs = stack_m(fit)

        def joint_objective(mat):
            resid = m - a @ mat
            pen = rho1 * float(np.sum(w.med * np.abs(mat[2:, :])))
            return 0.5 / ds.n * float(np.sum(resid * resid)) + pen

        base = joint_objective(coefs)
        rng = np.random.default_rng(16)
        for scale in (1e-3, 0.05):
            for _ in range(400):
                assert base <= joint_objective(coefs + rng.standard_normal(coefs.shape) * scale) + 1e-12

    def test_rho_zero_is_per_column_ols(self):
        ds = random_instance(17)
        w = adaptive_weights(ridge_pilot_y(ds, ROLES, 0.5), ridge_pilot_m(ds, ROLES, 0.5))
        fit = pcm_stage1_m(ds, ROLES, w, 0.0)
        a = ds.values[:, ds.index_of(["X", "Z1", "Zb1", "Zb2"])]
        m = ds.values[:, ds.index_of(["S1", "Sb1", "Sb2"])]
        np.testing.assert_allclose(stack_m(fit), np.linalg.solve(a.T @ a, a.T @ m), atol=1e-8)


class TestActiveSetRelation:
    def test_lambda_zero_degenerates_to_ols(self):
        ds = random_instance(18)
        fit = pcm_total_effect(ds, ROLES, default_params(lambda1=0.0, rho1=0.0))
        assert verify_active_set_relation(fit, ds, ROLES) < 1e-8

    def test_all_active_instance(self):
        ds = random_instance(19)
        fit = pcm_total_effect(ds, ROLES, default_params(lambda1=0.02, rho1=0.02))
        assert fit.active_x and fit.active_sbar.size == 2 and fit.active_zbar.size == 2
        assert verify_active_set_relation(fit, ds, ROLES) < 1e-6

    def test_partial_activity(self):
        ds = random_instance(20)
        fit = pcm_total_effect(ds, ROLES, default_params(lambda1=0.12, rho1=0.10))
        assert verify_active_set_relation(fit, ds, ROLES) < 1e-6

    def test_x_inactive_variant(self):
        ds = x_inactive_instance(21)
        fit = pcm_total_effect(ds, ROLES, default_params(lambda1=0.5, zeta1=0.6, xi1=0.2))
        assert not fit.active_x
        assert verify_active_set_relation(fit, ds, ROLES) < 1e-6

    def test_mediator_columns_with_different_active_covariates(self):
        ds = random_instance(19)
        fit = pcm_total_effect(ds, ROLES, default_params(rho1=0.1))
        own_sets = [np.nonzero(col)[0].tolist() for col in fit.stage1_m.zbar_rows.T]
        assert own_sets == [[1], [0], [0, 1]]
        assert verify_active_set_relation(fit, ds, ROLES) < 1e-6


def x_inactive_instance(seed, n=200):
    """The treatment carries no direct outcome effect, so stage 1 can drop it."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    zb = 0.4 * z1[:, None] + rng.standard_normal((n, 2))
    x = 0.6 * z1 + rng.standard_normal(n) * 0.8
    s1 = 0.6 * x + 0.2 * z1 + rng.standard_normal(n) * 0.7
    sb = 0.3 * s1[:, None] + rng.standard_normal((n, 2))
    y = 0.5 * s1 + 0.2 * z1 + sb @ [0.2, -0.1] + zb @ [0.1, 0.1] + rng.standard_normal(n) * 0.7
    raw = np.column_stack([x, y, s1, sb, z1, zb])
    return Dataset(raw, COLS).standardized()


class TestDebiasRidges:
    def fit_weights(self, ds):
        return adaptive_weights(ridge_pilot_y(ds, ROLES, 0.5), ridge_pilot_m(ds, ROLES, 0.5))

    def test_zero_penalties_reduce_to_least_squares(self):
        ds = random_instance(22)
        blocks = debias_ridges(ds, ROLES, default_params(lambda2=0.0, rho2=0.0, rho2_prime=0.0))
        a = ds.values[:, ds.index_of(["S1", "Sb1", "Sb2", "Z1", "Zb1", "Zb2"])]
        oracle = np.linalg.solve(a.T @ a, a.T @ ds.column("X"))
        # frame [X, S1, Sb1, Sb2, Z1, Zb1, Zb2]; the treatment's column comes first
        assert blocks.coef[0, 0] == -1.0
        np.testing.assert_allclose(blocks.coef[1:, 0], oracle, atol=1e-9)
        resid = ds.column("X") - a @ oracle
        assert blocks.resid_grams[0][0, 0] == pytest.approx(float(resid @ resid), abs=1e-8)

    def test_empty_active_sets(self):
        ds = random_instance(23)
        blocks = debias_ridges(ds, replace(ROLES, sbar=(), zbar=()),
                               default_params(lambda2=0.1, rho2=0.1, rho2_prime=0.1))
        # only the treatment is penalized and active: frame [X, S1, Z1]
        assert blocks.coef.shape == (3, 1) and len(blocks.resid_grams) == 1
        # the treatment refit reduces to x on fixed covariates and mediators
        a = ds.values[:, ds.index_of(["Z1", "S1"])]
        oracle = np.linalg.solve(a.T @ a, a.T @ ds.column("X"))
        resid = ds.column("X") - a @ oracle
        assert blocks.resid_grams[0][0, 0] == pytest.approx(float(resid @ resid), abs=1e-8)

    def test_a_treatment_only_frame_refits_on_no_columns(self):
        # roles without mediators or covariates: the treatment's refit has no
        # regressor, its residual gram is its own, and the correction undoes the
        # stage-1 shrinkage exactly
        ds = random_instance(28)
        roles = RolePartition(x="X", y="Y")
        blocks = debias_ridges(ds, roles, default_params())
        x = ds.column("X")
        assert blocks.coef.tolist() == [[-1.0]]
        assert blocks.resid_grams[0][0, 0] == pytest.approx(float(x @ x), rel=1e-12)
        fit = pcm_total_effect(ds, roles, default_params())
        assert fit.active_x and fit.stage1_y.beta_x != fit.corrected.beta_x
        assert fit.total_effect == pytest.approx(float(x @ ds.column("Y") / (x @ x)), rel=1e-12)

    def test_objectives_beat_perturbations(self):
        ds = random_instance(24, n=80)
        lam2, xi2, rho2, rho2b = 0.2, 0.4, 0.15, 0.25
        blocks = debias_ridges(ds, ROLES, default_params(lambda2=lam2, xi2=xi2, rho2=rho2,
                                                         rho2_prime=rho2b))
        rng = np.random.default_rng(25)

        a = ds.values[:, ds.index_of(["S1", "Sb1", "Sb2", "Z1", "Zb1", "Zb2"])]
        d = np.concatenate([[0.0], np.full(2, lam2 * xi2), [0.0], np.full(2, lam2 * (1 - xi2))])
        coef = blocks.coef[1:, 0]  # frame [X, S1, Sb1, Sb2, Z1, Zb1, Zb2]
        base = ridge_objective(a, ds.column("X"), d, coef)
        for _ in range(1000):
            delta = rng.standard_normal(coef.size) * rng.choice([1e-3, 0.05])
            assert base <= ridge_objective(a, ds.column("X"), d, coef + delta) + 1e-12

        a_sb = ds.values[:, ds.index_of(["X", "S1", "Z1", "Zb1", "Zb2"])]
        target = ds.values[:, ds.index_of(["Sb1", "Sb2"])]
        d_sb = np.concatenate([np.zeros(3), np.full(2, rho2)])
        coef_sb = blocks.coef[np.ix_([0, 1, 4, 5, 6], [1, 2])]
        base = ridge_objective(a_sb, target, d_sb, coef_sb)
        for _ in range(1000):
            delta = rng.standard_normal(coef_sb.shape) * rng.choice([1e-3, 0.05])
            assert base <= ridge_objective(a_sb, target, d_sb, coef_sb + delta) + 1e-12


    @pytest.mark.parametrize("changes, columns, grams, mediators", [
        ({"zeta1": 0.0, "xi1": 0.0, "rho1": 0.0}, 2, [(2, 2)], False),  # pal1ma's shares
        ({"zeta1": 0.0}, 4, [(2, 2), (2, 2)], True),
        ({"xi1": 0.0}, 3, [(1, 1), (2, 2)], True),
        ({"lambda1": 0.0}, 0, [], True),
    ])
    def test_only_blocks_with_a_positive_l1_weight_are_refitted(self, changes, columns, grams,
                                                                mediators):
        # frame [X, S1, Sb1, Sb2, Z1, Zb1, Zb2]; a block of zero L1 weight was never
        # shrunk, and the mediator columns are corrected only when rho1 > 0
        blocks = debias_ridges(random_instance(22), ROLES, default_params(**changes))
        assert blocks.coef.shape == (7, columns)
        assert [gram.shape for gram in blocks.resid_grams] == grams
        assert (blocks.zb_on_xz_coef is not None) == mediators
        assert (blocks.zb_on_xz_resid_gram is not None) == mediators


class TestCorrections:
    def test_zero_penalties_give_ols_everywhere(self):
        ds = random_instance(26)
        fit = pcm_total_effect(ds, ROLES, default_params(
            lambda1=0.0, rho1=0.0, lambda2=0.0, rho2=0.0, rho2_prime=0.0))
        ols = ridge_pilot_y(ds, ROLES, 0.0)
        np.testing.assert_allclose(stacked(fit.stage1_y), stacked(ols), atol=1e-8)
        assert fit.corrected.beta_x == pytest.approx(ols.beta_x, abs=1e-8)
        np.testing.assert_allclose(fit.corrected.coef_s, ols.coef_s, atol=1e-8)
        np.testing.assert_allclose(fit.corrected.coef_sbar_active, ols.coef_sbar, atol=1e-8)

    def test_corrections_invert_to_post_selection_ols(self):
        ds = random_instance(27)
        fit = pcm_total_effect(ds, ROLES, default_params(
            lambda1=0.08, rho1=0.05, zeta1=0.05, xi1=0.45,
            lambda2=0.0, rho2=0.0, rho2_prime=0.0))
        assert fit.active_x
        act_cols = (["X", "S1", "Z1"]
                    + [ROLES.sbar[i] for i in fit.active_sbar]
                    + [ROLES.zbar[i] for i in fit.active_zbar])
        a = ds.values[:, ds.index_of(act_cols)]
        beta = ols_solve(a.T @ a, a.T @ ds.column("Y"))
        assert fit.corrected.beta_x == pytest.approx(beta[0], abs=1e-8)
        np.testing.assert_allclose(fit.corrected.coef_s, beta[1:2], atol=1e-8)
        q_sa = fit.active_sbar.size
        np.testing.assert_allclose(fit.corrected.coef_sbar_active, beta[3:3 + q_sa], atol=1e-8)

    def test_mediator_correction_inverts_to_per_column_ols(self):
        ds = random_instance(19)
        fit = pcm_total_effect(ds, ROLES, default_params(
            rho1=0.1, lambda2=0.0, rho2=0.0, rho2_prime=0.0))
        own_sets = [np.nonzero(col)[0] for col in fit.stage1_m.zbar_rows.T]
        # some mediator column must drop an active candidate covariate
        assert any(own.size < fit.active_zbar.size for own in own_sets)
        mediators = list(ROLES.s) + [ROLES.sbar[i] for i in fit.active_sbar]
        for j, (name, own) in enumerate(zip(mediators, own_sets)):
            cols = ["X", "Z1"] + [ROLES.zbar[fit.active_zbar[i]] for i in own]
            a = ds.values[:, ds.index_of(cols)]
            beta = ols_solve(a.T @ a, a.T @ ds.column(name))
            assert fit.corrected.med_x[j] == pytest.approx(beta[0], abs=1e-8)

    def test_x_inactive_sets_treatment_effect_to_zero(self):
        ds = x_inactive_instance(28)
        fit = pcm_total_effect(ds, ROLES, default_params(lambda1=0.5, zeta1=0.6, xi1=0.2))
        assert not fit.active_x
        assert fit.corrected.beta_x == 0.0
        assert fit.total_effect == pytest.approx(
            float(fit.corrected.med_x @ fit.corrected.y_on_mediators))

    def test_odd_symmetry_in_the_outcome(self):
        ds = random_instance(29)
        params = default_params(lambda1=0.08, rho1=0.06)
        fit = pcm_total_effect(ds, ROLES, params)
        flipped_values = ds.values.copy()
        flipped_values[:, list(ds.columns).index("Y")] *= -1.0
        flipped = Dataset(flipped_values, ds.columns)
        fit2 = pcm_total_effect(flipped, ROLES, params)
        assert fit2.total_effect == pytest.approx(-fit.total_effect, abs=1e-12)
        np.testing.assert_allclose(stacked(fit2.stage1_y), -stacked(fit.stage1_y), atol=1e-12)
        assert fit2.corrected.beta_x == pytest.approx(-fit.corrected.beta_x, abs=1e-12)

    def test_active_sets_index_candidate_blocks_only(self):
        ds = random_instance(30)
        fit = pcm_total_effect(ds, ROLES, default_params(lambda1=0.1, rho1=0.1))
        assert set(fit.active_sbar) <= {0, 1}
        assert set(fit.active_zbar) <= {0, 1}
        # fixed covariates and mediators are never penalized away
        assert np.all(fit.stage1_y.coef_s != 0.0)
        assert np.all(fit.stage1_y.coef_z != 0.0)


class TestTotalEffect:
    @pytest.mark.parametrize("name, key", [("pcm", "lambda1"), ("pal1ma", "lam")])
    def test_an_overflowing_penalty_gives_the_stage1_blocks(self, name, key):
        # at n=100, n * 1e307 overflows; stage 1 zeroes every penalized block, so no
        # block is corrected, as at a penalty that zeroes them without overflowing
        datasets, roles = setting_chunk("A", 4, n=100)
        huge, large = ({**PRESETS[("A", name)], key: value} for value in (1e307, 1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = METHODS[name].estimate(datasets, roles, huge)
            want = METHODS[name].estimate(datasets, roles, large)
        assert all(math.isfinite(value) for value in got)
        assert [repr(value) for value in got] == [repr(value) for value in want]

    @pytest.mark.parametrize("key", ["pilot_lambda", "pilot_rho"])
    def test_an_overflowing_pilot_penalty_takes_its_limit(self, key):
        # at n=40, n * 1e308 overflows: the pilot's penalized coefficients are zero, so
        # its weights are floored as at 1e300, and no warning is raised
        datasets, roles = setting_chunk("A", 4, n=40)
        huge, large = (PcmParams(**{**PRESETS[("A", "pcm")], key: value})
                       for value in (1e308, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = pcm_fits(datasets, roles, huge), pcm_fits(datasets, roles, large)
        for fit, other in zip(got, want):
            assert fit.weights.floored and other.weights.floored
            assert fit.total_effect == pytest.approx(other.total_effect, rel=1e-9)

    def test_pure_chain_consistency(self):
        rng = np.random.default_rng(31)
        n = 10_000
        x = rng.standard_normal(n)
        s = 0.8 * x + rng.standard_normal(n) * 0.6
        y = 0.4 * s + rng.standard_normal(n) * np.sqrt(1 - 0.16)
        ds = Dataset(np.column_stack([x, y, s]), ("X", "Y", "S")).standardized()
        roles = RolePartition(x="X", y="Y", s=("S",))
        fit = pcm_total_effect(ds, roles, default_params(lambda1=0.01, rho1=0.01,
                                                         zeta1=0.1, xi1=0.0))
        # all three variables have unit population variance, so the
        # standardized-scale total effect equals the path product
        assert fit.total_effect == pytest.approx(0.32, abs=0.02)

    def test_fit_payload_is_json_ready(self):
        import json

        ds = random_instance(32)
        fit = pcm_total_effect(ds, ROLES, default_params())
        payload = json.dumps(fit.to_dict())
        assert "total_effect" in payload

    def test_setting_a_replication_11_reaches_the_optimum(self):
        # replication 11 of the seed-0 setting-A run: a p >= n stage-1
        # outcome fit on which cyclic descent ran out its 100,000 sweeps
        children = np.random.SeedSequence(0).spawn(13)
        scm, spec, _ = build_experiment_scm("A", np.random.default_rng(children[0]))
        roles = experiment_roles("A")
        raw = scm.sample(15, np.random.default_rng(children[12]), spec)
        observed = roles.required_columns()
        ds = Dataset(raw[:, [scm.dag.vertices.index(c) for c in observed]],
                     observed).standardized()
        params = PcmParams(**PRESETS[("A", "pcm")])
        fit = pcm_total_effect(ds, roles, params)
        assert np.isfinite(fit.total_effect)
        lam, zeta, xi = params.lambda1, params.zeta1, params.xi1
        l1 = np.concatenate([[lam * zeta], np.zeros(len(roles.s) + len(roles.z)),
                             lam * xi * fit.weights.sbar,
                             lam * (1.0 - zeta - xi) * fit.weights.zbar])
        cols = roles.y_regressors
        assert kkt_residual(ds.cross(cols, cols), ds.cross(cols, [roles.y])[:, 0], ds.n,
                            l1, stacked(fit.stage1_y)) <= 1e-9


# roles without mediators: stage 1 on [X, Z1, Zb1, Zb2]
BARE = RolePartition(x="X", y="Y", z=("Z1",), zbar=("Zb1", "Zb2"))


def no_x_instance(seed, n=60, copy=False):
    """The outcome does not depend on the treatment given Z1, so stage 1 can drop
    it; the mediator columns are noise.  ``copy`` makes the treatment a copy of Z1."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    zb = 0.4 * z1[:, None] + rng.standard_normal((n, 2))
    x = z1.copy() if copy else 0.6 * z1 + rng.standard_normal(n) * 0.8
    y = 0.3 * z1 + zb @ [0.4, 0.3] + rng.standard_normal(n)
    return Dataset(np.column_stack([x, y, rng.standard_normal((n, 3)), z1, zb]),
                   COLS).standardized()


def setting_b_chunk(count=8):
    """``count`` standardized n=15 samples of the setting-B model of model seed 0."""
    roles = experiment_roles("B")
    scm, spec, _ = build_experiment_scm("B", np.random.default_rng(0))
    cols = [scm.dag.vertices.index(c) for c in roles.required_columns()]
    return [Dataset(scm.sample(15, np.random.default_rng(seed), spec)[:, cols],
                    roles.required_columns()).standardized() for seed in range(1, count + 1)]


def alone_or_failure(estimate, *args, **kwargs):
    try:
        return estimate(*args, **kwargs)
    except PcmSelectError as exc:
        return exc


def tail_shapes(monkeypatch) -> list:
    """The active-design shape of each dataset that reaches the chunk tail, in order."""
    seen = []
    corrections = pcm.corrections

    def spy(items, params):
        seen.extend((item[2].beta_x != 0.0, len(item[1].sbar), len(item[1].zbar))
                    for item in items)
        return corrections(items, params)

    monkeypatch.setattr(pcm, "corrections", spy)
    return seen


def tail_items(datasets, roles, params, monkeypatch) -> list:
    """The (data, active roles, stage1_y, stage1_m, weights) of each of ``datasets``
    that reaches the chunk tail of :func:`pcm_fits`, in order."""
    items, corrections = [], pcm.corrections
    monkeypatch.setattr(pcm, "corrections",
                        lambda batch, p: (items.extend(batch), corrections(batch, p))[1])
    pcm_fits(datasets, roles, params)
    monkeypatch.undo()
    return items


def chunk_with_a_failing_pilot(setting, count=10, failing=4):
    """``count`` standardized n=15 samples of the seed-0 model of ``setting`` and its
    roles, where sample ``failing`` copies S into a column that makes its outcome
    pilot singular: Z in setting A, whose outcome pilot leaves S and Z unpenalized,
    and Sbar1 in setting B, singular where the pilot is least squares."""
    roles = experiment_roles(setting)
    scm, spec, _ = build_experiment_scm(setting, np.random.default_rng(0))
    names = roles.required_columns()
    raw = scm.sample_stack(15, [np.random.default_rng(s) for s in range(1, count + 1)], spec)
    raw = raw[:, :, [scm.dag.vertices.index(c) for c in names]]
    raw[failing, :, names.index("Z" if setting == "A" else "Sbar1")] = raw[failing, :,
                                                                          names.index("S")]
    return Dataset.standardized_stack(raw, names), roles


def assert_same_fit(fit, alone):
    """Every field of the two fits is equal, arrays bit for bit."""
    assert fit.params == alone.params and fit.active_x == alone.active_x
    assert repr(fit.total_effect) == repr(alone.total_effect)
    assert same_bits(fit.active_sbar, alone.active_sbar)
    assert same_bits(fit.active_zbar, alone.active_zbar)
    for block in ("weights", "stage1_y", "stage1_m", "corrected"):
        mine, theirs = getattr(fit, block), getattr(alone, block)
        assert type(mine) is type(theirs), block
        for f in fields(mine):
            assert same_bits(getattr(mine, f.name), getattr(theirs, f.name)), (block, f.name)


class TestChunkTail:
    @pytest.mark.parametrize("setting", ["A", "B"])
    def test_each_fit_of_a_chunk_equals_its_dataset_alone(self, setting):
        # the active designs come from the stack of the chunk's stage-1 fits, and the
        # datasets with one active set share its roles and index arrays; a pilot
        # fails mid-chunk (setting B's at pilot_lambda = 0, least squares)
        datasets, roles = chunk_with_a_failing_pilot(setting)
        params = PcmParams(**{**PRESETS[(setting, "pcm")],
                              **({"pilot_lambda": 0.0} if setting == "B" else {})})
        fits = pcm_fits(datasets, roles, params)
        assert isinstance(fits[4], SingularDesign)
        sets = [(fit.active_sbar.tobytes(), fit.active_zbar.tobytes())
                for fit in fits if not isinstance(fit, PcmSelectError)]
        assert len(set(sets)) >= 3
        if setting == "B":
            assert len(set(sets)) < len(sets)  # some datasets share an active set
        for ds, fit in zip(datasets, fits):
            alone = alone_or_failure(pcm_total_effect, ds, roles, params)
            if isinstance(fit, PcmSelectError):
                assert type(alone) is type(fit) and str(alone) == str(fit)
            else:
                assert_same_fit(fit, alone)

    def test_each_pal1ma_fit_of_a_chunk_equals_its_dataset_alone(self):
        # pal1ma's route: roles without mediators, its own weights, a failure in place
        # of one dataset's weights
        datasets, roles = setting_chunk("A", 10)
        preset = PRESETS[("A", "pal1ma")]
        pilots = [p for (p,) in baselines.pal1ma_pilot(datasets, roles, [preset["pilot_lam"]])]
        weights = baselines._pal1ma_weights(pilots, roles, preset["eta"])
        weights[4] = failure = SingularDesign("a failed pilot")
        bare = baselines._without_mediators(roles)
        params = PcmParams(lambda1=preset["lam"], rho1=0.0, zeta1=0.0, xi1=0.0)
        fits = pcm.fit_from_weights(datasets, bare, params, weights)
        assert fits[4] is failure
        assert len({fit.active_zbar.tobytes() for fit in fits if fit is not failure}) >= 3
        for ds, w, fit in zip(datasets, weights, fits):
            if fit is not failure:
                (alone,) = pcm.fit_from_weights([ds], bare, params, [w])
                assert fit.stage1_m.x_row.shape == (0,)
                assert_same_fit(fit, alone)

    def test_setting_b_preset_corrects_the_candidate_mediators_only(self, monkeypatch):
        # zeta1 = 0: the treatment is never shrunk, so it gets no refit, no residual
        # gram and no pseudoinverse
        params = PcmParams(**PRESETS[("B", "pcm")])
        items = tail_items(setting_b_chunk(), experiment_roles("B"), params, monkeypatch)
        assert any(item[2].beta_x != 0.0 and item[1].sbar for item in items)
        for data, active, stage1_y, _, _ in items:
            blocks = debias_ridges(data, active, params, include_x=stage1_y.beta_x != 0.0)
            k = len(active.sbar)
            # frame [X, S, active Sbar], with X left out when stage 1 dropped it
            assert blocks.coef.shape == (1 + (stage1_y.beta_x != 0.0) + k, k)
            assert [gram.shape for gram in blocks.resid_grams] == ([(k, k)] if k else [])
        svd, inverted = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
            inverted.extend([a.shape[1:]] * len(a)), svd(a, *args, **kwargs))[1])
        pcm.corrections(items, params)
        monkeypatch.undo()
        assert sorted(inverted) == sorted((len(a.sbar),) * 2 for _, a, *_ in items if a.sbar)

    def test_pcm_correct_rejects_blocks_built_for_other_shares(self, monkeypatch):
        params = PcmParams(**PRESETS[("B", "pcm")])
        items = tail_items(setting_b_chunk(), experiment_roles("B"), params, monkeypatch)
        data, active, stage1_y, stage1_m, weights = next(
            item for item in items if item[2].beta_x != 0.0)
        # with zeta1 > 0 the blocks hold the treatment's residual gram as well
        blocks = debias_ridges(data, active, replace(params, zeta1=0.1, xi1=0.9))
        with pytest.raises(ValueError, match="other L1 penalties"):
            pcm_correct(stage1_y, stage1_m, blocks, weights, params, data.n)

    def test_a_failure_stays_with_its_dataset_inside_a_shape_group(self, monkeypatch):
        # the copied dataset's treatment equals Z1, so stage 1 drops it and the rank
        # guard rejects the refit of its active candidate covariates on [X, Z1]; it
        # shares its active-design shape with two other datasets
        datasets = [random_instance(41), no_x_instance(1), no_x_instance(101, copy=True),
                    no_x_instance(7)]
        params = default_params(lambda1=0.02, zeta1=0.9, xi1=0.0)
        seen = tail_shapes(monkeypatch)
        fits = pcm_fits(datasets, BARE, params)
        assert seen[1] == seen[2] == seen[3] != seen[0]
        for ds, fit in zip(datasets, fits):
            alone = alone_or_failure(pcm_total_effect, ds, BARE, params)
            if ds is datasets[2]:
                assert isinstance(fit, SingularDesign) and "condition number" in str(fit)
                assert type(alone) is type(fit) and str(alone) == str(fit)
            else:
                assert repr(fit.to_dict()) == repr(alone.to_dict())
        # the least-squares plug-ins fail on the copied dataset alone too
        for chunk, single, args in [
                (back_door_estimates, back_door_estimate, ("X", "Y", ["Z1", "Zb1", "Zb2"])),
                (front_door_like_estimates, front_door_like_estimate,
                 ("X", "Y", ["S1"], ["Z1"], ["Z1"]))]:
            for ds, estimate in zip(datasets, chunk(datasets, *args)):
                alone = alone_or_failure(single, ds, *args)
                if ds is datasets[2]:
                    assert isinstance(estimate, SingularDesign) and str(alone) == str(estimate)
                else:
                    assert repr(estimate) == repr(alone)
        # and so do the lasso family's, through its L1 path (lam = 0 leaves X and its
        # copy both unpenalized) or through its least-squares pilot (pilot_lam = 0)
        for name, params, fails in [
                ("lasso", {"lam": 0.0}, True), ("elastic-net", {"lam": 0.02, "phi": 0.9}, False),
                ("adaptive-lasso", {"lam": 0.02, "pilot_lam": 0.0}, True),
                ("adaptive-lasso", {"lam": 0.02, "eta": 0.5, "pilot_lam": 0.5}, False)]:
            for ds, estimate in zip(datasets, METHODS[name].estimate(datasets, BARE, params)):
                alone = alone_or_failure(baseline_penalized, ds, BARE, **params)
                if ds is datasets[2] and fails:
                    assert isinstance(estimate, SingularDesign) and str(alone) == str(estimate)
                else:
                    assert isinstance(estimate, float) and repr(estimate) == repr(alone)

    def test_a_failed_pseudoinverse_falls_back_one_matrix_at_a_time(self, monkeypatch):
        # the SVD of one dataset's mediator-block residual gram raises LinAlgError;
        # the batch it is in does not say which matrix failed, so each is tried
        # alone: that dataset fails, and its group-mates keep their fits
        roles = experiment_roles("B")
        params = PcmParams(**PRESETS[("B", "pcm")])
        datasets = setting_b_chunk()
        alone = [pcm_total_effect(ds, roles, params) for ds in datasets]
        shapes = [(fit.active_x, fit.active_sbar.size) for fit in alone]
        victim = next(i for i, shape in enumerate(shapes) if shapes.count(shape) > 1 and shape[1])
        act = replace(roles, sbar=tuple(roles.sbar[i] for i in alone[victim].active_sbar))
        target = debias_ridges(datasets[victim], act, params).resid_grams[-1]
        svd, stacks = np.linalg.svd, []

        def failing(a, *args, **kwargs):
            if a.shape[-2:] == target.shape and (a == target).all(axis=(-2, -1)).any():
                stacks.append(len(a))
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        fits = pcm_fits(datasets, roles, params)
        monkeypatch.undo()
        # the whole group's batch, then the victim alone
        assert stacks == [shapes.count(shapes[victim]), 1]
        for i, (fit, one) in enumerate(zip(fits, alone)):
            if i == victim:
                assert isinstance(fit, DecompositionFailure)
            else:
                assert repr(fit.to_dict()) == repr(one.to_dict())

    @pytest.mark.parametrize("case", ["setting-B chunk", "treatment inactive"])
    def test_pcm_correct_on_debias_ridges_reproduces_the_fits(self, case, monkeypatch):
        # the one-dataset halves of step 4, on each dataset's active design as the
        # chunk tail received it, give the corrected blocks of the stacked fits
        if case == "setting-B chunk":
            datasets, roles = setting_b_chunk(), experiment_roles("B")
            params = PcmParams(**PRESETS[("B", "pcm")])
        else:
            datasets, roles = [x_inactive_instance(28)], ROLES
            params = default_params(lambda1=0.5, zeta1=0.6, xi1=0.2)
        items, corrections = [], pcm.corrections
        monkeypatch.setattr(pcm, "corrections",
                            lambda batch, p: (items.extend(batch), corrections(batch, p))[1])
        fits = pcm_fits(datasets, roles, params)
        monkeypatch.undo()
        assert len(items) == len(datasets)
        assert any(fit.active_x for fit in fits) == (case == "setting-B chunk")
        for (data, active, stage1_y, stage1_m, weights), fit in zip(items, fits):
            assert repr(fit.to_dict()) == repr(pcm_total_effect(data, roles, params).to_dict())
            blocks = debias_ridges(data, active, params, include_x=fit.active_x)
            corrected = pcm_correct(stage1_y, stage1_m, blocks, weights, params, data.n)
            assert corrected.beta_x == fit.corrected.beta_x
            for name in ("coef_s", "coef_sbar_active", "med_x", "y_on_mediators"):
                mine, theirs = getattr(corrected, name), getattr(fit.corrected, name)
                assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), name

    def test_lapack_calls_scale_with_the_shapes_not_the_datasets(self, monkeypatch):
        roles = experiment_roles("B")
        params = PcmParams(**PRESETS[("B", "pcm")])
        captured = []
        corrections = pcm.corrections
        monkeypatch.setattr(pcm, "corrections",
                            lambda items, p: (captured.extend(items), corrections(items, p))[1])
        pcm_fits(setting_b_chunk(), roles, params)
        monkeypatch.undo()
        calls = []
        for name in ("solve", "svd"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, **k: (
                calls.append(1), _f(*a, **k))[1])

        def count(items):
            calls.clear()
            corrections(items, params)
            return len(calls)

        shapes = {}
        for item in captured:
            shapes.setdefault((item[2].beta_x != 0.0, len(item[1].sbar)), item)
        assert len(captured) == 8 and len(shapes) < len(captured)
        # the whole chunk makes the calls of one dataset of each shape
        assert count(captured) == sum(count([item]) for item in shapes.values())
