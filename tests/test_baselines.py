import numpy as np
import pytest

from pcmselect.baselines import (
    back_door_estimate,
    baseline_penalized,
    front_door_like_estimate,
    pal1ma_estimate,
)
from pcmselect.data import Dataset, RolePartition
from pcmselect.pcm import PcmParams, pcm_total_effect
from pcmselect.solvers import ols_solve

from test_pcm import random_instance  # shared generator


BASE_ROLES = RolePartition(x="X", y="Y", z=("Z1",), zbar=("Zb1", "Zb2"))


class TestBackDoor:
    def test_no_adjustment_is_simple_slope(self):
        ds = random_instance(40)
        x, y = ds.column("X"), ds.column("Y")
        expected = float(x @ y) / float(x @ x)
        assert back_door_estimate(ds, "X", "Y") == pytest.approx(expected, abs=1e-12)

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(41)
        z = rng.standard_normal(50)
        x = rng.standard_normal(50)
        y = 0.7 * x + 0.3 * z
        ds = Dataset(np.column_stack([x, y, z]), ("X", "Y", "Z"))
        assert back_door_estimate(ds, "X", "Y", ["Z"]) == pytest.approx(0.7, abs=1e-10)


class TestFrontDoorLike:
    def test_unconfounded_chain_product(self):
        rng = np.random.default_rng(42)
        n = 100_000
        x = rng.standard_normal(n)
        s = 0.8 * x + rng.standard_normal(n) * 0.6
        y = 0.4 * s + rng.standard_normal(n) * np.sqrt(0.84)
        ds = Dataset(np.column_stack([x, y, s]), ("X", "Y", "S")).standardized()
        est = front_door_like_estimate(ds, "X", "Y", ["S"])
        assert est == pytest.approx(0.32, abs=0.01)

    def test_include_x_flag_changes_second_stage(self):
        ds = random_instance(43)
        with_x = front_door_like_estimate(ds, "X", "Y", ["S1"], ["Z1"], ["Z1"],
                                          include_x_in_second_stage=True)
        without = front_door_like_estimate(ds, "X", "Y", ["S1"], ["Z1"], ["Z1"],
                                           include_x_in_second_stage=False)
        assert with_x != without

    def test_needs_mediators(self):
        ds = random_instance(44)
        with pytest.raises(ValueError):
            front_door_like_estimate(ds, "X", "Y", [])


class TestPenalizedBaselines:
    def test_zero_penalty_reduces_to_ols_for_every_method(self):
        ds = random_instance(45)
        cols = ["X", "Z1", "Zb1", "Zb2"]
        a = ds.values[:, ds.index_of(cols)]
        ols_x = ols_solve(a.T @ a, a.T @ ds.column("Y"))[0]
        for method in ("lasso", "adaptive-lasso", "elastic-net", "pal1ma"):
            est = baseline_penalized(ds, BASE_ROLES, method, 0.0, pilot_lam=0.5)
            assert est == pytest.approx(ols_x, abs=1e-8), method

    def test_huge_penalty_kills_the_treatment_for_lasso_family(self):
        ds = random_instance(46)
        for method in ("lasso", "elastic-net"):
            assert baseline_penalized(ds, BASE_ROLES, method, 1e4) == 0.0

    def test_adaptive_lasso_eta_zero_matches_lasso(self):
        ds = random_instance(47)
        lam = 0.015
        a = baseline_penalized(ds, BASE_ROLES, "adaptive-lasso", lam, eta=0.0, pilot_lam=0.5)
        b = baseline_penalized(ds, BASE_ROLES, "lasso", lam)
        assert a == pytest.approx(b, abs=1e-10)

    def test_elastic_net_phi_one_is_lasso(self):
        ds = random_instance(48)
        lam = 0.02
        a = baseline_penalized(ds, BASE_ROLES, "elastic-net", lam, phi=1.0)
        b = baseline_penalized(ds, BASE_ROLES, "lasso", lam)
        assert a == pytest.approx(b, abs=1e-12)

    def test_unknown_method(self):
        ds = random_instance(49)
        for method in ("ridge", "adaptive_lasso", "elastic_net"):
            with pytest.raises(ValueError):
                baseline_penalized(ds, BASE_ROLES, method, 0.1)


class TestPal1maReduction:
    def test_equals_pipeline_with_no_mediators(self):
        for seed in range(6):
            ds = random_instance(50 + seed)
            lam, pilot, lam2, xi2 = 0.05, 0.5, 0.01, 0.5
            direct = pal1ma_estimate(ds, BASE_ROLES, lam, eta=1.0, pilot_lam=pilot,
                                     lam2=lam2, xi2=xi2)
            fit = pcm_total_effect(
                ds, BASE_ROLES,
                PcmParams(lambda1=lam, rho1=0.0, zeta1=0.0, xi1=0.0,
                          pilot_lambda=pilot, pilot_rho=pilot,
                          lambda2=lam2, xi2=xi2, rho2=0.0, rho2_prime=0.0),
            )
            assert direct == fit.total_effect  # exact, same arithmetic path

    def test_strong_penalty_prunes_candidates_but_keeps_x(self):
        ds = random_instance(56)
        est = pal1ma_estimate(ds, BASE_ROLES, 5.0, pilot_lam=0.5)
        # with every candidate covariate dropped this is the (x, z) slope
        a = ds.values[:, ds.index_of(["X", "Z1"])]
        expected = ols_solve(a.T @ a, a.T @ ds.column("Y"))[0]
        assert est == pytest.approx(expected, abs=1e-8)
