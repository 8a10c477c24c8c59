import json

import numpy as np
import pytest

from pcmselect.baselines import back_door_estimate, front_door_like_estimate
from pcmselect.cli import NUMERIC_ERROR, main
from pcmselect.data import Dataset, RolePartition
from pcmselect.errors import ConfigInvalid, PcmSelectError, SingularDesign
from pcmselect.io import write_dataset_csv
from pcmselect.experiment import METHODS, check_params
from pcmselect.pcm import PcmParams, pcm_total_effect
from pcmselect.solvers import ols_solve

from test_pcm import random_instance  # shared generator


BASE_ROLES = RolePartition(x="X", y="Y", z=("Z1",), zbar=("Zb1", "Zb2"))
PENALIZED = ("lasso", "adaptive-lasso", "elastic-net", "pal1ma")


def estimate(name, ds, **params):
    """The registry estimate of ``name`` on ``ds``, raising its failure."""
    (est,) = METHODS[name].estimate([ds], BASE_ROLES, params)
    if isinstance(est, PcmSelectError):
        raise est
    return est


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
        for method in PENALIZED:
            pilot = {"pilot_lam": 0.5} if "pilot_lam" in METHODS[method].allowed else {}
            est = estimate(method, ds, lam=0.0, **pilot)
            assert est == pytest.approx(ols_x, abs=1e-8), method

    def test_huge_penalty_kills_the_treatment_for_lasso_family(self):
        ds = random_instance(46)
        for method in ("lasso", "elastic-net"):
            assert estimate(method, ds, lam=1e4) == 0.0

    def test_adaptive_lasso_eta_zero_matches_lasso(self):
        ds = random_instance(47)
        lam = 0.015
        a = estimate("adaptive-lasso", ds, lam=lam, eta=0.0, pilot_lam=0.5)
        assert a == estimate("lasso", ds, lam=lam)

    def test_elastic_net_phi_one_is_lasso(self):
        ds = random_instance(48)
        lam = 0.02
        assert estimate("elastic-net", ds, lam=lam, phi=1.0) == estimate("lasso", ds, lam=lam)

    def test_keys_left_out_take_their_defaults(self):
        ds = random_instance(49)
        defaults = {"lasso": {}, "adaptive-lasso": {"eta": 1.0, "pilot_lam": 1.0},
                    "elastic-net": {"phi": 0.5},
                    "pal1ma": {"eta": 1.0, "pilot_lam": 1.0}}
        for method in PENALIZED:
            assert METHODS[method].allowed == {"lam", *defaults[method]}
            assert estimate(method, ds, lam=0.03) == estimate(method, ds, lam=0.03,
                                                              **defaults[method]), method

    def test_cv_scores_the_fit_that_estimates(self):
        ds = random_instance(50)
        for method, params in (("lasso", {}), ("adaptive-lasso", {"eta": 0.5, "pilot_lam": 2.0}),
                               ("elastic-net", {"phi": 0.7})):
            entry = METHODS[method]
            assert (entry.pilot is None) == ("pilot_lam" not in params)
            keys = {key: value for key, value in params.items() if key != "pilot_lam"}
            pilots = entry.pilot and [fits[0] for fits in entry.pilot([ds], BASE_ROLES,
                                                                      [params["pilot_lam"]])]
            ((beta,),) = entry.fit([ds], BASE_ROLES, pilots, [0.03], **keys)
            assert beta[0] == estimate(method, ds, lam=0.03, **params), method

    @pytest.mark.parametrize("method, keys", [
        ("lasso", {}), ("adaptive-lasso", {"eta": 0.5}), ("elastic-net", {"phi": 0.7}),
        ("elastic-net", {"phi": 1.0}), ("pal1ma", {"eta": 2.0})])
    def test_a_lam_grid_equals_each_lam_fitted_alone(self, method, keys):
        # the third dataset has fewer rows than regressors, so its least-squares
        # pilot fails, and that failure is its result
        datasets = [random_instance(51), random_instance(52, n=30), random_instance(53, n=3)]
        entry = METHODS[method]
        pilots = entry.pilot and [fits[0] for fits in entry.pilot(datasets, BASE_ROLES, [0.0])]
        lams = [0.5, 0.1, 0.03, 0.01, 0.0]
        grid = entry.fit(datasets, BASE_ROLES, pilots, lams, **keys)
        alone = [entry.fit(datasets, BASE_ROLES, pilots, [lam], **keys) for lam in lams]
        if pilots:
            assert isinstance(pilots[2], PcmSelectError) and grid[2] is pilots[2]
            assert all(fits[2] is pilots[2] for fits in alone)
            datasets = datasets[:2]
        for d in range(len(datasets)):
            assert len(grid[d]) == len(lams)
            for fit, (one,) in zip(grid[d], (fits[d] for fits in alone)):
                assert fit.tobytes() == one.tobytes(), (method, d)

    def test_unknown_method(self):
        for method in ("ridge", "adaptive_lasso", "elastic_net"):
            assert method not in METHODS
            with pytest.raises(ConfigInvalid):
                check_params(method, {"lam": 0.1}, BASE_ROLES)


class TestPal1maReduction:
    def test_equals_pipeline_with_no_mediators(self):
        for seed in range(6):
            ds = random_instance(50 + seed)
            lam, pilot = 0.05, 0.5
            direct = estimate("pal1ma", ds, lam=lam, eta=1.0, pilot_lam=pilot)
            fit = pcm_total_effect(
                ds, BASE_ROLES,
                PcmParams(lambda1=lam, rho1=0.0, zeta1=0.0, xi1=0.0,
                          pilot_lambda=pilot, pilot_rho=pilot,
                          lambda2=0.01, xi2=0.5, rho2=0.0, rho2_prime=0.0),
            )
            assert direct == fit.total_effect  # exact, same arithmetic path

    def test_strong_penalty_prunes_candidates_but_keeps_x(self):
        ds = random_instance(56)
        est = estimate("pal1ma", ds, lam=5.0, pilot_lam=0.5)
        # with every candidate covariate dropped this is the (x, z) slope
        a = ds.values[:, ds.index_of(["X", "Z1"])]
        expected = ols_solve(a.T @ a, a.T @ ds.column("Y"))[0]
        assert est == pytest.approx(expected, abs=1e-8)


def near_copy_sample():
    """n=40 rows of X, Y and three candidate covariates, Z2 a copy of Z1 up to 1e-9
    noise, so the least-squares design gram on [X, Z1, Z2, Z3] is ill conditioned."""
    rng = np.random.default_rng(3)
    z1, z3, x = rng.standard_normal((3, 40))
    z2 = z1 + 1e-9 * rng.standard_normal(40)
    x = x + 0.5 * z1
    y = 0.5 * x + 0.4 * z1 + 0.3 * z3 + rng.standard_normal(40)
    return (Dataset(np.column_stack([x, y, z1, z2, z3]), ("X", "Y", "Z1", "Z2", "Z3")),
            RolePartition(x="X", y="Y", zbar=("Z1", "Z2", "Z3")))


class TestZeroPilot:
    """At pilot_lam = 0 every ridge pilot is least squares through the rank guard of
    ``solvers.ols_batch``: adaptive-lasso's as pal1ma's and pcm's."""

    @pytest.mark.parametrize("name", ["adaptive-lasso", "pal1ma"])
    def test_an_ill_conditioned_pilot_fails(self, name, tmp_path, capsys):
        raw, roles = near_copy_sample()
        params = {"lam": 0.05, "pilot_lam": 0.0}
        (result,) = METHODS[name].estimate([raw.standardized()], roles, params)
        assert isinstance(result, SingularDesign)
        assert "design gram condition number" in str(result) and "exceeds limit" in str(result)
        # a positive pilot penalty fits
        (ridge,) = METHODS[name].estimate([raw.standardized()], roles, {**params, "pilot_lam": 1e-3})
        assert isinstance(ridge, float)
        # the CLI reports the same failure as a numerical error
        paths = {key: tmp_path / f"{key}.json" for key in ("roles", "params")}
        paths["roles"].write_text(json.dumps(roles.to_dict()))
        paths["params"].write_text(json.dumps(params))
        write_dataset_csv(tmp_path / "data.csv", raw)
        capsys.readouterr()
        assert main(["estimate", "--data", str(tmp_path / "data.csv"), "--roles",
                     str(paths["roles"]), "--method", name, "--params",
                     str(paths["params"])]) == NUMERIC_ERROR == 3
        assert capsys.readouterr().err.strip() == f"error: {result}"
