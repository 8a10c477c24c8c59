import hashlib
import json

import numpy as np
import pytest

from pcmselect.cli import main
from pcmselect.data import Dataset
from pcmselect.io import (
    load_scm,
    read_dataset_csv,
    save_graph,
    save_scm,
    write_dataset_csv,
)
from pcmselect.errors import DataFormatError
from pcmselect.experiment import METHODS, PRESETS, SETTING_METHODS, experiment_roles
from pcmselect.scm import build_experiment_scm, experiment_criteria_dag


@pytest.fixture
def linear_csv(tmp_path):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(60)
    x = 0.5 * z + rng.standard_normal(60)
    y = 0.7 * x + 0.3 * z  # no noise: exact recovery
    path = tmp_path / "data.csv"
    write_dataset_csv(path, Dataset(np.column_stack([x, y, z]), ("X", "Y", "Z")))
    return path


@pytest.fixture
def roles_file(tmp_path):
    path = tmp_path / "roles.json"
    path.write_text(json.dumps({"x": "X", "y": "Y", "z": ["Z"]}))
    return path


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = Dataset(np.array([[1.25, -2.5], [0.0, 3.125]]), ("a", "b"))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.values, ds.values)
        assert back.columns == ds.columns

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == 3 and err.value.column == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_a_data_error(self, tmp_path, roles_file, cell, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"X,Y,Z\n1.0,2.0,0.5\n2.0,1.0,{cell}\n3.0,0.0,1.5\n")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert err.value.row == 3 and err.value.column == 3
        code = main(["estimate", "--data", str(path), "--roles", str(roles_file),
                     "--method", "backdoor"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(DataFormatError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("text", [
        "X,X,Y\n1.0,2.0,0.5\n2.0,1.0,1.5\n",  # a repeated column name
        "X,Y,Z\n1.0,2.0,0.5\n",  # one data row cannot be standardized
        "",  # an empty file
        "X,,Z\n1.0,2.0,0.5\n2.0,1.0,1.5\n",  # a blank column name
    ])
    def test_malformed_csv_is_a_data_error(self, tmp_path, roles_file, text, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = main(["estimate", "--data", str(path), "--roles", str(roles_file),
                     "--method", "backdoor"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCheckCommand:
    def test_backdoor_verdict_on_benchmark_graph(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        save_graph(graph, experiment_criteria_dag("A"))
        code = main(["check", "--graph", str(graph), "--x", "X", "--y", "Y",
                     "--backdoor", "Z"])
        assert code == 0
        assert "back-door: satisfied" in capsys.readouterr().out

    def test_frontdoor_and_minimal(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        save_graph(graph, experiment_criteria_dag("B"))
        assert main(["check", "--graph", str(graph), "--x", "X", "--y", "Y",
                     "--frontdoor-like", "S,Sbar1", "--z1", "", "--z2", ""]) == 0
        assert "front-door-like: satisfied" in capsys.readouterr().out
        assert main(["check", "--graph", str(graph), "--x", "X", "--y", "Y",
                     "--minimal-mediators"]) == 0
        assert "Sbar1" in capsys.readouterr().out

    def test_unknown_vertex_is_a_data_error(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        save_graph(graph, experiment_criteria_dag("A"))
        code = main(["check", "--graph", str(graph), "--x", "NOPE", "--y", "Y",
                     "--backdoor", "Z"])
        assert code == 2

    @pytest.mark.parametrize("edges, flags, code, message", [
        ("X -> Z\nZ -> Y\n", [], 1,
         "error: choose one of --backdoor, --frontdoor-like, --minimal-mediators\n"),
        ("X -> Z\nZ Y\n", ["--backdoor", ""], 2, "line 2: malformed line 'Z Y'"),
        # the direct edge leaves no set that intercepts every directed path
        ("X -> Y\n", ["--minimal-mediators"], 0, "minimal mediator sets: none\n"),
    ], ids=["no-criterion", "malformed-graph-line", "no-minimal-mediator-set"])
    def test_exit_code_and_message(self, edges, flags, code, message, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text(edges)
        assert main(["check", "--graph", str(graph), "--x", "X", "--y", "Y", *flags]) == code
        captured = capsys.readouterr()
        assert message in (captured.out if code == 0 else captured.err)
        assert "Traceback" not in captured.err


class TestEstimateCommand:
    def test_backdoor_exact_on_noise_free_data(self, linear_csv, roles_file, capsys):
        code = main(["estimate", "--data", str(linear_csv), "--roles", str(roles_file),
                     "--method", "backdoor"])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split(":")[1])
        # data are standardized inside the command, so compare on that scale
        ds = read_dataset_csv(linear_csv).standardized()
        a = ds.values[:, ds.index_of(["X", "Z"])]
        expected = np.linalg.solve(a.T @ a, a.T @ ds.column("Y"))[0]
        assert value == pytest.approx(expected, abs=1e-10)

    def test_mix_summing_to_one_fits(self, setting_csvs, tmp_path, capsys):
        # 1 - 0.8 - 0.2 is -5.6e-17: the candidate-covariate share must clip to 0
        data, roles = setting_csvs["A"]
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({"lambda1": 0.1, "rho1": 0.1, "zeta1": 0.8,
                                           "xi1": 0.2}))
        capsys.readouterr()
        assert main(["estimate", "--data", str(data), "--roles", str(roles),
                     "--method", "pcm", "--params", str(params_file)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert np.isfinite(float(line.split(":")[1]))

    def test_pcm_prints_structured_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(80)
        x = 0.5 * z + rng.standard_normal(80)
        s = 0.6 * x + rng.standard_normal(80)
        y = 0.5 * s + 0.2 * z + rng.standard_normal(80)
        data = tmp_path / "d.csv"
        write_dataset_csv(data, Dataset(np.column_stack([x, y, s, z]),
                                        ("X", "Y", "S", "Z")))
        roles = tmp_path / "r.json"
        roles.write_text(json.dumps({"x": "X", "y": "Y", "z": ["Z"], "s": ["S"]}))
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"lambda1": 0.05, "rho1": 0.0, "zeta1": 0.2,
                                      "xi1": 0.0, "pilot_lambda": 0.5, "pilot_rho": 0.5}))
        code = main(["estimate", "--data", str(data), "--roles", str(roles),
                     "--method", "pcm", "--params", str(params)])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "total_effect" in payload and "corrected" in payload

    def test_missing_params_is_usage_error(self, linear_csv, roles_file, capsys):
        code = main(["estimate", "--data", str(linear_csv), "--roles", str(roles_file),
                     "--method", "pcm"])
        assert code == 1

    def test_missing_column_is_usage_error(self, linear_csv, tmp_path, capsys):
        roles = tmp_path / "r.json"
        roles.write_text(json.dumps({"x": "X", "y": "Y", "z": ["ABSENT"]}))
        code = main(["estimate", "--data", str(linear_csv), "--roles", str(roles),
                     "--method", "backdoor"])
        assert code == 1


def exit_code(argv) -> int:
    """``main``'s exit code, whether returned or raised by the argument parser."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def setting_csvs(tmp_path_factory):
    """n=60 samples of settings A and B with their role files."""
    root = tmp_path_factory.mktemp("settings")
    files = {}
    for setting in ("A", "B"):
        data, roles = root / f"{setting}.csv", root / f"{setting}.json"
        assert main(["simulate", "--scm", setting, "--n", "60", "--seed", "11",
                     "--out", str(data)]) == 0
        roles.write_text(json.dumps(experiment_roles(setting).to_dict()))
        files[setting] = (data, roles)
    return files


class TestCliMatchesRegistry:
    @pytest.mark.parametrize("name", list(METHODS))
    def test_estimate_prints_the_registry_estimate(self, name, setting_csvs, tmp_path,
                                                   capsys):
        setting = "A" if name in SETTING_METHODS["A"] else "B"
        params = dict(PRESETS[(setting, name)])
        if name == "frontdoor-minimal":
            params["mediators"] = ["S", "Sbar1"]
        data, roles = setting_csvs[setting]
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params))
        capsys.readouterr()
        assert main(["estimate", "--data", str(data), "--roles", str(roles),
                     "--method", name, "--params", str(params_file)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        printed = float(line.split(":")[1])
        (expected,) = METHODS[name].estimate([read_dataset_csv(data).standardized()],
                                             experiment_roles(setting), params)
        assert printed == expected

    def test_unknown_param_key_is_usage_error(self, setting_csvs, tmp_path, capsys):
        data, roles = setting_csvs["A"]
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({"lam": 0.4, "lambda": 0.4}))
        assert main(["estimate", "--data", str(data), "--roles", str(roles),
                     "--method", "lasso", "--params", str(params_file)]) == 1
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("lam2", 0.01), ("xi2", 0.5)])
    def test_pal1ma_has_no_debiasing_ridge_keys(self, key, value, setting_csvs, tmp_path,
                                                capsys):
        # its zero treatment share leaves the treatment's debiasing ridge unread
        data, roles = setting_csvs["A"]
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({"lam": 0.294, key: value}))
        assert main(["estimate", "--data", str(data), "--roles", str(roles),
                     "--method", "pal1ma", "--params", str(params_file)]) == 1
        assert f"unknown parameter(s) {key} for pal1ma" in capsys.readouterr().err

    @pytest.mark.parametrize("name, params, roles", [
        ("lasso", {"lam": -1}, None),
        ("elastic-net", {"lam": 0.1, "phi": 2}, None),
        ("adaptive-lasso", {"lam": 0.407, "pilot_lam": -1}, None),
        ("pal1ma", {"lam": 0.294, "eta": -1}, None),
        ("frontdoor-whole", {}, {"x": "X", "y": "Y", "z": ["Z"]}),
        ("lasso", {"lam": float("inf")}, None),
        ("pcm", {"lambda1": float("nan"), "rho1": 0.1, "zeta1": 0.2, "xi1": 0.2}, None),
        ("pcm", {"lambda1": float("inf"), "rho1": 0.1, "zeta1": 0.2, "xi1": 0.2}, None),
        ("pcm", {"lambda1": 0.1, "rho1": 0.1, "zeta1": float("nan"), "xi1": 0.2}, None),
        ("backdoor", {}, ["X", "Y"]),
        ("backdoor", {}, {"x": "X", "y": "Y", "z": 5}),
        ("backdoor", {}, {"x": "X", "y": "Y", "z": "Z"}),
        ("backdoor", {"z": 5}, None),
        ("backdoor", {"z": "Z"}, None),
        ("frontdoor-including-x", {"mediators": "S"}, None),
        ("frontdoor-not-including-x", {"z1": [1]}, None),
        ("lasso", {"lam": "0.1"}, None),
        ("lasso", {"lam": True}, None),
        ("elastic-net", {"lam": 0.1, "phi": None}, None),
        ("adaptive-lasso", {"lam": 0.407, "eta": [1.0]}, None),
        ("pal1ma", {"lam": 0.294, "pilot_lam": "1"}, None),
        ("pcm", {"lambda1": "0.1", "rho1": 0.1, "zeta1": 0.2, "xi1": 0.2}, None),
        ("pcm", {"lambda1": 0.1, "rho1": True, "zeta1": 0.2, "xi1": 0.2}, None),
        ("backdoor", {}, {"x": "X", "y": "Y", "z_bar": ["Z"]}),
        ("backdoor", {}, {"x": "X", "y": "Y", "z": ["Z"], "zbar": ["Z"]}),
        ("backdoor", {}, {"y": "Y", "z": ["Z"]}),
        ("backdoor", {}, {"x": 5, "y": "Y", "z": ["Z"]}),
        ("backdoor", "{not json", None),  # a --params file that is not JSON
    ])
    def test_out_of_range_value_is_usage_error(self, name, params, roles, setting_csvs,
                                               tmp_path, capsys):
        data, roles_file = setting_csvs["A"]
        if roles is not None:
            roles_file = tmp_path / "roles.json"
            roles_file.write_text(json.dumps(roles))
        params_file = tmp_path / "params.json"
        params_file.write_text(params if isinstance(params, str) else json.dumps(params))
        capsys.readouterr()
        assert main(["estimate", "--data", str(data), "--roles", str(roles_file),
                     "--method", name, "--params", str(params_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "total effect estimate" not in captured.out


class TestEstimateCrossValidation:
    GRID = {"lambda1": [0.05, 0.2], "rho1": [0.1], "zeta1": [0.2], "xi1": [0.3],
            "pilot_lambda": [1.0, 3.0], "pilot_rho": [1.0], "folds": 3}
    # the debiasing ridges, which pcm's CV does not tune
    UNTUNED = {"lambda2": 0.05, "xi2": 0.3, "rho2": 0.02, "rho2_prime": 0.03}

    def estimate_line(self, capsys, argv, params, tmp_path) -> str:
        """The estimate line of ``estimate`` with ``--params`` holding ``params``."""
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        capsys.readouterr()
        assert main(["estimate", *argv, "--params", str(path)]) == 0
        return capsys.readouterr().out.splitlines()[0]

    def test_cv_prints_the_tuned_values_and_keeps_the_untuned_keys(self, setting_csvs,
                                                                   tmp_path, capsys):
        data, roles = setting_csvs["A"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(self.GRID))
        common = ["--data", str(data), "--roles", str(roles), "--method", "pcm"]
        capsys.readouterr()
        assert main(["tune", *common, "--grid", str(grid)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("chosen parameters:")]
        chosen = json.loads(line.split(":", 1)[1])
        params = tmp_path / "untuned.json"
        params.write_text(json.dumps(self.UNTUNED))
        assert main(["estimate", *common, "--cv", "--grid", str(grid),
                     "--params", str(params)]) == 0
        selected, estimate = capsys.readouterr().out.splitlines()[:2]
        assert selected.startswith("cross-validation selected:")
        assert json.loads(selected.split(":", 1)[1]) == chosen
        assert estimate == self.estimate_line(capsys, common, {**self.UNTUNED, **chosen},
                                              tmp_path)
        # the untuned keys reach the estimate
        assert estimate != self.estimate_line(capsys, common, chosen, tmp_path)

    @pytest.mark.parametrize("method, params, flag, message", [
        ("backdoor", {}, "--cv", "backdoor has no parameters to cross-validate"),
        ("lasso", {"lam": 0.1}, "--grid", "--grid is read only with --cv"),
    ], ids=["cv-of-untuned-method", "grid-without-cv"])
    def test_cv_of_an_untuned_method_or_a_grid_without_cv_is_usage_error(
            self, method, params, flag, message, linear_csv, roles_file, tmp_path, capsys):
        paths = {key: tmp_path / f"{key}.json" for key in ("grid", "params")}
        paths["grid"].write_text(json.dumps({"lam": [0.1]}))
        paths["params"].write_text(json.dumps(params))
        capsys.readouterr()
        assert main(["estimate", "--data", str(linear_csv), "--roles", str(roles_file),
                     "--method", method, "--params", str(paths["params"]),
                     *([flag] if flag == "--cv" else [flag, str(paths["grid"])])]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "total effect estimate" not in captured.out


class TestTuneCommand:
    @pytest.mark.parametrize("grid, method", [
        ({"lam": [0.1], "lamda": [0.2]}, "lasso"),
        ({"lam": [-0.1]}, "lasso"),
        ({"lam": [0.1], "folds": 1}, "lasso"),
        ({"lam": [0.1]}, "nope"),
        ({"lam": [float("nan")]}, "lasso"),
        ({"lambda1": [float("nan"), 0.1]}, "pcm"),
        ({"lambda2": [0.01, 0.1]}, "pcm"),
        ({"zeta1": [float("nan"), 0.2]}, "pcm"),
        ({"zeta1": [0.5], "xi1": [0.5 + 1e-10]}, "pcm"),
        ({"lam": [0.1], "fold_seed": "x"}, "lasso"),
        ({"lam": [0.1], "fold_seed": -1}, "lasso"),
        ({"lam": [0.1], "folds": 2.5}, "lasso"),
        ({"phi": [2.0]}, "elastic-net"),
        ({"lam": "12"}, "lasso"),
        ({"lam": [0.1], "pilot_lambda": "5"}, "adaptive-lasso"),
        ({"lam": [True]}, "lasso"),
        ({"lam": [0.1], "fold_seed": True}, "lasso"),
        ({"lam": [0.1], "folds": True}, "lasso"),
        ({"zeta1": "5"}, "pcm"),
        ({"zeta_xi": [["0.1", "0.2"]]}, "pcm"),
        ({"zeta_xi": [[True, False]]}, "pcm"),
        ([["lam", [0.1]], ["folds", 3]], "lasso"),
        ([], "pcm"),
    ])
    def test_bad_grid_or_method_is_usage_error(self, linear_csv, roles_file, tmp_path,
                                               capsys, grid, method):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        code = exit_code(["tune", "--data", str(linear_csv), "--roles", str(roles_file),
                          "--method", method, "--grid", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_roles_naming_an_absent_column_is_usage_error(self, linear_csv, tmp_path, capsys):
        roles = tmp_path / "r.json"
        roles.write_text(json.dumps({"x": "X", "y": "Y", "z": ["ABSENT"]}))
        assert main(["tune", "--data", str(linear_csv), "--roles", str(roles),
                     "--method", "lasso"]) == 1
        assert capsys.readouterr().err == "error: dataset lacks role columns: ['ABSENT']\n"

    def test_tune_grid_with_mix_summing_to_one(self, setting_csvs, tmp_path, capsys):
        data, roles = setting_csvs["A"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lambda1": [0.1], "rho1": [0.1], "zeta1": [0.8],
                                    "xi1": [0.2], "pilot_lambda": [1.0],
                                    "pilot_rho": [1.0], "folds": 3}))
        assert main(["tune", "--data", str(data), "--roles", str(roles),
                     "--method", "pcm", "--grid", str(grid)]) == 0
        assert '"zeta1": 0.8' in capsys.readouterr().out

    def test_writes_score_table(self, linear_csv, roles_file, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.0, 0.5], "folds": 3}))
        out = tmp_path / "table.csv"
        code = main(["tune", "--data", str(linear_csv), "--roles", str(roles_file),
                     "--method", "lasso", "--grid", str(grid), "--out", str(out)])
        assert code == 0
        assert "chosen parameters" in capsys.readouterr().out
        assert out.read_text().startswith("lam,mean_score")


class TestSimulateCommand:
    def test_benchmark_setting(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--scm", "A", "--n", "20", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        ds = read_dataset_csv(out)
        assert ds.n == 20 and len(ds.columns) == 19

    def test_model_file_round_trip(self, tmp_path):
        from test_experiment import tiny_custom_config

        cfg = tiny_custom_config()
        model = tmp_path / "scm.json"
        scm, _ = load_scm_from_payload(cfg.scm_payload)
        save_scm(model, scm)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--scm", str(model), "--n", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        assert read_dataset_csv(out).n == 10

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_n_is_usage_error(self, tmp_path, n, capsys):
        code = exit_code(["simulate", "--scm", "A", "--n", n, "--seed", "5",
                          "--out", str(tmp_path / "sim.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("block", [
        {"vertices": ["Z"]},
        {"vertices": ["Z"], "correlation": [[1.0, 0.0], [0.0, 1.0]]},
    ])
    def test_model_without_its_block_correlation_is_a_data_error(self, tmp_path, block,
                                                                  capsys):
        from test_experiment import tiny_custom_config

        model = tmp_path / "scm.json"
        model.write_text(json.dumps({**tiny_custom_config().scm_payload,
                                     "correlated_block": block}))
        code = exit_code(["simulate", "--scm", str(model), "--n", "10", "--seed", "1",
                          "--out", str(tmp_path / "sim.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_unknown_model_key_is_a_data_error(self, tmp_path, capsys):
        from test_experiment import tiny_custom_config

        model = tmp_path / "scm.json"
        model.write_text(json.dumps({**tiny_custom_config().scm_payload, "correlated_blocks": {
            "vertices": ["Z"], "correlation": [[1.0]]}}))
        code = exit_code(["simulate", "--scm", str(model), "--n", "10", "--seed", "1",
                          "--out", str(tmp_path / "sim.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "correlated_blocks" in err, err
        with pytest.raises(DataFormatError, match="correlated_blocks"):
            load_scm(model)

    def test_model_file_csv_bytes_are_fixed(self, tmp_path):
        # a model without a correlated block samples without BLAS, so its CSV
        # for a fixed seed has the same bytes on every platform
        from test_experiment import tiny_custom_config

        model, out = tmp_path / "scm.json", tmp_path / "sim.csv"
        save_scm(model, load_scm_from_payload(tiny_custom_config().scm_payload)[0])
        assert main(["simulate", "--scm", str(model), "--n", "15", "--seed", "7",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7800ea9e4d8a57fb2dee1d227a28a0d11e5d2f473a5329fc1dbc6a4626eda223")

    def test_setting_csv_is_the_vertex_by_vertex_sample(self, tmp_path):
        from oracles import sample_vertex_by_vertex

        out, expected = tmp_path / "sim.csv", tmp_path / "expected.csv"
        assert main(["simulate", "--scm", "A", "--n", "15", "--seed", "7",
                     "--out", str(out)]) == 0
        build_seed, sample_seed = np.random.SeedSequence(7).spawn(2)
        scm, spec, _ = build_experiment_scm("A", np.random.default_rng(build_seed))
        values = sample_vertex_by_vertex(scm, 15, np.random.default_rng(sample_seed), spec)
        write_dataset_csv(expected, Dataset(values, scm.dag.vertices))
        assert out.read_bytes() == expected.read_bytes()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--scm", "B", "--n", "12", "--seed", "9", "--out", str(a)])
        main(["simulate", "--scm", "B", "--n", "12", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def load_scm_from_payload(payload):
    from pcmselect.scm import LinearScm

    return LinearScm.from_dict(payload)


class TestExperimentCommand:
    def write_config(self, tmp_path, seed=3, workers=1):
        from test_experiment import tiny_custom_config

        cfg = tiny_custom_config(replications=5, workers=workers)
        payload = {
            "setting": "custom", "n": 40, "replications": 5, "seed": seed,
            "workers": workers,
            "scm": cfg.scm_payload, "roles": cfg.roles.to_dict(),
            "methods": [
                {"name": "backdoor"},
                {"name": "frontdoor-including-x",
                 "params": {"mediators": ["M"], "z1": ["Z"], "z2": ["Z"]}},
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_end_to_end_and_determinism(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["experiment", "--config", str(config), "--out-dir", str(out1)]) == 0
        assert main(["experiment", "--config", str(config), "--out-dir", str(out2)]) == 0
        assert (out1 / "estimates.csv").read_bytes() == (out2 / "estimates.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        summary = (out1 / "summary.csv").read_text().splitlines()
        assert summary[0] == "method,mean,sd,bias,sign,failures,params"
        assert len(summary) == 3

    def test_worker_counts_agree_bytewise(self, tmp_path):
        c1 = self.write_config(tmp_path, workers=1)
        out1 = tmp_path / "w1"
        main(["experiment", "--config", str(c1), "--out-dir", str(out1)])
        c2 = self.write_config(tmp_path, workers=2)
        out2 = tmp_path / "w2"
        main(["experiment", "--config", str(c2), "--out-dir", str(out2)])
        assert (out1 / "estimates.csv").read_bytes() == (out2 / "estimates.csv").read_bytes()

    def test_summary_round_trips_through_estimates(self, tmp_path):
        from pcmselect.experiment import summarize

        config = self.write_config(tmp_path)
        out = tmp_path / "run"
        main(["experiment", "--config", str(config), "--out-dir", str(out)])
        rows = (out / "estimates.csv").read_text().strip().splitlines()[1:]
        by_method = {}
        for line in rows:
            rep, method, value = line.split(",")
            by_method.setdefault(method, []).append(float(value))
        summary_lines = (out / "summary.csv").read_text().strip().splitlines()[1:]
        true_tau = 0.35
        for line in summary_lines:
            cells = line.split(",")
            mean, sd, bias, sign = summarize(by_method[cells[0]], true_tau)
            assert float(cells[1]) == mean
            assert float(cells[2]) == sd
            assert float(cells[4]) == sign

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        valid = json.loads(self.write_config(tmp_path).read_text())
        del valid["workers"]
        block = {"vertices": ["Z"]}
        cases = [
            {"setting": "B", "n": 15, "replications": 2, "seed": 1,
             "methods": [{"name": "backdoor"}]},
            {**valid, "n": "abc"},
            {**valid, "seed": "x"},
            {**valid, "workers": "two"},
            {**valid, "methods": ["pcm"]},
            [valid],
            {**valid, "n": 15.9},
            {**valid, "replications": True},
            {**valid, "replications": 2.7},
            {**valid, "seed": 0.5},
            {**valid, "seed": -1},
            {**valid, "workers": -4},
            {**valid, "workers": 0},
            {**valid, "workers": True},
            {**valid, "scm": {k: v for k, v in valid["scm"].items() if k != "edges"}},
            {**valid, "scm": [valid["scm"]]},
            {**valid, "roles": {**valid["roles"], "z": ["Q"]}},
            {**valid, "scm": {**valid["scm"], "correlated_block": block}},
            {**valid, "scm": {**valid["scm"], "correlated_block": {
                **block, "correlation": [[1.0, 0.0], [0.0, 1.0]]}}},
            # the direct X -> Y edge leaves no front-door mediator set
            {**valid, "scm": {**valid["scm"], "edges": valid["scm"]["edges"] + [
                {"from": "X", "to": "Y", "coef": 0.2}]},
             "methods": [{"name": "frontdoor-minimal"}]},
            {k: v for k, v in valid.items() if k != "replications"},
            {**valid, "methods": []},
            {**valid, "setting": "Q", "scm": None, "roles": None},
        ]
        # a key that nothing reads is named in the error
        setting_b = {"setting": "B", "n": 15, "replications": 2, "seed": 1,
                     "methods": [{"name": "pcm"}]}
        unread = [
            ({**valid, "roles": {**valid["roles"], "z_bar": ["Z"]}}, "z_bar"),
            ({**valid, "methods": [{"name": "backdoor", "parmas": {"z": []}}]}, "parmas"),
            ({**valid, "worker": 2}, "worker"),
            ({**valid, "scm": {**valid["scm"], "correlated_blocks": {
                **block, "correlation": [[1.0]]}}}, "correlated_blocks"),
            ({**setting_b, "roles": valid["roles"]}, "roles"),
            ({**setting_b, "setting": "A", "methods": [{"name": "backdoor"}],
              "scm": valid["scm"]}, "scm"),
            ({**setting_b, "methods": [{"name": "pal1ma", "params": {"lam": 0.3, "xi2": 0.5}}],
              "setting": "A"}, "xi2"),
        ]
        # a method label that is not a string, or that would break the CSV files
        labels = [({**valid, "methods": [{"name": "backdoor", "label": label}]}, repr(label))
                  for label in (5, "backdoor, preset", 'say "backdoor"', "back\ndoor", "back\r")]
        path = tmp_path / "bad.json"
        for config, key in [(config, "") for config in cases] + unread + labels:
            path.write_text(json.dumps(config))
            capsys.readouterr()
            code = main(["experiment", "--config", str(path), "--out-dir", str(tmp_path)])
            assert code == 1, config
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, (config, err)
            assert key in err, (config, err)

    def test_vertex_named_like_the_coupling_latent(self, tmp_path):
        """The latent that ``coupling_dag`` adds over the correlated block takes
        a name no model vertex has, so frontdoor-minimal finds its mediators."""
        edges = [("_L", "X", 0.5), ("X", "M", 0.7), ("M", "Y", 0.5), ("_L", "Y", 0.4)]
        payload = {
            "setting": "custom", "n": 40, "replications": 3, "seed": 1,
            "scm": {"vertices": ["_L", "X", "M", "Y"],
                    "edges": [{"from": a, "to": b, "coef": c} for a, b, c in edges],
                    "error_variances": {"_L": 1.0, "X": 0.75, "M": 0.5, "Y": 0.5},
                    "correlated_block": {"vertices": ["_L"], "correlation": [[1.0]]}},
            "roles": {"x": "X", "y": "Y", "s": ["M"]},
            "methods": [{"name": "frontdoor-minimal"}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out-dir", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("frontdoor-minimal,") and "'mediators': ['M']" in summary[1]

    def test_missing_file_is_usage_error(self):
        assert main(["experiment", "--config", "/nonexistent/config.json"]) in (1, 2)
