import numpy as np
import pytest

from pcmselect.errors import ExplainedVarianceExceedsOne
from pcmselect.graphs import Dag
from pcmselect.scm import (
    CovarianceSpec,
    LinearScm,
    build_experiment_scm,
    coupling_dag,
    experiment_criteria_dag,
    random_correlation,
)
from pcmselect.scm import _experiment_edges, EXPERIMENT_VERTICES

from oracles import sample_vertex_by_vertex, total_effect_by_path_enumeration


def chain_scm(a_sx=0.8, a_ys=0.4):
    dag = Dag(["X", "S", "Y"], [("X", "S"), ("S", "Y")])
    scm = LinearScm(dag, {("X", "S"): a_sx, ("S", "Y"): a_ys},
                    {v: 1.0 for v in dag.vertices})
    return scm.calibrate_unit_variance()


class TestPopulationCovariance:
    def test_chain_cross_covariance_is_path_product(self):
        scm = chain_scm()
        sigma = scm.population_covariance()
        idx = {v: i for i, v in enumerate(scm.dag.vertices)}
        assert sigma[idx["X"], idx["Y"]] == pytest.approx(0.8 * 0.4)

    def test_no_edges_gives_diagonal(self):
        dag = Dag(["a", "b"], [])
        scm = LinearScm(dag, {}, {"a": 2.0, "b": 3.0})
        np.testing.assert_allclose(scm.population_covariance(), np.diag([2.0, 3.0]))

    def test_sampling_matches_analytic_covariance(self):
        rng = np.random.default_rng(7)
        scm, spec, _ = build_experiment_scm("A", rng)
        sigma = scm.population_covariance(spec)
        draws = scm.sample(200_000, np.random.default_rng(8), spec)
        np.testing.assert_allclose(np.cov(draws.T, bias=True), sigma, atol=0.02)


class TestTrueTotalEffect:
    def test_chain_product(self):
        assert chain_scm().true_total_effect("X", "Y") == pytest.approx(0.32)

    def test_no_directed_path(self):
        dag = Dag(["X", "Y"], [])
        scm = LinearScm(dag, {}, {"X": 1.0, "Y": 1.0})
        assert scm.true_total_effect("X", "Y") == 0.0

    def test_setting_b_deterministic_skeleton(self):
        edges = _experiment_edges("B", np.zeros(10), np.array([0.2, 0, 0, 0, 0.0]))
        dag = Dag(EXPERIMENT_VERTICES, list(edges))
        scm = LinearScm(dag, edges, {v: 1.0 for v in EXPERIMENT_VERTICES})
        assert scm.true_total_effect("X", "Y") == pytest.approx(0.392, abs=1e-12)

    def test_agrees_with_explicit_path_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            q = int(rng.integers(3, 10))
            names = [f"v{i}" for i in range(q)]
            edges = {}
            for i in range(q):
                for j in range(i + 1, q):
                    if rng.random() < 0.4:
                        edges[(names[i], names[j])] = float(rng.uniform(-0.9, 0.9))
            scm = LinearScm(Dag(names, list(edges)), edges, {v: 1.0 for v in names})
            got = scm.true_total_effect(names[0], names[-1])
            want = total_effect_by_path_enumeration(scm, names[0], names[-1])
            assert got == pytest.approx(want, abs=1e-10)


class TestCalibration:
    def test_root_gets_unit_error(self):
        scm = chain_scm()
        assert scm.error_variances["X"] == pytest.approx(1.0)

    def test_single_parent_formula(self):
        scm = chain_scm()
        assert scm.error_variances["Y"] == pytest.approx(1.0 - 0.16)

    def test_experiment_scm_has_unit_diagonal(self):
        for setting in ("A", "B"):
            scm, spec, _ = build_experiment_scm(setting, np.random.default_rng(3))
            sigma = scm.population_covariance(spec)
            np.testing.assert_allclose(np.diag(sigma), 1.0, atol=1e-10)

    def test_impossible_calibration_raises(self):
        dag = Dag(["a", "b", "c"], [("a", "c"), ("b", "c")])
        scm = LinearScm(dag, {("a", "c"): 0.9, ("b", "c"): 0.9}, {v: 1.0 for v in dag.vertices})
        with pytest.raises(ExplainedVarianceExceedsOne):
            scm.calibrate_unit_variance()


class TestRandomCorrelation:
    def test_dimension_one(self):
        spec = random_correlation(1, np.random.default_rng(0))
        np.testing.assert_allclose(spec.matrix, [[1.0]])

    def test_construction_guarantees(self):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(2, 30))
            spec = random_correlation(q, rng)
            m = spec.matrix
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() > -1e-10 * max(1.0, eigs.max())

    def test_deterministic_given_stream(self):
        a = random_correlation(5, np.random.default_rng(42)).matrix
        b = random_correlation(5, np.random.default_rng(42)).matrix
        np.testing.assert_array_equal(a, b)

    def test_factor_reproduces_matrix(self):
        spec = random_correlation(8, np.random.default_rng(5))
        f = spec.cholesky_factor()
        np.testing.assert_allclose(f @ f.T, spec.matrix, atol=1e-12)

    def test_semidefinite_matrix_takes_the_eigen_factor(self):
        # Cholesky rejects the singular matrix; the eigen factor reproduces it
        spec = CovarianceSpec(np.ones((2, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(spec.matrix)
        f = spec.cholesky_factor()
        np.testing.assert_allclose(f @ f.T, spec.matrix, atol=1e-12)


class TestSampling:
    def test_same_seed_is_bitwise_identical(self):
        scm, spec, _ = build_experiment_scm("A", np.random.default_rng(1))
        a = scm.sample(50, np.random.default_rng(99), spec)
        b = scm.sample(50, np.random.default_rng(99), spec)
        np.testing.assert_array_equal(a, b)

    def test_zero_coefficients_give_independent_noise(self):
        dag = Dag(["a", "b", "c"], [])
        scm = LinearScm(dag, {}, {v: 1.0 for v in dag.vertices})
        draws = scm.sample(1_000_000, np.random.default_rng(5))
        corr = np.corrcoef(draws.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.01

    def test_chain_large_sample_covariance(self):
        scm = chain_scm()
        draws = scm.sample(1_000_000, np.random.default_rng(6))
        idx = {v: i for i, v in enumerate(scm.dag.vertices)}
        emp = np.cov(draws[:, idx["X"]], draws[:, idx["Y"]], bias=True)[0, 1]
        assert emp == pytest.approx(0.32, abs=0.005)


def sampling_model(name: str):
    """A model and its block spec: a benchmark setting's, or one without a correlated block."""
    if name in ("A", "B"):
        scm, spec, _ = build_experiment_scm(name, np.random.default_rng(0))
        return scm, spec
    names = ["W", "X", "M", "Y"]
    edges = {("W", "X"): 0.6, ("W", "Y"): 0.3, ("X", "M"): 0.7, ("M", "Y"): 0.5,
             ("X", "Y"): -0.2}
    return LinearScm(Dag(names, list(edges)), edges,
                     {"W": 1.0, "X": 0.5, "M": 2.0, "Y": 0.7}), None


class TestSampleStack:
    @pytest.mark.parametrize("model", ["A", "B", "custom"])
    @pytest.mark.parametrize("size", [1, 3, 34])
    def test_each_sample_is_its_generator_alone(self, model, size):
        # bit for bit: the stacked pass changes no sample
        scm, spec = sampling_model(model)
        seeds = np.random.SeedSequence(size).spawn(size)
        stack = scm.sample_stack(15, [np.random.default_rng(s) for s in seeds], spec)
        assert stack.shape == (size, 15, len(scm.dag.vertices))
        for values, seed in zip(stack, seeds):
            np.testing.assert_array_equal(
                values, sample_vertex_by_vertex(scm, 15, np.random.default_rng(seed), spec))
            np.testing.assert_array_equal(values, scm.sample(15, np.random.default_rng(seed),
                                                             spec))

    @pytest.mark.parametrize("n", [0, -2])
    def test_fewer_than_one_row_is_rejected(self, n):
        scm, spec = sampling_model("A")
        with pytest.raises(ValueError, match="n must be >= 1"):
            scm.sample(n, np.random.default_rng(0), spec)
        with pytest.raises(ValueError, match="n must be >= 1"):
            scm.sample_stack(n, [np.random.default_rng(0)], spec)


class TestExperimentScm:
    def test_setting_a_total_effect_distribution(self):
        # calibration can fail for unlucky coefficient draws; skip those seeds
        taus = []
        for s in range(12):
            try:
                taus.append(build_experiment_scm("A", np.random.default_rng(s))[2])
            except ExplainedVarianceExceedsOne:
                continue
        assert len(taus) >= 10
        assert all(0.02 < t < 0.08 for t in taus)  # 0.04 + small random mediator terms

    def test_setting_b_total_effect_distribution(self):
        taus = [build_experiment_scm("B", np.random.default_rng(s))[2] for s in range(12)]
        assert all(0.30 < t < 0.50 for t in taus)

    def test_criteria_facts_hold_for_any_seed(self):
        ga = experiment_criteria_dag("A")
        assert ga.satisfies_back_door("X", "Y", {"Z"})
        assert ga.satisfies_front_door_like("X", "Y", {"S"}, {"Z"}, {"Z"})
        gb = experiment_criteria_dag("B")
        assert gb.satisfies_front_door_like("X", "Y", {"S", "Sbar1"}, set(), set())

    def test_coupling_dag_adds_latent_parent(self):
        scm, spec, _ = build_experiment_scm("A", np.random.default_rng(2))
        g = coupling_dag(scm)
        assert "_L" in g.vertices
        assert ("_L", "Z") in g.edges and ("_L", "Zbar5") in g.edges
        # latent coupling makes covariates mutually dependent
        assert not g.d_separated({"Zbar1"}, {"Zbar2"}, set())

    def test_serialization_round_trip(self):
        scm, spec, tau = build_experiment_scm("B", np.random.default_rng(4))
        payload = scm.to_dict(spec)
        restored, spec2 = LinearScm.from_dict(payload)
        assert restored.dag.edges == scm.dag.edges
        assert restored.correlated == scm.correlated
        np.testing.assert_allclose(spec2.matrix, spec.matrix, atol=1e-15)
        assert restored.true_total_effect("X", "Y") == pytest.approx(tau, abs=1e-12)


class TestCovarianceSpecValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovarianceSpec(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError):
            CovarianceSpec(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            CovarianceSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))
