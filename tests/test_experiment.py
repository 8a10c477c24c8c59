import concurrent.futures
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pcmselect import experiment
from pcmselect.data import Dataset, RolePartition
from pcmselect.errors import ConfigInvalid, ConstantColumn, EmptyInput, PcmSelectError
from pcmselect.experiment import (
    METHODS,
    PRESETS,
    ExperimentConfig,
    MethodSpec,
    SETTING_METHODS,
    experiment_roles,
    run_monte_carlo,
    summarize,
)
from pcmselect.graphs import Dag
from pcmselect.scm import LinearScm, build_experiment_scm


class TestSummarize:
    def test_hand_computed_pair(self):
        mean, sd, bias, sign = summarize([1.0, -1.0], 1.0)
        assert mean == 0.0
        assert sd == pytest.approx(math.sqrt(2.0))
        assert bias == -1.0
        assert sign == 0.5

    def test_all_exact(self):
        mean, sd, bias, sign = summarize([0.4, 0.4, 0.4], 0.4)
        assert mean == pytest.approx(0.4)
        assert sd == pytest.approx(0.0, abs=1e-15)
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert sign == 1.0

    def test_single_estimate_has_zero_sd(self):
        mean, sd, bias, sign = summarize([0.25], 0.4)
        assert sd == 0.0 and bias == pytest.approx(-0.15)

    def test_zero_estimate_sign_rules(self):
        assert summarize([0.0], 0.4)[3] == 0.0
        assert summarize([0.0], 0.0)[3] == 1.0
        assert summarize([0.3], 0.0)[3] == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            summarize([], 0.4)


class TestConfigValidation:
    def base(self, **kwargs):
        defaults = dict(setting="A", n=15, replications=2, seed=1,
                        methods=(MethodSpec("backdoor"),))
        defaults.update(kwargs)
        return defaults

    def test_minimal_config(self):
        ExperimentConfig(**self.base())

    def test_small_n_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**self.base(n=2))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**self.base(methods=(MethodSpec("ols"),)))

    def test_setting_b_forbids_covariate_methods(self):
        for name in ("backdoor", "lasso", "adaptive-lasso", "elastic-net", "pal1ma"):
            with pytest.raises(ConfigInvalid):
                ExperimentConfig(**self.base(setting="B", methods=(MethodSpec(name),)))
        ExperimentConfig(**self.base(setting="B", methods=(MethodSpec("pcm"),)))

    def test_custom_needs_model_and_roles(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**self.base(setting="custom"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**self.base(
                methods=(MethodSpec("backdoor"), MethodSpec("backdoor"))))

    @pytest.mark.parametrize("name, params", [
        ("lasso", {"lam": 0.4, "phi": 0.5}),
        ("lasso", {}),
        ("pcm", {"lambda1": 0.1, "rho1": 0.1, "zeta1": 0.2}),
        ("frontdoor-including-x", {"z": ["Z"]}),
        ("pal1ma", {"lam": 0.294, "lam2": 0.01}),
        ("pal1ma", {"lam": 0.294, "xi2": 0.5}),
    ])
    def test_unknown_or_missing_param_key_rejected(self, name, params):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**self.base(methods=(MethodSpec(name, params=params),)))

    @pytest.mark.parametrize("name, params", [
        ("lasso", {"lam": -1}),
        ("elastic-net", {"lam": 0.1, "phi": 2}),
        ("pal1ma", {"lam": 0.294, "eta": -1}),
        ("pcm", {"lambda1": 0.1, "rho1": 0.1, "zeta1": 0.2, "xi1": 0.2, "xi2": 2}),
        ("frontdoor-including-x", {"mediators": []}),
        ("lasso", {"lam": float("inf")}),
        ("pcm", {"lambda1": float("nan"), "rho1": 0.1, "zeta1": 0.2, "xi1": 0.2}),
        ("backdoor", {"z": 5}),
        ("backdoor", {"z": "Zbar1"}),  # a string is not a list of names
        ("backdoor", {"z": ["Q"]}),  # not an observed column
        ("frontdoor-including-x", {"mediators": ["S"], "z1": ["Z", "Q"]}),
        ("frontdoor-not-including-x", {"z2": [1]}),
        ("lasso", {"lam": "0.1"}),
        ("lasso", {"lam": True}),
        ("lasso", {"lam": None}),
        ("elastic-net", {"lam": 0.1, "phi": [0.5]}),
        ("pal1ma", {"lam": 0.294, "eta": "0.5"}),
        ("pcm", {"lambda1": 0.1, "rho1": "0.1", "zeta1": 0.2, "xi1": 0.2}),
        ("pcm", {"lambda1": False, "rho1": 0.1, "zeta1": 0.2, "xi1": 0.2}),
    ])
    def test_out_of_range_param_value_rejected(self, name, params):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(**self.base(methods=(MethodSpec(name, params=params),)))

    @pytest.mark.parametrize("name, key, value", [
        ("lasso", "lam", "0.1"),
        ("adaptive-lasso", "eta", True),
        ("pcm", "pilot_rho", None),
        ("backdoor", "z", "Z"),
        ("frontdoor-including-x", "z2", ["Q"]),
    ])
    def test_bad_value_message_names_its_key(self, name, key, value):
        params = {**PRESETS["A", name], key: value}
        with pytest.raises(ConfigInvalid, match=key):
            ExperimentConfig(**self.base(methods=(MethodSpec(name, params=params),)))

    def test_model_without_front_door_mediator_set_rejected(self):
        # the direct X -> Y edge leaves no mediator set intercepting every path
        dag = Dag(["X", "M", "Y"], [("X", "M"), ("M", "Y"), ("X", "Y")])
        scm = LinearScm(dag, {("X", "M"): 0.7, ("M", "Y"): 0.5, ("X", "Y"): 0.4},
                        {v: 1.0 for v in dag.vertices}).calibrate_unit_variance()
        with pytest.raises(ConfigInvalid, match="no mediator set"):
            ExperimentConfig(**self.base(
                setting="custom", methods=(MethodSpec("frontdoor-minimal"),),
                scm_payload=scm.to_dict(), roles=RolePartition(x="X", y="Y", s=("M",))))

    def test_from_dict_round_trip(self):
        payload = {
            "setting": "A", "n": 15, "replications": 3, "seed": 9,
            "methods": [{"name": "backdoor"}, {"name": "lasso", "params": {"lam": 0.4}}],
        }
        cfg = ExperimentConfig.from_dict(payload)
        assert cfg.methods[1].params == {"lam": 0.4}


def tiny_custom_config(replications=6, workers=1, methods=None):
    dag = Dag(["Z", "X", "M", "Y"],
              [("Z", "X"), ("Z", "Y"), ("X", "M"), ("M", "Y")])
    scm = LinearScm(
        dag,
        {("Z", "X"): 0.6, ("Z", "Y"): 0.3, ("X", "M"): 0.7, ("M", "Y"): 0.5},
        {v: 1.0 for v in dag.vertices},
    ).calibrate_unit_variance()
    roles = RolePartition(x="X", y="Y", z=("Z",), s=("M",))
    if methods is None:
        methods = (
            MethodSpec("backdoor"),
            MethodSpec("pcm", params={"lambda1": 0.02, "rho1": 0.0, "zeta1": 0.2,
                                      "xi1": 0.0, "pilot_lambda": 0.5, "pilot_rho": 0.5}),
            MethodSpec("frontdoor-including-x", params={"mediators": ["M"],
                                                        "z1": ["Z"], "z2": ["Z"]}),
        )
    return ExperimentConfig(
        setting="custom", n=40, replications=replications, seed=123,
        methods=methods, workers=workers,
        scm_payload=scm.to_dict(), roles=roles,
    )


class TestRunMonteCarlo:
    def test_single_replication_statistics(self):
        cfg = tiny_custom_config(replications=1)
        result = run_monte_carlo(cfg)
        assert result.true_tau == pytest.approx(0.35)
        for row in result.summaries:
            assert row.sd == 0.0
            assert row.bias == pytest.approx(row.mean - result.true_tau, abs=1e-12)

    def test_estimates_align_with_summaries(self):
        cfg = tiny_custom_config(replications=8)
        result = run_monte_carlo(cfg)
        for row in result.summaries:
            values = [v for rep, m, v in result.estimates if m == row.method]
            mean, sd, bias, sign = summarize(values, result.true_tau)
            assert row.mean == pytest.approx(mean, abs=1e-15)
            assert row.sd == pytest.approx(sd, abs=1e-15)
            assert row.sign == pytest.approx(sign, abs=1e-15)

    def test_worker_count_does_not_change_results(self):
        serial = run_monte_carlo(tiny_custom_config(replications=6, workers=1))
        parallel = run_monte_carlo(tiny_custom_config(replications=6, workers=2))
        assert serial.estimates == parallel.estimates
        assert serial.summaries == parallel.summaries

    def test_failures_are_counted_not_fatal(self):
        # five regressors on three rows: singular adjusted least squares
        names = ["X", "Y", "Z1", "Z2", "Z3", "Z4"]
        dag = Dag(names, [("X", "Y")])
        scm = LinearScm(dag, {("X", "Y"): 0.5},
                        {v: 1.0 for v in names}).calibrate_unit_variance()
        roles = RolePartition(x="X", y="Y", z=("Z1", "Z2", "Z3", "Z4"))
        cfg = ExperimentConfig(
            setting="custom", n=3, replications=4, seed=5,
            methods=(MethodSpec("backdoor"),),
            scm_payload=scm.to_dict(), roles=roles,
        )
        result = run_monte_carlo(cfg)
        row = result.summaries[0]
        assert row.failures == 4
        assert math.isnan(row.mean)

    def test_setting_b_minimal_mediators_resolved(self):
        cfg = ExperimentConfig(
            setting="B", n=15, replications=2, seed=3,
            methods=(MethodSpec("frontdoor-minimal"),),
        )
        assert cfg.methods[0].params["mediators"] == ["S", "Sbar1"]
        result = run_monte_carlo(cfg)
        assert result.summaries[0].params["mediators"] == ["S", "Sbar1"]

    def test_setting_method_tables_cover_rows(self):
        assert len(SETTING_METHODS["A"]) == 8
        assert set(SETTING_METHODS["B"]) == {"pcm", "frontdoor-minimal", "frontdoor-whole"}

    def test_roles_for_settings(self):
        a = experiment_roles("A")
        assert len(a.required_columns()) == 19
        b = experiment_roles("B")
        assert b.covariates == ()
        assert len(b.required_columns()) == 8


# The column that a copy of X replaces to make every method of a setting fail
# (the lasso family at lam=0): Z, which pcm leaves unpenalized next to S, and
# S, which pcm's stage 1 leaves unpenalized next to X in setting B.
COPY_OF_X = {"A": "Z", "B": "S"}


def setting_of(name: str) -> str:
    return "A" if name in SETTING_METHODS["A"] else "B"


def break_replications(monkeypatch, setting: str, constant: int, copied: int) -> None:
    """Replication ``constant`` samples a constant outcome, which fails
    standardization; replication ``copied`` samples X into its
    ``COPY_OF_X[setting]`` column, where pcm fails."""
    original = LinearScm.sample_stack

    def sample_stack(self, n, rngs, exogenous_block=None):
        raw = original(self, n, rngs, exogenous_block)
        names = self.dag.vertices
        for values, rng in zip(raw, rngs):
            # the run seeds replication r with child r + 1 of the master seed sequence
            rep = rng.bit_generator.seed_seq.spawn_key[-1] - 1
            if rep == constant:
                values[:, names.index("Y")] = 1.0
            elif rep == copied:
                values[:, names.index(COPY_OF_X[setting])] = values[:, names.index("X")]
        return raw

    monkeypatch.setattr(LinearScm, "sample_stack", sample_stack)


class TestChunks:
    @pytest.mark.parametrize("setting", ["A", "B"])
    def test_estimates_do_not_depend_on_chunks_or_workers(self, setting, monkeypatch):
        # 34 replications: in chunks of the module's size (one chunk of 34 at n=15
        # in setting B, chunks of 11, 11 and 12 in setting A); in several chunks of
        # 2**10 values (6, 7, 7, 7 and 7 in setting B, 2 and 3 in setting A); two per
        # task with two workers; all in one chunk; one per chunk
        def config(workers=1):
            return ExperimentConfig(
                setting=setting, n=15, replications=34, seed=11, workers=workers,
                methods=tuple(MethodSpec(name) for name in SETTING_METHODS[setting]))

        clean = run_monte_carlo(config())
        break_replications(monkeypatch, setting, constant=3, copied=5)
        chunked = run_monte_carlo(config())
        pooled = run_monte_carlo(config(workers=2))
        monkeypatch.setattr(experiment, "CHUNK_VALUES", 2**10)
        several = run_monte_carlo(config())
        monkeypatch.setattr(experiment, "CHUNK_VALUES", 2**20)
        one_chunk = run_monte_carlo(config())
        monkeypatch.setattr(experiment, "CHUNK_VALUES", 1)
        single = run_monte_carlo(config())
        for other in (pooled, several, one_chunk, single):
            assert repr(other.estimates) == repr(chunked.estimates)
            assert repr(other.summaries) == repr(chunked.summaries)
        # each broken replication fails alone: every other one keeps its estimates,
        # and each failure is counted
        found = {(rep, label): value for rep, label, value in chunked.estimates}
        expected = {(rep, label): value for rep, label, value in clean.estimates}
        assert {key: value for key, value in found.items() if key[0] != 5} == {
            key: value for key, value in expected.items() if key[0] not in (3, 5)}
        assert not any(rep == 3 for rep, _ in found)
        assert (3, "pcm") in expected and (5, "pcm") in expected and (5, "pcm") not in found
        for row in chunked.summaries:
            assert row.failures == 34 - sum(label == row.method for _, label in found)
        failures = {row.method: row.failures for row in clean.summaries}
        assert chunked.summaries[SETTING_METHODS[setting].index("pcm")].failures == \
            failures["pcm"] + 2


    @pytest.mark.parametrize("replications, chunk_values, workers, setting, n, size", [
        (20, 2**12, 1, "B", 15, 34),  # the benchmark's setting-B call: one chunk
        (34, 2**12, 1, "B", 15, 34),
        (34, 2**12, 1, "A", 15, 14),  # 11, 11 and 12
        (1000, 2**12, 2, "A", 15, 14),
        (61, 2**12, 1, "B", 100, 5),
        (60, 2**12, 1, "A", 100, 2),
        (20, 2**11, 1, "B", 15, 17),  # 10 and 10
        (34, 2**11, 1, "B", 15, 17),
        (34, 2**11, 1, "A", 15, 7),  # 6, 7, 7, 7 and 7
        (1000, 2**11, 1, "B", 15, 17),
        (1000, 2**11, 2, "A", 15, 7),
        (100, 2**11, 2, "B", 15, 6),  # at least 8 tasks per worker
        (5, 2**11, 2, "B", 15, 1),
        (1, 2**11, 1, "B", 15, 17),
        (60, 2**11, 1, "A", 100, 1),
        (61, 2**11, 1, "B", 100, 2),
        (7, 1, 1, "B", 15, 1),
        (34, 2**20, 1, "B", 15, 8738),
    ])
    def test_split(self, monkeypatch, replications, chunk_values, workers, setting, n, size):
        monkeypatch.setattr(experiment, "CHUNK_VALUES", chunk_values)
        chunks = split_of(monkeypatch, setting, n, replications, workers)
        assert [rep for chunk in chunks for rep in chunk] == list(range(replications))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= size
        assert len(chunks) == math.ceil(replications / size)

    def test_the_benchmark_setting_b_call_is_one_chunk(self, monkeypatch):
        # 20 replications at n=15 in setting B with one worker, at the module's own size
        assert split_of(monkeypatch, "B", 15, 20, 1) == [range(20)]

    @pytest.mark.parametrize("setting", ["A", "B"])
    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_stacked_standardization_equals_each_alone(self, setting, count):
        columns = experiment_roles(setting).required_columns()
        scm, spec, _ = build_experiment_scm(setting, np.random.default_rng(0))
        rngs = [np.random.default_rng(seed) for seed in range(count)]
        raw = scm.sample_stack(15, rngs, spec)[:, :, [scm.dag.vertices.index(c) for c in columns]]
        stacked = Dataset.standardized_stack(raw, columns)
        assert len(stacked) == count
        for data, alone in zip(stacked, raw):
            assert data.columns == columns
            assert np.array_equal(data.values, Dataset(alone, columns).standardized().values)

    def test_stacked_datasets_equal_direct_construction(self):
        # each dataset of a stack views its slice of the one checked stack, and equals
        # the dataset built directly from that slice
        columns = experiment_roles("A").required_columns()
        raw = np.random.default_rng(5).standard_normal((4, 15, len(columns)))
        for data in Dataset.standardized_stack(raw, list(columns)):
            direct = Dataset(data.values, columns)
            assert type(data.columns) is tuple and data.columns == direct.columns
            assert np.array_equal(data.values, direct.values)
            assert np.array_equal(data.gram, direct.gram)
            assert data.index_of(["Y", "X"]).tolist() == direct.index_of(["Y", "X"]).tolist()

    def test_the_stack_and_direct_construction_are_checked(self):
        columns = ("X", "Y", "S")
        raw = np.random.default_rng(6).standard_normal((2, 5, 3))
        with pytest.raises(ValueError, match="duplicate column names"):
            Dataset.standardized_stack(raw, ("X", "Y", "X"))
        with pytest.raises(ValueError, match="3 columns of data vs 2 names"):
            Dataset.standardized_stack(raw, ("X", "Y"))
        bad = raw.copy()
        bad[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset.standardized_stack(bad, columns)
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset(bad[1], columns)
        with pytest.raises(ValueError, match="duplicate column names"):
            Dataset(raw[0], ("X", "Y", "Y"))
        with pytest.raises(ValueError, match="3 columns of data vs 4 names"):
            Dataset(raw[0], columns + ("Z",))

    @pytest.mark.parametrize("setting", ["A", "B"])
    def test_constant_column_fails_its_replication_alone(self, setting):
        columns = experiment_roles(setting).required_columns()
        raw = np.random.default_rng(4).standard_normal((3, 15, len(columns)))
        raw[1, :, columns.index("S")] = 2.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, failed, last = Dataset.standardized_stack(raw, columns)
        assert isinstance(failed, ConstantColumn) and failed.name == "S"
        for data, alone in ((first, raw[0]), (last, raw[2])):
            assert np.array_equal(data.values, Dataset(alone, columns).standardized().values)


def split_of(monkeypatch, setting, n, replications, workers) -> list:
    """The replications of each chunk of a pcm run, in order, without fitting any."""
    chunks = []
    monkeypatch.setattr(experiment, "_chunk_worker",
                        lambda payload: chunks.append(payload[1]) or [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool, raising=False)
    run_monte_carlo(ExperimentConfig(setting=setting, n=n, replications=replications, seed=0,
                                     workers=workers, methods=(MethodSpec("pcm"),)))
    return chunks


class InlinePool:
    """Stands in for a process pool: maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


# The traced peak of a one-chunk setting-B run at n=15 grows by 7.8 KiB per
# replication (seed 5, all setting-B methods, the slope between 10 and 30
# replications).  The limit is 25% above that: traced allocations repeat to a
# few bytes per call for fixed seeds, so only a change to what a chunk keeps
# per replication moves it.
CHUNK_KIB_PER_REPLICATION = 9.7


class TestChunkMemory:
    def test_traced_peak_per_replication(self, monkeypatch):
        monkeypatch.setattr(experiment, "CHUNK_VALUES", 2**20)  # one chunk per run

        def peak(replications: int) -> int:
            config = ExperimentConfig(
                setting="B", n=15, replications=replications, seed=5,
                methods=tuple(MethodSpec(name) for name in SETTING_METHODS["B"]))
            gc.collect()
            tracemalloc.start()
            try:
                run_monte_carlo(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first calls fill caches
        slope = (peak(30) - peak(10)) / 20 / 1024
        assert slope < CHUNK_KIB_PER_REPLICATION, f"{slope:.2f} KiB per replication"


def setting_sample(setting: str, seed: int) -> Dataset:
    """A standardized n=15 sample of the setting's model with the model seed 0."""
    roles = experiment_roles(setting)
    scm, spec, _ = build_experiment_scm(setting, np.random.default_rng(0))
    raw = scm.sample(15, np.random.default_rng(seed), spec)
    cols = list(roles.required_columns())
    return Dataset(raw[:, [scm.dag.vertices.index(c) for c in cols]], cols).standardized()


class TestRegistryContract:
    @pytest.mark.parametrize("name", list(METHODS))
    def test_one_result_per_dataset_in_order(self, name):
        setting = setting_of(name)
        roles = experiment_roles(setting)
        params = dict(PRESETS[setting, name])
        if name in ("lasso", "adaptive-lasso", "elastic-net"):
            params["lam"] = 0.0  # least squares, which fails on a copied column
        if name == "frontdoor-minimal":
            params["mediators"] = ["S", "Sbar1"]
        good, other = setting_sample(setting, 1), setting_sample(setting, 2)
        copied = good.values.copy()
        copied[:, good.columns.index(COPY_OF_X[setting])] = copied[:, good.columns.index("X")]
        broken = Dataset(copied, good.columns)
        datasets = [good, broken, other, good]
        method = METHODS[name]
        results = method.estimate(datasets, roles, params)
        assert len(results) == len(datasets)
        for ds, result in zip(datasets, results):
            (alone,) = method.estimate([ds], roles, params)
            if ds is broken:
                assert isinstance(result, PcmSelectError) and type(result) is type(alone)
            else:
                assert isinstance(result, float) and repr(result) == repr(alone)
        assert method.estimate([], roles, params) == []
