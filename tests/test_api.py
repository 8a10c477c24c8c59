"""Every exported name and every benchmark-traced function resolves; the benchmark's
workloads run on the package's API; only the method registry names the penalized
baselines; numpy.ma, scipy and the process-pool modules stay unloaded, and the tuning
module until first use; every module stays below the parser's token-array doubling."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import pcmselect
from pcmselect.experiment import METHODS, ExperimentConfig, MethodSpec

MODULES = sorted(m.name for m in pkgutil.iter_modules(pcmselect.__path__))
BENCH = Path(__file__).resolve().parents[1] / "pcmbench"
TRACER = BENCH / "tracer.py"


def resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pcmselect.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"pcmselect.{name}.__all__ names undefined {missing}"


def test_package_exports_resolve():
    missing = [n for n in pcmselect.__all__ if not hasattr(pcmselect, n)]
    assert not missing, f"pcmselect.__all__ names undefined {missing}"


def traced_functions() -> list[tuple[str, str]]:
    """The (module, qualified name) pairs of ``ENTRY_POINTS + LAYERS`` in the tracer."""
    pairs = []
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("ENTRY_POINTS", "LAYERS")
                for t in node.targets):
            pairs.extend(ast.literal_eval(node.value))
    return pairs


def test_traced_functions_resolve():
    pairs = traced_functions()
    assert len(pairs) > 2, "ENTRY_POINTS and LAYERS not found in the tracer"
    missing = []
    for module, qualname in pairs:
        try:
            fn = resolve(importlib.import_module(f"pcmselect.{module}"), qualname)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{qualname}")
            continue
        assert callable(fn), f"{module}.{qualname} is not callable"
    assert not missing, f"the benchmark traces functions that do not exist: {missing}"


def test_benchmark_methods_are_valid():
    """Every method and parameter set that the benchmark runs passes the registry's
    checks, and the method that its tune workload tunes is tunable."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    mc_methods = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and any(isinstance(t, ast.Name) and t.id == "MC_METHODS"
                              for t in node.targets))
    assert set(mc_methods) == {"A", "B"}
    for setting, methods in mc_methods.items():
        ExperimentConfig(setting, n=15, replications=1, seed=0,
                         methods=tuple(MethodSpec(name, params=dict(params))
                                       for name, params in methods.items()))
    assert METHODS["pcm"].cv


def test_benchmark_workloads_run(monkeypatch, tmp_path):
    """One call of each workload of ``pcmbench/worker.py``, on the smallest inputs, finds
    no problem.  The worker builds its models with ``build_experiment_scm`` and
    ``LinearScm.to_dict``, runs a custom ``ExperimentConfig`` of ``MethodSpec``s on
    ``RolePartition.from_dict`` roles, saves a model with ``io.save_scm`` and reads
    the output lines of ``cli.main``'s ``simulate`` and ``tune``."""
    spec = importlib.util.spec_from_file_location("_pcmbench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    caches = set(BENCH.rglob("*.pyc"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(worker)
    workloads = [worker.MonteCarlo(pcmselect, setting, 2, 0) for setting in ("A", "B")]
    workloads.append(worker.Tune(pcmselect, 100, 0, tmp_path, smoke=True))
    for workload in workloads:
        summary = workload.summarize(workload.call(workload.prepare(0)))
        assert summary["problems"] == [], (type(workload).__name__, summary)
    assert set(BENCH.rglob("*.pyc")) == caches


PENALIZED_NAMES = {"lasso", "adaptive-lasso", "elastic-net", "pal1ma"}


def test_only_the_registry_names_the_penalized_baselines():
    """No module but ``experiment``, which holds the method registry, has a
    penalized baseline's name as a string literal outside its docstrings."""
    found = []
    for path in sorted(Path(pcmselect.__file__).parent.glob("*.py")):
        if path.name == "experiment.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in PENALIZED_NAMES
                  and id(node) not in docstrings]
    assert not found, f"penalized baselines named outside the registry: {found}"


# Runs one pcm fit, both benchmark settings with all their methods, one pcm
# cross-validation and two baseline ones (an eta grid, and phi below 1, whose lam
# grids go through the dedup and the path) on one worker, then prints which of
# the modules that the package must not need were ever imported.
MA_GUARD = """
import sys

import numpy as np

import pcmselect
from pcmselect.data import Dataset
from pcmselect.experiment import (PRESETS, SETTING_METHODS, ExperimentConfig, MethodSpec,
                                  experiment_roles, run_monte_carlo)
from pcmselect.pcm import PcmParams, pcm_total_effect
from pcmselect.scm import build_experiment_scm
from pcmselect.tuning import ParamGrid, cross_validate

roles = experiment_roles("A")
scm, spec, _ = build_experiment_scm("A", np.random.default_rng(0))
raw = scm.sample(60, np.random.default_rng(1), spec)
cols = [scm.dag.vertices.index(c) for c in roles.required_columns()]
ds = Dataset(raw[:, cols], roles.required_columns()).standardized()
pcm_total_effect(ds, roles, PcmParams(**PRESETS["A", "pcm"]))
for setting in ("A", "B"):
    run_monte_carlo(ExperimentConfig(
        setting=setting, n=15, replications=5, seed=0, workers=1,
        methods=tuple(MethodSpec(m) for m in SETTING_METHODS[setting])))
grid = ParamGrid(pilot_lambda=(1.0,), pilot_rho=(1.0,), lambda1=(0.05, 0.1),
                 rho1=(0.1,), zeta_xi=((0.3, 0.3), (0.0, 0.6)), folds=3)
cross_validate(ds, roles, "pcm", grid)
cross_validate(ds, roles, "adaptive-lasso", ParamGrid(lam=(0.01, 0.1, 0.01), eta=(0.5, 1.0),
                                                      pilot_lambda=(1.0,), folds=3))
cross_validate(ds, roles, "elastic-net", ParamGrid(lam=(0.1, 0.01), phi=(0.5, 1.0), folds=3))
print(sorted({"numpy.ma", "scipy", "multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_numpy_ma_stays_unloaded():
    """``np.unique`` and the set routines built on it (``setdiff1d``,
    ``intersect1d``, ``union1d``) import numpy.ma, which raises the
    benchmark's gated peak memory; the package uses boolean masks instead.
    numpy is the only runtime dependency, so scipy stays unloaded, and a
    single-worker run never imports the process pool."""
    assert run_alone(MA_GUARD) == "[]"


def run_alone(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter on this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_tuning_loads_on_first_use():
    """A Monte Carlo run leaves ``pcmselect.tuning`` unloaded, as its code adds
    to the resident memory of every process; the package still exports its names."""
    out = run_alone("""
import sys

import pcmselect

pcmselect.run_monte_carlo(pcmselect.ExperimentConfig(
    setting="B", n=15, replications=3, seed=0,
    methods=(pcmselect.MethodSpec("pcm"), pcmselect.MethodSpec("frontdoor-whole"))))
print("pcmselect.tuning" in sys.modules)
from pcmselect import ParamGrid, cross_validate
from pcmselect import tuning
print(ParamGrid is tuning.ParamGrid and cross_validate is tuning.cross_validate)
""")
    assert out.split() == ["False", "True"]
    with pytest.raises(AttributeError):
        pcmselect.no_such_name


# CPython 3.11's parser keeps a module's tokens in an array that doubles when it
# reaches 4,096 entries.  The benchmark's workers compile src without bytecode
# caches, so a module at that size raised the gated peak_rss_mb: pcm.py's compile
# peak went from 1,373 to 1,603 KiB (CHANGES.md FOUND, pcmbench/run.py).
PARSER_TOKEN_LIMIT = 4096


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_module_stays_below_the_parser_token_doubling(name):
    path = Path(pcmselect.__file__).parent / f"{name}.py"
    with open(path, "rb") as source:
        count = sum(1 for token in tokenize.tokenize(source.readline)
                    if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))
    assert count < PARSER_TOKEN_LIMIT, f"{path.name} has {count} parser tokens"


def _top_level_names(node) -> list[str]:
    """The names that a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def test_every_private_name_is_used():
    """Every private top-level name of a ``src/pcmselect`` module is read somewhere
    in ``src`` outside its own definition, so no helper outlives its last caller."""
    trees = [ast.parse(path.read_text()) for path in
             sorted(Path(pcmselect.__file__).parent.glob("*.py"))]
    reads = [(node, node.id) for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    reads += [(node, node.attr) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)]
    reads += [(node, node.name) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.alias)]
    unused = []
    for tree in trees:
        for statement in tree.body:
            inside = {id(node) for node in ast.walk(statement)}
            for name in _top_level_names(statement):
                if (name.startswith("_") and not name.startswith("__")
                        and not any(n == name and id(node) not in inside for node, n in reads)):
                    unused.append(name)
    assert not unused, f"private names that nothing in src reads: {unused}"
