"""Smoke test of the benchmark: each workload at its smallest length.

Run from the root of a checkout::

    python3 -m pytest -q pcmbench/test_smoke.py

Each workload runs with 2 replications per call (or a one-candidate tune
grid), untraced and traced.  The test checks that every metric named in
BENCHMARK.json comes out with its unit, that the run's own checks pass, and
that the tracer's wrappers leave the estimate digest equal to that of the
same call made in this process without the benchmark's runner.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETAIL_METRICS = {"wall_s", "setup_s", "reps_per_s", "failure_rate", "cv_score", "peak_rss_mb"}


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "pcmbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def direct_digest(workload: str) -> str:
    """Digest of call 0 made in this process, with no tracer installed."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import worker

        args = argparse.Namespace(workload=workload, seed=0, smoke=True,
                                  workdir=str(HERE / "out" / "smoke-direct"))
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        built = worker.build(args)
        return built.summarize(built.call(built.prepare(0)))["digest"]
    finally:
        del sys.path[:2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_keeps_digests(workload):
    digests = []
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        detail, result = parse(proc)
        assert result["correct"], detail["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)), m["name"]
        if trace == 0:
            assert set(detail["metrics"]) == DETAIL_METRICS
            assert all(entry["unit"] for entry in detail["metrics"].values())
            assert {"nproc", "python", "numpy", "blas"} <= set(detail["provenance"])
        elif workload == "tune_pcm":
            assert not detail["hooks_missing"]
        digests.append(detail["digest_call0"])
    assert digests[0] == digests[1] == direct_digest(workload)


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "pcmbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("mc_setting_b", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
