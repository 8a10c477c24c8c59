"""Benchmark of pcmselect: Monte Carlo settings A and B, and CV tuning.

Usage (from the root of a checkout)::

    python3 pcmbench/run.py --workload mc_setting_a --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it times the workload in a fresh interpreter (plus a few
more interpreters that only time start-up) and prints the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` it runs the workload once with
spans around every layer and once more without them, on the same inputs,
and prints the per-layer metrics.  Either way it checks the outputs: the
estimate digests of repeated and traced runs must agree, the true effect
must not change between calls, and tuning must choose grid members with a
finite score.  The last line of standard output is one JSON object; the
line before it holds the details (all six workload metrics with units,
quantiles, stage shares, provenance).  The exit code is 1 when a check
fails and 2 when the checkout has no ``src/pcmselect``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 7  # start-up-only interpreters per untraced run
# Workers still running this long after the start are killed, so that a run
# ends within the 180 s a benchmark run may take.
RUN_DEADLINE_S = 170.0
STARTED = time.monotonic()


def quantile(values, q: float) -> float:
    """Quantile by statistics.quantiles' default (exclusive) method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


class WorkerRun:
    """One worker interpreter: its protocol records, exit state and timings."""

    def __init__(self, workload: str, extra: list[str], workdir: Path):
        self.records: list[tuple[float, dict]] = []
        self.stderr: list[str] = []
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--workdir", str(workdir), "--spawned-at", repr(spawned), *extra]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        readers = [threading.Thread(target=self._read_stdout, args=(proc.stdout,)),
                   threading.Thread(target=self._read_stderr, args=(proc.stderr,))]
        for t in readers:
            t.start()
        self.killed = False
        try:
            proc.wait(timeout=max(STARTED + RUN_DEADLINE_S - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self.killed = True
        self.ended = time.monotonic()
        for t in readers:
            t.join()
        self.returncode = proc.returncode

    def _read_stdout(self, stream) -> None:
        for line in stream:
            if line.startswith("@@ "):
                self.records.append((time.monotonic(), json.loads(line[3:])))

    def _read_stderr(self, stream) -> None:
        for line in stream:
            self.stderr.append(line)
            del self.stderr[:-20]

    def of(self, kind: str) -> list[dict]:
        return [rec for _, rec in self.records if rec["kind"] == kind]

    def calls(self) -> list[dict]:
        """Every call, with one the kill cut short marked ``censored``."""
        done = self.of("call")
        if self.killed:
            starts = [(t, rec) for t, rec in self.records if rec["kind"] == "start"]
            if starts and (not done or starts[-1][1]["i"] > done[-1]["i"]):
                t, rec = starts[-1]
                done.append({"i": rec["i"], "wall": self.ended - t, "censored": True})
        return done

    def problems(self, name: str) -> list[str]:
        if self.killed or self.returncode == 0:
            return []
        tail = "".join(self.stderr).strip().splitlines()[-1:] or ["no message"]
        return [f"{name} worker exited with {self.returncode}: {tail[0]}"]


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PCMSELECT_WORKERS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return env


def record_provenance(worker: WorkerRun, detail: dict) -> None:
    for rec in worker.of("setup"):
        detail["provenance"] = {k: v for k, v in rec.items() if k not in ("kind", "setup_s")}


def call_problems(calls: list[dict]) -> list[str]:
    out = []
    for c in calls:
        if "error" in c:
            out.append(f"call {c['i']} raised {c['error']}")
        out.extend(f"call {c['i']}: {p}" for p in c.get("problems", []))
    taus = {c["tau"] for c in calls if "tau" in c}
    if len(taus) > 1:
        out.append(f"true effect differs between calls: {sorted(taus)}")
    return out


def workload_metrics(workload: str, calls: list[dict]) -> dict:
    """The six workload metrics of the detail line, with units (None where n/a)."""
    done = [c for c in calls if "digest" in c]
    walls = [c["wall"] for c in calls]
    mc = workload.startswith("mc_")
    out = {"wall_s": (statistics.median(walls), "s")}
    if mc:
        # calls cut at their time limit count the time they ran
        out["reps_per_s"] = (sum(c["reps"] for c in done) / sum(walls), "replications/s")
        pairs = sum(c["pairs"] for c in done)
        out["failure_rate"] = (sum(c["failed_pairs"] for c in done) / pairs if pairs else None,
                               "failed/attempted")
        out["cv_score"] = (None, "mse")
    else:
        out["reps_per_s"] = (None, "replications/s")
        folds = sum(c["folds_scored"] for c in done)
        out["failure_rate"] = (sum(c["folds_inf"] for c in done) / folds if folds else None,
                               "failed/attempted")
        out["cv_score"] = (statistics.median(c["cv_score"] for c in done) if done else None,
                           "mse")
    return out


def wall_summary(calls: list[dict]) -> dict:
    walls = [c["wall"] for c in calls]
    return {"calls": len(walls), "censored": sum(1 for c in calls if c.get("censored")),
            "p25_s": quantile(walls, 0.25), "p50_s": quantile(walls, 0.5),
            "p90_s": quantile(walls, 0.9), "max_s": max(walls), "total_s": sum(walls)}


def run_untraced(args, workdir: Path, detail: dict) -> tuple[dict, list[str], list[dict]]:
    problems: list[str] = []
    setups = []
    for k in range(SETUP_PROBES):
        probe = WorkerRun(args.workload, _common(args) + ["--setup-only"],
                          workdir / f"probe{k}")
        problems += probe.problems("start-up probe")
        setups += [rec["setup_s"] for rec in probe.of("setup")]
    # Monte Carlo runs repeat their cheapest call to check that its estimate
    # digest repeats; a tune call costs too much to repeat in every run.
    repeat = args.workload.startswith("mc_")
    limit = WORKLOADS[args.workload].get("call_limit_s")
    main = WorkerRun(args.workload,
                     _common(args) + ["--seconds", str(args.seconds)]
                     + (["--repeat"] if repeat else [])
                     + (["--call-limit", str(limit)] if limit else []),
                     workdir / "main")
    problems += main.problems("timed")
    setups += [rec["setup_s"] for rec in main.of("setup")]
    record_provenance(main, detail)
    calls = main.calls()
    problems += call_problems(calls)
    (workdir / "calls.json").write_text(json.dumps(calls))
    repeats = main.of("repeat")
    if repeat and not main.killed and not repeats:
        problems.append("the repeated call was not run")
    problems += [f"repeated call {r['i']} gave another digest" for r in repeats
                 if not r["digest_ok"]]
    if not any("digest" in c for c in calls) or not setups:
        problems.append("no timed call completed")
        return {}, problems, calls
    censored = sum(1 for c in calls if c.get("censored"))
    if 2 * censored >= len(calls):
        problems.append(f"{censored} of {len(calls)} calls were cut, so their median is unknown")
    found = workload_metrics(args.workload, calls)
    found["setup_s"] = (statistics.median(setups), "s")
    found["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB")
    done = [c for c in calls if "digest" in c]
    fits = sum(c.get("pcm_fits", 0) for c in done)
    detail.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in found.items()},
        walls=wall_summary(calls),
        setup_samples_s=setups,
        true_tau=sorted({c["tau"] for c in done if "tau" in c}),
        pcm_rmse=math.sqrt(sum(c["pcm_sq_err"] for c in done) / fits) if fits else None,
        digest_call0=done[0]["digest"] if done else None,
    )
    return {k: v for k, (v, _) in found.items()}, problems, calls


def run_traced(args, workdir: Path, detail: dict) -> tuple[dict, list[str], list[dict]]:
    traced = WorkerRun(args.workload, _common(args) + ["--trace", "--seconds", str(args.seconds)],
                       workdir / "traced")
    problems = traced.problems("traced")
    record_provenance(traced, detail)
    calls = traced.calls()
    done = [c for c in calls if "digest" in c]
    problems += call_problems(calls)
    layers = traced.of("layers")
    if not done or not layers:
        problems.append("the traced run completed no call")
        return {}, problems, calls
    traced_wall = sum(c["wall"] for c in done)
    replay = WorkerRun(args.workload, _common(args) + ["--calls", str(len(done))],
                       workdir / "replay")
    problems += replay.problems("untraced replay")
    replayed = {c["i"]: c for c in replay.calls() if "digest" in c}
    problems += call_problems(list(replayed.values()))
    for c in done:
        twin = replayed.get(c["i"])
        if twin is None:
            problems.append(f"call {c['i']} did not complete without tracing")
        elif (twin["digest"], twin.get("tau")) != (c["digest"], c.get("tau")):
            problems.append(f"call {c['i']} gave another digest with tracing")
    summary = layers[-1]
    untraced_wall = sum(c["wall"] for c in replayed.values())
    summary["overhead_s"] = traced_wall - untraced_wall
    flat = flatten_layers(summary)
    fits = sum(c.get("pcm_fits", 0) for c in done)
    if fits:
        flat["pcm.rmse"] = math.sqrt(sum(c["pcm_sq_err"] for c in done) / fits)
    detail.update(
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
        trace_overhead_s=summary["overhead_s"],
        trace_unattributed_s=summary["unattributed_s"],
        trace_extra_s=summary["extra_s"],
        span_groups=summary["groups"],
        hooks_missing=summary["missing"],
        stage_shares={name: {key: st[key] for key in
                             ("calls", "self_s", "share", "share_incl", "ms_p50", "ms_p99")}
                      for name, st in sorted(summary["layers"].items(),
                                             key=lambda kv: -kv[1]["incl_s"])},
        method_ms=summary["methods"],
        failures={f"{name}.fail.{cls}": n for name, st in summary["layers"].items()
                  for cls, n in st["fail"].items()},
        walls=wall_summary(done),
        digest_call0=done[0]["digest"],
    )
    return flat, problems, calls


def flatten_layers(summary: dict) -> dict:
    """Per-layer values keyed by their BENCHMARK.json names."""
    flat = {}
    for name, st in summary["layers"].items():
        for stat in ("calls", "self_s", "share", "ms_p50", "ms_p99"):
            flat[f"{name}.{stat}"] = st[stat]
        for cls, n in st["fail"].items():
            flat[f"{name}.fail.{cls}"] = n
    flat.update({
        "pcm.active_x_rate": summary["active_x_rate"],
        "pcm.active_sbar_mean": summary["active_sbar_mean"],
        "pcm.active_zbar_mean": summary["active_zbar_mean"],
        "pcm.weights_floored": summary["weights_floored"],
        "linalg.pseudo_inverse.truncated": summary["truncated"],
        "trace.overhead_s": summary["overhead_s"],
        "trace.unattributed_s": summary["unattributed_s"],
    })
    return flat


def _common(args) -> list[str]:
    return ["--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs (2 replications, a one-candidate grid)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pcmselect" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/pcmselect package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke}
    if args.trace:
        found, problems, calls = run_traced(args, workdir, detail)
        wanted = spec["per_layer"]
    else:
        found, problems, calls = run_untraced(args, workdir, detail)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    failed = sum(1 for c in calls if "error" in c)
    correct = not problems
    detail["checks"] = problems or ["all passed"]
    for name, entry in detail.get("metrics", {}).items():
        print(f"{args.workload}  {name:<14} {entry['value']!r} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": max(len(calls), 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
