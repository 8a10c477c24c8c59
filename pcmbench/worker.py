"""Run one benchmark workload in a fresh interpreter.

``run.py`` starts this script once per workload run (and a few more times,
with ``--setup-only``, to time start-up).  It imports ``pcmselect`` from the
checkout's ``src`` directory, builds the workload's inputs, then makes timed
calls through the package's public entry points until ``--seconds`` have
passed (or exactly ``--calls`` calls).  Each call's result is reduced to a
digest, so the caller can check that repeated and traced runs agree.

Results go to standard output as one JSON object per line, prefixed with
``@@``; anything else on standard output is not part of the protocol.

Workloads (see README.md for why each was chosen):

* ``mc_setting_a`` / ``mc_setting_b``: ``run_monte_carlo`` at n=15 with the
  published parameter values, ``workers=1``.  Every call uses the model
  that ``run_monte_carlo`` draws for the criterion-5 seed, passed as a
  custom model so that the workload seed changes only the replications.
* ``tune_pcm``: ``pcmselect tune --method pcm`` through ``cli.main`` on an
  n=100 sample of that setting-A model, with a fixed grid.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

# Seed of the criterion-5 table; it fixes the models of every workload.
TABLE_SEED = 0
# Call i of a run with workload seed s draws its replications (or its
# tune sample) from seed s + i * CALL_SEED_STRIDE, so call 0 at the
# default seed 0 uses the criterion-5 replication stream.
CALL_SEED_STRIDE = 1_000_000

# The published parameter values of the setting A/B benchmark (the
# package's PRESETS); kept here so the workload does not change when the
# package reorganizes its method table.
MC_METHODS = {
    "A": {
        "lasso": {"lam": 0.407},
        "adaptive-lasso": {"lam": 0.407, "eta": 0.100, "pilot_lam": 3.157},
        "elastic-net": {"lam": 0.399, "phi": 0.910},
        "pal1ma": {"lam": 0.294, "eta": 1.200, "pilot_lam": 3.157},
        "pcm": {
            "lambda1": 0.017, "rho1": 0.213, "zeta1": 0.270, "xi1": 0.190,
            "pilot_lambda": 3.157, "pilot_rho": 69.484,
        },
        "frontdoor-including-x": {},
        "frontdoor-not-including-x": {},
        "backdoor": {},
    },
    "B": {
        "pcm": {
            "lambda1": 0.346, "rho1": 0.0, "zeta1": 0.0, "xi1": 1.0,
            "pilot_lambda": 3.726, "pilot_rho": 3.726,
        },
        "frontdoor-minimal": {},
        "frontdoor-whole": {},
    },
}

_SBAR = [f"Sbar{i}" for i in range(1, 6)]
_ZBAR = [f"Zbar{i}" for i in range(1, 11)]
ROLES = {
    "A": {"x": "X", "y": "Y", "z": ["Z"], "zbar": _ZBAR, "s": ["S"], "sbar": _SBAR},
    "B": {"x": "X", "y": "Y", "s": ["S"], "sbar": _SBAR},
}

# Replications per timed call.  Setting A is one replication per call, cut
# at call_limit_s in untraced runs: its per-replication cost is so
# heavy-tailed (0.02 s typical, up to 100 s) that sums over replications
# vary several-fold between seeds, while the median per replication is
# steady, and cutting the slow calls (which lie above the median anyway)
# lets a run sample many more replications (README.md, "Why these
# statistics").  min_calls applies to untraced time-boxed runs.
WORKLOADS = {
    "mc_setting_a": {"setting": "A", "reps": 1, "smoke_reps": 2, "call_limit_s": 0.1},
    "mc_setting_b": {"setting": "B", "reps": 20, "smoke_reps": 2},
    # Tune cost varies about 7% between samples, so a run averages three.
    "tune_pcm": {"n": 100, "min_calls": 3},
}

TUNE_FOLDS = 5
# Longest a call may run when the workload sets no call limit.
CALL_GRACE_S = 40.0
# Calibration kernel time on an unloaded core of a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread); see SpeedProbe.
CAL_REF_S = 1.6e-3
CAL_INTERVAL_S = 0.25
SETUP_CAL_SAMPLES = 5
GRID_KEYS = ("lambda1", "rho1", "zeta1", "xi1", "pilot_lambda", "pilot_rho")


def emit(kind: str, **fields) -> None:
    print("@@ " + json.dumps({"kind": kind, **fields}), flush=True)


def call_seed(seed: int, i: int) -> int:
    return seed + i * CALL_SEED_STRIDE


def table_model(pcm, setting: str):
    """The model ``run_monte_carlo`` builds for the criterion-5 seed."""
    import numpy as np

    model_seed = np.random.SeedSequence(TABLE_SEED).spawn(1)[0]
    scm, spec, _ = pcm.build_experiment_scm(setting, np.random.default_rng(model_seed))
    return scm, spec


def digest_rows(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(row)).encode())
    return h.hexdigest()


class MonteCarlo:
    """Timed call: one ``run_monte_carlo`` of ``reps`` replications."""

    def __init__(self, pcm, setting: str, reps: int, seed: int):
        self.pcm = pcm
        self.reps = reps
        self.seed = seed
        scm, spec = table_model(pcm, setting)
        self.payload = scm.to_dict(spec)
        self.roles = pcm.RolePartition.from_dict(ROLES[setting])
        self.methods = tuple(
            pcm.MethodSpec(name, params=dict(params))
            for name, params in MC_METHODS[setting].items()
        )

    def prepare(self, i: int):
        return self.pcm.ExperimentConfig(
            setting="custom", n=15, replications=self.reps,
            seed=call_seed(self.seed, i), methods=self.methods, workers=1,
            scm_payload=self.payload, roles=self.roles,
        )

    def call(self, config):
        return self.pcm.run_monte_carlo(config)

    def summarize(self, result) -> dict:
        pairs = self.reps * len(self.methods)
        pcm_errors = [est - result.true_tau for _, label, est in result.estimates
                      if label == "pcm"]
        problems = []
        if not math.isfinite(result.true_tau):
            problems.append("true tau is not finite")
        if not all(math.isfinite(est) for _, _, est in result.estimates):
            problems.append("an estimate is not finite")
        return {
            "digest": digest_rows(
                (rep, label, repr(est)) for rep, label, est in result.estimates
            ),
            "tau": repr(result.true_tau),
            "reps": self.reps,
            "pairs": pairs,
            "failed_pairs": pairs - len(result.estimates),
            "pcm_sq_err": sum(e * e for e in pcm_errors),
            "pcm_fits": len(pcm_errors),
            "problems": problems,
        }


def tune_grid(smoke: bool) -> dict:
    """The fixed tune grid: 13 x 5 x 9 = 585 stage candidates, 5 folds.

    The pilot grids are the package defaults, written out so that every
    chosen value can be checked for grid membership.
    """
    from pcmselect.tuning import default_log_grid

    logs = list(default_log_grid())
    if smoke:
        one = [logs[6]]
        return {"lambda1": one, "rho1": one, "zeta1": [0.2], "xi1": [0.3],
                "pilot_lambda": one, "pilot_rho": one,
                "folds": TUNE_FOLDS, "fold_seed": 0}
    return {"lambda1": logs, "rho1": logs[::3], "zeta1": [0.0, 0.2, 0.4],
            "xi1": [0.0, 0.3, 0.6], "pilot_lambda": logs, "pilot_rho": logs,
            "folds": TUNE_FOLDS, "fold_seed": 0}


class Tune:
    """Timed call: ``pcmselect tune --method pcm`` through ``cli.main``."""

    def __init__(self, pcm, n: int, seed: int, workdir: Path, smoke: bool):
        from pcmselect import cli, io as pio

        self.cli = cli
        self.n = n
        self.seed = seed
        self.dir = workdir
        scm, spec = table_model(pcm, "A")
        pio.save_scm(self.dir / "model.json", scm, spec)
        self.grid = tune_grid(smoke)
        (self.dir / "roles.json").write_text(json.dumps(ROLES["A"]))
        (self.dir / "grid.json").write_text(json.dumps(self.grid))

    def prepare(self, i: int):
        """Write call i's sample (untimed); return the tune argv."""
        data = self.dir / f"data-{i}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["simulate", "--scm", str(self.dir / "model.json"),
                                "--n", str(self.n), "--seed", str(call_seed(self.seed, i)),
                                "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"simulate exited with {rc}")
        return ["tune", "--data", str(data), "--roles", str(self.dir / "roles.json"),
                "--method", "pcm", "--grid", str(self.dir / "grid.json"),
                "--out", str(self.dir / f"table-{i}.csv")]

    def call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), Path(argv[-1])

    def summarize(self, result) -> dict:
        rc, stdout, table_path = result
        problems = []
        chosen, score = None, math.nan
        for line in stdout.splitlines():
            if line.startswith("chosen parameters:"):
                chosen = json.loads(line.split(":", 1)[1])
            elif line.startswith("cv score:"):
                score = float(line.split(":", 1)[1])
        if rc != 0:
            problems.append(f"tune exited with {rc}")
        if chosen is None:
            problems.append("tune printed no chosen parameters")
        else:
            problems.extend(
                f"chosen {key}={chosen.get(key)!r} is not in the grid"
                for key in GRID_KEYS if chosen.get(key) not in self.grid[key]
            )
        if not math.isfinite(score):
            problems.append(f"cv score {score!r} is not finite")
        table = table_path.read_text() if table_path.exists() else ""
        fold_scores = _fold_scores(table)
        return {
            # the "wrote score table to <path>" line names the run's directory
            "digest": hashlib.sha256("".join(
                [line for line in stdout.splitlines(True) if not line.startswith("wrote ")]
                + [table]).encode()).hexdigest(),
            "cv_score": score,
            "chosen": chosen,
            "folds_scored": len(fold_scores),
            "folds_inf": sum(1 for s in fold_scores if s == math.inf),
            "problems": problems,
        }


def _fold_scores(table: str) -> list[float]:
    """Every per-fold score in a ``cv_table_csv`` table."""
    lines = table.splitlines()
    if not lines:
        return []
    cols = [j for j, name in enumerate(lines[0].split(",")) if name.startswith("fold_")]
    scores = []
    for line in lines[1:]:
        cells = line.split(",")
        scores.extend(float(cells[j]) for j in cols if j < len(cells) and cells[j])
    return scores


def provenance() -> dict:
    import platform

    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # numpy < 1.25 has no dict mode; provenance only
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def build(args):
    import pcmselect as pcm

    spec = WORKLOADS[args.workload]
    if "setting" in spec:
        reps = spec["smoke_reps"] if args.smoke else spec["reps"]
        return MonteCarlo(pcm, spec["setting"], reps, args.seed)
    return Tune(pcm, spec["n"], args.seed, Path(args.workdir), args.smoke)


class Censored(BaseException):
    """Raised by SIGALRM inside a call that ran past its time limit.

    A BaseException, so that no ``except Exception`` in the package
    swallows it; the tracer's wrappers close their spans and re-raise it.
    """


def _alarm(signum, frame):
    raise Censored


class SpeedProbe:
    """Times a fixed calibration kernel to follow the machine's speed.

    On a shared host the same work takes up to 1.6x longer from one second
    to the next, and a second process on the other core slows both, so the
    kernel runs in this process: before and after every call and every
    ``CAL_INTERVAL_S`` of CPU time inside a call (from a SIGPROF handler,
    whose time is taken off the call's wall time and, when tracing, off the
    open span).  A call's wall time is divided by ``median(samples) /
    CAL_REF_S``, which gives seconds at the speed the kernel has on an
    unloaded core.
    """

    def __init__(self, tracer=None):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        self._np = np
        self._a, self._b = a @ a.T + np.eye(8), np.ones(8)
        self.tracer = tracer
        self.samples: list[float] = []
        self.handler_s = 0.0  # in the current call
        self.total_handler_s = 0.0
        self.sample()  # first use loads numpy's linear-algebra code
        signal.signal(signal.SIGPROF, self._tick)

    def sample(self) -> float:
        """Seconds the calibration kernel takes now."""
        solve, a, b = self._np.linalg.solve, self._a, self._b
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(60):
            x = solve(a, b + 0.001 * i)
            for j in range(40):
                acc += x[j % 8] * 0.5
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.sample())
        spent = time.perf_counter() - t0
        self.handler_s += spent
        self.total_handler_s += spent
        if self.tracer is not None and self.tracer.active:
            self.tracer.charge_extra(spent)

    def start_call(self, before: float) -> None:
        self.samples, self.handler_s = [before], 0.0
        signal.setitimer(signal.ITIMER_PROF, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop_call(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, after: float) -> float:
        return statistics.median(self.samples + [after]) / CAL_REF_S


def run_calls(workload, args, tracer, probe: SpeedProbe) -> list[dict]:
    """Make the timed calls; a call past its limit is cut and marked censored.

    A time-boxed run starts calls until ``args.seconds`` have passed and,
    untraced, the workload's ``min_calls`` are made.  With ``args.calls``
    the run makes exactly that many calls.  A call is cut after
    ``args.call_limit`` seconds, or else after ``CALL_GRACE_S``.
    ``wall`` is speed-normalized (see SpeedProbe), ``raw_wall`` as measured.
    """
    signal.signal(signal.SIGALRM, _alarm)
    min_calls = 1 if args.smoke or tracer is not None else \
        WORKLOADS[args.workload].get("min_calls", 1)
    records = []
    started = time.perf_counter()
    before = probe.sample()
    i = 0
    while args.calls is None or i < args.calls:
        if (args.calls is None and i >= min_calls
                and time.perf_counter() - started >= args.seconds):
            break
        budget = CALL_GRACE_S if args.call_limit is None else args.call_limit
        prepared = workload.prepare(i)
        emit("start", i=i)
        record = {"i": i}
        if tracer is not None:
            tracer.active = True
        probe.start_call(before)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                result = workload.call(prepared)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                probe.stop_call()
        except Censored:
            record["censored"] = True
        except Exception as exc:  # reported as a failed operation, not a crash
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record.update(workload.summarize(result))
        finally:
            raw = time.perf_counter() - t0 - probe.handler_s
            if tracer is not None:
                tracer.active = False
        before = probe.sample()
        factor = probe.factor(before)
        record.update(wall=raw / factor, raw_wall=raw, speed=factor)
        emit("call", **record)
        records.append(record)
        i += 1
        if record.get("censored") and args.call_limit is None:
            break  # a call ran CALL_GRACE_S: the run would outlast its limits
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=TABLE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--calls", type=int, help="make exactly this many calls")
    parser.add_argument("--call-limit", type=float, help="cut each call after this many seconds")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--repeat", action="store_true",
                        help="re-run the cheapest call and compare its digest")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="smallest inputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workload = build(args)
    setup_s = time.monotonic() - args.spawned_at
    tracer = None
    if args.trace:
        import pcmselect

        from tracer import Tracer

        tracer = Tracer()
    probe = SpeedProbe(tracer)
    speed = statistics.median(probe.sample() for _ in range(SETUP_CAL_SAMPLES)) / CAL_REF_S
    emit("setup", setup_s=setup_s / speed, raw_setup_s=setup_s, speed=speed, **provenance())
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.install(pcmselect)
    records = run_calls(workload, args, tracer, probe)

    if args.repeat:
        done = [r for r in records if "digest" in r]
        if done:
            cheapest = min(done, key=lambda r: r["wall"])
            again = workload.summarize(workload.call(workload.prepare(cheapest["i"])))
            emit("repeat", i=cheapest["i"], digest_ok=again["digest"] == cheapest["digest"])
    if tracer is not None:
        tracer.write_spans(Path(args.workdir) / "spans.json")
        # span durations include the speed probe's in-call samples
        traced_wall = sum(r["raw_wall"] for r in records) + probe.total_handler_s
        emit("layers", **tracer.summary(traced_wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
