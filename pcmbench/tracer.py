"""Spans around the calls into each layer of ``pcmselect``, from outside it.

The package's modules import each other's functions by name (``pcm`` calls
``coordinate_descent``, ``tuning`` calls ``pcm_stage1_m``), so a wrapper is
installed on every module attribute that holds a traced function, not only
on its defining module.  A wrapper times the call, re-raises whatever the
call raises, and does any extra bookkeeping (the SVD count behind
``linalg.pseudo_inverse.truncated``, reading the returned ``PcmFit``) after
its span has closed; that time is charged to ``trace.extra_s`` and not to
the enclosing span.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

# (module, qualified name) of every traced function.  Entry points open the
# span tree of a timed call; their self time is glue, not a layer.
ENTRY_POINTS = (("experiment", "run_monte_carlo"), ("cli", "main"))
LAYERS = (
    ("pcm", "pcm_total_effect"),
    ("pcm", "ridge_pilot_y"),
    ("pcm", "ridge_pilot_m"),
    ("pcm", "adaptive_weights"),
    ("pcm", "pcm_stage1_y"),
    ("pcm", "pcm_stage1_m"),
    ("pcm", "debias_ridges"),
    ("pcm", "pcm_correct"),
    ("solvers", "coordinate_descent"),
    ("solvers", "ridge_solve"),
    ("solvers", "ols_solve"),
    ("linalg", "pseudo_inverse"),
    ("scm", "LinearScm.sample"),
    ("data", "Dataset.standardized"),
    ("graphs", "minimal_mediator_sets"),
    ("io", "read_dataset_csv"),
    ("tuning", "cross_validate"),
    ("baselines", "baseline_penalized"),
    ("baselines", "back_door_estimate"),
    ("baselines", "front_door_like_estimate"),
)
# Spans that start a new group: every replication of run_monte_carlo starts
# by sampling its data; every cross-validation fold fit starts with a pilot.
_REPLICATION_OPENER = "scm.LinearScm.sample"
_FOLD_OPENERS = ("pcm.ridge_pilot_y", "pcm.ridge_pilot_m")
_ENTRY_NAMES = tuple(f"{m}.{q}" for m, q in ENTRY_POINTS)

# span fields
NAME, GROUP, PARENT, START, END, CHILD, ERROR, LABEL = range(8)


class Tracer:
    def __init__(self):
        self.active = False  # spans are recorded only inside timed calls
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._group = 0
        self._last_top: str | None = None
        self.extra_s = 0.0
        self.missing: list[str] = []
        self.truncated = 0
        self.fits = {"count": 0, "active_x": 0, "sbar": 0, "zbar": 0}
        self.weights_floored = 0

    # -- installation ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function at each module attribute that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for module_name, qualname in ENTRY_POINTS + LAYERS:
            name = f"{module_name}.{qualname}"
            owner = sys.modules.get(f"{package.__name__}.{module_name}")
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(cls, attr, self._wrap(name, original))
            else:
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, alias, wrapper)

    def _wrap(self, name: str, fn):
        after = {
            "linalg.pseudo_inverse": self._count_truncation,
            "pcm.pcm_total_effect": self._read_fit,
            "pcm.adaptive_weights": self._read_weights,
        }.get(name)
        label_of = _method_label if name == "baselines.baseline_penalized" else None

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name, label_of(args, kwargs) if label_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx, None)
            if after is not None:
                t0 = time.perf_counter()
                after(result, args, kwargs)
                self.charge_extra(time.perf_counter() - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- spans ---------------------------------------------------------------------

    def _open(self, name: str, label) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == _REPLICATION_OPENER or name in _ENTRY_NAMES:
            self._group += 1
        elif parent >= 0 and self.spans[parent][NAME] == "tuning.cross_validate":
            # A fold fit of the stage-1 search calls both pilots in turn, so a
            # mediator pilot right after an outcome pilot stays in its group
            # (which also joins the first pilot-rho fold to the last
            # pilot-lambda fold).
            if name in _FOLD_OPENERS and not (
                    name == "pcm.ridge_pilot_m" and self._last_top == "pcm.ridge_pilot_y"):
                self._group += 1
            self._last_top = name
        idx = len(self.spans)
        self.spans.append([name, self._group, parent, time.perf_counter(), 0.0, 0.0, None, label])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def charge_extra(self, seconds: float) -> None:
        """Take time spent on the benchmark's own work off the open span."""
        self.extra_s += seconds
        if self._stack:
            self.spans[self._stack[-1]][CHILD] += seconds

    # -- counts read after a span closes -------------------------------------------

    def _count_truncation(self, result, args, kwargs) -> None:
        import numpy as np

        m = np.asarray(args[0] if args else kwargs["m"], dtype=float)
        if m.ndim == 1:  # pseudo_inverse reads a vector as one column
            m = m[:, None]
        if m.size == 0:
            return
        tol = args[1] if len(args) > 1 else kwargs.get("tol")
        if tol is None:
            tol = 1e-10 * max(m.shape)
        s = np.linalg.svd(m, compute_uv=False)
        if np.any(s <= tol * s[0]):
            self.truncated += 1

    def _read_fit(self, fit, args, kwargs) -> None:
        self.fits["count"] += 1
        self.fits["active_x"] += int(bool(getattr(fit, "active_x", False)))
        self.fits["sbar"] += len(getattr(fit, "active_sbar", ()))
        self.fits["zbar"] += len(getattr(fit, "active_zbar", ()))

    def _read_weights(self, weights, args, kwargs) -> None:
        self.weights_floored += int(bool(getattr(weights, "floored", False)))

    # -- output --------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        fields = ("name", "group", "parent", "start", "end", "child_s", "error", "label")
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

    def summary(self, traced_wall: float) -> dict:
        """Per-layer statistics of the recorded spans.

        ``self_s`` is a span's duration minus the time its child spans (and
        the tracer's own after-span bookkeeping) cover; ``incl_s`` is its
        whole duration.  ``methods`` holds per-method latencies of
        ``baseline_penalized``.  ``unattributed_s`` is the traced wall time
        that no layer's self time covers: entry-point glue and tracer cost.
        """
        layers: dict[str, dict] = {}
        methods: dict[str, list[float]] = {}
        for span in self.spans:
            name, dur = span[NAME], span[END] - span[START]
            st = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                          "ms": [], "fail": {}})
            st["calls"] += 1
            st["incl_s"] += dur
            st["self_s"] += dur - span[CHILD]
            st["ms"].append(dur * 1000.0)
            if span[ERROR]:
                st["fail"][span[ERROR]] = st["fail"].get(span[ERROR], 0) + 1
            if span[LABEL]:
                methods.setdefault(f"{name}.{span[LABEL]}", []).append(dur * 1000.0)
        attributed = sum(st["self_s"] for name, st in layers.items()
                         if name not in _ENTRY_NAMES)
        for st in layers.values():
            ms = st.pop("ms")
            st["ms_p50"], st["ms_p99"] = statistics.median(ms), _quantile(ms, 0.99)
            st["share"] = st["self_s"] / traced_wall if traced_wall > 0 else 0.0
            st["share_incl"] = st["incl_s"] / traced_wall if traced_wall > 0 else 0.0
        fits = max(self.fits["count"], 1)
        return {
            "layers": layers,
            "methods": {key: {"calls": len(ms), "ms_p50": statistics.median(ms),
                              "ms_p99": _quantile(ms, 0.99)}
                        for key, ms in methods.items()},
            "unattributed_s": traced_wall - attributed,
            "extra_s": self.extra_s,
            "truncated": self.truncated,
            "active_x_rate": self.fits["active_x"] / fits,
            "active_sbar_mean": self.fits["sbar"] / fits,
            "active_zbar_mean": self.fits["zbar"] / fits,
            "weights_floored": self.weights_floored,
            "groups": self._group,
            "missing": self.missing,
        }


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; with fewer than 1/(1-q) values, the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _method_label(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method")
    return method if isinstance(method, str) else None
