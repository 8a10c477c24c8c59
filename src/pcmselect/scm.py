"""Linear structural causal models: calibration, sampling, and ground truth.

A :class:`LinearScm` assigns each vertex of a DAG a linear equation in its
parents plus an independent disturbance.  A designated block of exogenous
vertices may instead be jointly Gaussian with an arbitrary correlation matrix
(:class:`CovarianceSpec`); this models covariates whose mutual dependence is
specified by a covariance rather than by explicit edges.

The module also builds the two benchmark models used by the Monte Carlo
experiment ("setting A": observed sufficient covariates with strong
treatment-covariate correlation; "setting B": unobserved covariates with a
front-door mediator structure).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExplainedVarianceExceedsOne, PcmSelectError, UnknownVertex, check_keys
from .graphs import Dag

__all__ = [
    "CovarianceSpec",
    "LinearScm",
    "parse_scm",
    "random_correlation",
    "build_experiment_scm",
    "experiment_criteria_dag",
    "coupling_dag",
    "EXPERIMENT_VERTICES",
]


@dataclass(frozen=True)
class CovarianceSpec:
    """A correlation-scale covariance matrix for a correlated exogenous block.

    Invariants: symmetric to 1e-12, unit diagonal, positive definite (up to
    eigenvalue roundoff; high-dimensional random correlation matrices are
    routinely singular to machine precision while positive definite in exact
    arithmetic).  ``chol`` optionally carries a factor F with F F^T equal to
    the matrix, e.g. from the generating construction.
    """

    matrix: np.ndarray
    chol: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance spec must be a square matrix")
        if m.size:
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise ValueError("covariance spec must be symmetric")
            if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
                raise ValueError("covariance spec must have unit diagonal")
            eigs = np.linalg.eigvalsh(m)
            if eigs.min() < -1e-10 * max(1.0, eigs.max()):
                raise ValueError("covariance spec must be positive definite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def cholesky_factor(self) -> np.ndarray:
        """A factor F with F F^T = matrix, robust to numerical semidefiniteness."""
        if self.chol is not None:
            return self.chol
        try:
            return np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError:
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


@dataclass(frozen=True)
class LinearScm:
    """DAG plus edge coefficients and disturbance variances (zero intercepts).

    ``correlated`` names the exogenous vertices whose joint disturbance is
    supplied separately as a :class:`CovarianceSpec`; they must have no
    parents.  All other disturbances are independent with the given
    variances.
    """

    dag: Dag
    coefficients: dict[tuple[str, str], float]
    error_variances: dict[str, float]
    correlated: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if set(self.coefficients) != set(self.dag.edges):
            raise ValueError("coefficient keys must exactly match dag edges")
        if set(self.error_variances) != set(self.dag.vertices):
            raise ValueError("error variances must cover every vertex")
        for v, var in self.error_variances.items():
            if not var > 0:
                raise ValueError(f"error variance of {v!r} must be positive")
        for v in self.correlated:
            if v not in self.dag.vertices:
                raise UnknownVertex(v)
            if self.dag.parents(v):
                raise ValueError(f"correlated vertex {v!r} must be exogenous")

    def _check_block(self, spec: CovarianceSpec | None) -> None:
        """Raise ``ValueError`` unless ``spec`` fits the correlated block, if there is one."""
        if not self.correlated:
            return
        if spec is None:
            raise ValueError("scm declares a correlated block; pass its CovarianceSpec")
        if spec.dim != len(self.correlated):
            raise ValueError(
                f"covariance spec has dim {spec.dim}, expected {len(self.correlated)}"
            )

    # -- population quantities -------------------------------------------------

    def true_total_effect(self, x: str, y: str) -> float:
        """Sum over all directed x-to-y paths of the edge-coefficient products."""
        self.dag._require(x)
        self.dag._require(y)
        # each vertex's sum over its paths to y, children before parents
        totals: dict[str, float] = {}
        for v in reversed(self.dag.topological_order):
            total = 0.0
            for c in self.dag.children(v):
                total += self.coefficients[(v, c)] * totals[c]
            totals[v] = 1.0 if v == y else total
        return float(totals[x])

    def calibrate_unit_variance(self, exogenous_block: CovarianceSpec | None = None) -> "LinearScm":
        """Set disturbance variances so every variable has population variance 1.

        Processes vertices in topological order (correlated block first); for
        each vertex the disturbance variance becomes one minus the variance
        already explained by its parents.

        Raises
        ------
        ExplainedVarianceExceedsOne
            If a vertex's parents explain variance >= 1.
        """
        self._check_block(exogenous_block)
        block = list(self.correlated)
        order = block + [v for v in self.dag.topological_order if v not in self.correlated]
        pos = {v: i for i, v in enumerate(order)}
        q = len(order)
        sigma = np.zeros((q, q))
        new_vars = dict(self.error_variances)
        if block:
            bidx = [pos[v] for v in block]
            sigma[np.ix_(bidx, bidx)] = exogenous_block.matrix
            for v in block:
                new_vars[v] = 1.0
        for v in order:
            if v in self.correlated:
                continue
            i = pos[v]
            parents = self.dag.parents(v)
            if not parents:
                new_vars[v] = 1.0
                sigma[i, i] = 1.0
                continue
            pidx = [pos[p] for p in parents]
            alpha = np.array([self.coefficients[(p, v)] for p in parents])
            explained = float(alpha @ sigma[np.ix_(pidx, pidx)] @ alpha)
            if explained >= 1.0 - 1e-12:
                raise ExplainedVarianceExceedsOne(v, explained)
            new_vars[v] = 1.0 - explained
            cov_row = alpha @ sigma[pidx, :]
            sigma[i, :] = cov_row
            sigma[:, i] = cov_row
            sigma[i, i] = 1.0
        return replace(self, error_variances=new_vars)

    # -- sampling ----------------------------------------------------------------

    def sample(
        self,
        n: int,
        rng: np.random.Generator,
        exogenous_block: CovarianceSpec | None = None,
    ) -> np.ndarray:
        """Draw ``n`` independent rows, columns ordered like ``dag.vertices``.

        The correlated block is jointly Gaussian from its spec; all other
        disturbances are independent Gaussians with the model's variances.
        Deterministic given the generator state.  The one-generator case of
        :meth:`sample_stack`.
        """
        return self.sample_stack(n, [rng], exogenous_block)[0]

    def sample_stack(self, n: int, rngs: Sequence[np.random.Generator],
                     exogenous_block: CovarianceSpec | None = None) -> np.ndarray:
        """:meth:`sample` with each of the generators ``rngs``: the (R, n, q) stack of
        their samples.

        Each generator draws its own noise, so each sample does not depend on
        the others; the correlated block, the scaling and the structural
        equations then run once on the stack, in one buffer that each
        vertex's equation updates in place, in topological order.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        self._check_block(exogenous_block)
        idx = {v: i for i, v in enumerate(self.dag.vertices)}
        values = np.empty((len(rngs), n, len(idx)))
        for rng, noise in zip(rngs, values):
            rng.standard_normal(out=noise)
        if self.correlated:
            cols = [idx[v] for v in self.correlated]
            values[..., cols] = values[..., cols] @ exogenous_block.cholesky_factor().T
        values *= [1.0 if v in self.correlated else math.sqrt(self.error_variances[v])
                   for v in self.dag.vertices]
        for v in self.dag.topological_order:
            for p in self.dag.parents(v):
                values[..., idx[v]] += self.coefficients[(p, v)] * values[..., idx[p]]
        return values

    # -- serialization -------------------------------------------------------------

    def to_dict(self, exogenous_block: CovarianceSpec | None = None) -> dict:
        self._check_block(exogenous_block)
        payload = {
            "vertices": list(self.dag.vertices),
            "edges": [
                {"from": t, "to": h, "coef": self.coefficients[(t, h)]}
                for t, h in sorted(self.dag.edges)
            ],
            "error_variances": {v: self.error_variances[v] for v in self.dag.vertices},
        }
        if self.correlated:
            payload["correlated_block"] = {
                "vertices": list(self.correlated),
                "correlation": exogenous_block.matrix.tolist(),
            }
        return payload

    @staticmethod
    def from_dict(payload: dict) -> tuple["LinearScm", CovarianceSpec | None]:
        check_keys(payload, ("vertices", "edges", "error_variances", "correlated_block"),
                   "the model", ValueError)
        dag = Dag(
            payload["vertices"],
            [(e["from"], e["to"]) for e in payload["edges"]],
        )
        coefs = {(e["from"], e["to"]): float(e["coef"]) for e in payload["edges"]}
        variances = {v: float(x) for v, x in payload["error_variances"].items()}
        correlated: tuple[str, ...] = ()
        spec = None
        blk = payload.get("correlated_block")
        if blk:
            correlated = tuple(blk["vertices"])
            corr = blk.get("correlation")
            if corr:
                spec = CovarianceSpec(np.asarray(corr, dtype=float))
        scm = LinearScm(dag, coefs, variances, correlated)
        scm._check_block(spec)
        return scm, spec


def parse_scm(payload, error: type[PcmSelectError],
              source: str) -> tuple[LinearScm, CovarianceSpec | None]:
    """:meth:`LinearScm.from_dict` that raises ``error`` for a malformed payload.

    A missing key, a value of the wrong type or a bad number becomes
    ``error``, whose message names ``source`` (a file path or a config field).
    """
    try:
        return LinearScm.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{source}: bad structural model: {exc}") from exc


def random_correlation(q: int, rng: np.random.Generator) -> CovarianceSpec:
    """Random correlation matrix from hyperspherical Cholesky angles.

    Each Cholesky row is a point on the unit sphere parameterized by angles
    drawn uniformly on (0, pi); the result therefore has unit diagonal and is
    positive definite by construction.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    chol = np.zeros((q, q))
    chol[0, 0] = 1.0
    for i in range(1, q):
        theta = rng.uniform(0.0, math.pi, size=i)
        sines = np.sin(theta)
        cosines = np.cos(theta)
        prod = 1.0
        for j in range(i):
            chol[i, j] = cosines[j] * prod
            prod *= sines[j]
        chol[i, i] = prod
    return CovarianceSpec(chol @ chol.T, chol=chol)


# -- benchmark experiment models --------------------------------------------------

_SBAR = [f"Sbar{i}" for i in range(1, 6)]
_ZBAR = [f"Zbar{i}" for i in range(1, 11)]
EXPERIMENT_VERTICES = ["Z"] + _ZBAR + ["X", "S"] + _SBAR + ["Y"]


def _experiment_edges(setting: str, y_on_zbar, y_on_sbar) -> dict[tuple[str, str], float]:
    """Edge coefficients of the benchmark model for one setting.

    ``y_on_zbar`` (10 values) and ``y_on_sbar`` (5 values) are the
    coefficients that the experiment draws uniformly from [-0.2, 0.2]
    (``y_on_sbar[0]`` is fixed at 0.2 in setting B).
    """
    setting = setting.upper()
    if setting not in ("A", "B"):
        raise ValueError("setting must be 'A' or 'B'")
    edges: dict[tuple[str, str], float] = {}
    edges[("S", "Y")] = 0.4
    for i, name in enumerate(_SBAR):
        edges[("S", name)] = 0.2
        edges[(name, "Y")] = float(y_on_sbar[i])
    for i, name in enumerate(_ZBAR):
        edges[(name, "Y")] = float(y_on_zbar[i])
    if setting == "A":
        edges[("Z", "X")] = 0.8
        edges[("X", "S")] = 0.1
        edges[("Z", "Y")] = 0.2
        edges[("Z", "S")] = 0.2
        for name in _SBAR:
            edges[("Z", name)] = 0.2
    else:
        edges[("Z", "X")] = 0.2
        edges[("X", "S")] = 0.8
        edges[("X", "Sbar1")] = 0.2
    return edges


def _experiment_scm(edges: dict[tuple[str, str], float]) -> LinearScm:
    """The benchmark model on ``edges`` with unit disturbance variances."""
    return LinearScm(Dag(EXPERIMENT_VERTICES, list(edges)), edges,
                     {v: 1.0 for v in EXPERIMENT_VERTICES}, correlated=tuple(["Z"] + _ZBAR))


def build_experiment_scm(
    setting: str, rng: np.random.Generator
) -> tuple[LinearScm, CovarianceSpec, float]:
    """Construct a benchmark model instance and its true total effect.

    The uncertain coefficients (ten covariate-on-outcome and up to five
    mediator-on-outcome values) are drawn once per call from U[-0.2, 0.2];
    the covariate block gets a fresh random correlation matrix; disturbance
    variances are calibrated so every variable has unit variance.
    """
    setting = setting.upper()
    y_on_zbar = rng.uniform(-0.2, 0.2, size=10)
    y_on_sbar = np.empty(5)
    y_on_sbar[1:] = rng.uniform(-0.2, 0.2, size=4)
    y_on_sbar[0] = rng.uniform(-0.2, 0.2) if setting == "A" else 0.2
    edges = _experiment_edges(setting, y_on_zbar, y_on_sbar)
    spec = random_correlation(11, rng)
    scm = _experiment_scm(edges).calibrate_unit_variance(spec)
    tau = scm.true_total_effect("X", "Y")
    return scm, spec, tau


def coupling_dag(scm: LinearScm) -> Dag:
    """The model's DAG with a latent common parent ``_L`` over the correlated block.

    Criterion checks (d-separation, back-door, front-door-like) must account
    for the dependence inside the correlated exogenous block; a shared latent
    parent represents an arbitrary all-nonzero correlation pattern for
    separation purposes.  If a vertex has that name, the latent gets more underscores.
    """
    if not scm.correlated:
        return scm.dag
    latent = "_L"
    while latent in scm.dag.vertices:
        latent = "_" + latent
    vertices = [latent] + list(scm.dag.vertices)
    edges = [(latent, v) for v in scm.correlated] + sorted(scm.dag.edges)
    return Dag(vertices, edges)


def experiment_criteria_dag(setting: str) -> Dag:
    """Benchmark DAG (with the covariate-block latent) for criterion checks."""
    return coupling_dag(_experiment_scm(_experiment_edges(setting, np.full(10, 0.1),
                                                          np.full(5, 0.1))))
