"""Sum-of-squares algebra shared by every estimator.

All estimators in this package work on sums of squares and cross-products of
standardized observation columns (``data.Dataset.gram``, ``data.gram_stack``).
The helpers here standardize stacks of columns and compute Moore-Penrose
pseudoinverses.  Everything is a pure function of ndarray inputs.

Conventions
-----------
* Standardization uses the population (1/n) variance, so a standardized
  column of length n has sum of squares exactly n.  Penalty bookkeeping in
  the estimator modules relies on this.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstantColumn, DecompositionFailure

__all__ = [
    "as_matrix",
    "standardize_stack",
    "pseudo_inverse",
    "pseudo_inverse_batch",
    "batched",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array; raise ValueError otherwise."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def standardize_stack(stack: np.ndarray, names=None) -> list:
    """Center and scale each column of each matrix of an (R, n, q) stack, over its
    rows, to mean 0 and population variance 1, in one pass.

    Returns, for each matrix in order, its standardized (n, q) slice of one
    (R, n, q) result, or the :class:`ConstantColumn` naming its first column
    of zero variance (by ``names``, a sequence of the q column names, or
    else by index).  Each matrix is standardized as it would be alone, bit
    for bit.  A constant column fails only its own matrix, and its zero
    scale is never divided by.

    Raises ValueError for fewer than 2 rows or a NaN or an Inf entry.
    """
    if stack.shape[1] < 2:
        raise ValueError("standardize needs at least 2 rows")
    if not np.isfinite(stack).all():
        raise ValueError("raw data contains NaN or Inf entries")
    scale = stack.std(axis=1)  # population convention (ddof=0)
    constant = scale == 0.0
    out = stack - stack.mean(axis=1)[:, None]
    out /= np.where(constant, 1.0, scale)[:, None]
    return [values if not failed else ConstantColumn(str(j) if names is None else names[j])
            for values, failed, j in zip(out, constant.any(axis=1).tolist(),
                                         constant.argmax(axis=1).tolist())]


def pseudo_inverse(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse by SVD.

    Singular values at or below ``tol * (largest singular value)`` are
    treated as zero.  The default tolerance is ``1e-10 * max(rows, cols)``,
    a standard numerical-rank cutoff.  The one-matrix case of
    :func:`pseudo_inverse_batch`.

    Raises
    ------
    DecompositionFailure
        If the SVD does not converge.
    """
    inverse, failed = pseudo_inverse_batch(as_matrix(m)[None], tol)
    if failed:
        raise failed[0]
    return inverse[0]


def pseudo_inverse_batch(stack: np.ndarray, tol: float | None = None) -> tuple:
    """:func:`pseudo_inverse` of each matrix of a (D, rows, cols) stack, in one batched
    SVD: the (D, cols, rows) stack of pseudoinverses, zero for a matrix whose SVD did
    not converge, and the :class:`DecompositionFailure` of each such matrix, by index.

    Raises ValueError if the stack holds a NaN or an Inf.
    """
    if not np.isfinite(stack).all():
        raise ValueError("matrix contains NaN or Inf entries")
    d, rows, cols = stack.shape
    if not stack.size:
        return np.zeros((d, cols, rows)), {}
    (u, s, vt), failed = batched(lambda m: tuple(np.linalg.svd(m, full_matrices=False)),
                                 [stack], lambda exc: DecompositionFailure(str(exc)))
    if tol is None:
        tol = 1e-10 * max(rows, cols)
    inv = np.where(s > tol * s[:, :1], np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (vt.transpose(0, 2, 1) * inv[:, None]) @ u.transpose(0, 2, 1), failed


def batched(fn, stacks: list, error) -> tuple:
    """``fn`` on ``stacks``, arrays of systems along their first axis, in one call: its
    results, a tuple of arrays with zeros for each system that failed, and
    ``error(exc)`` of each such system, by index.  A batch that raises LinAlgError does
    not say which system failed, so then each is tried alone."""
    count = len(stacks[0])
    try:
        return fn(*stacks), {}
    except np.linalg.LinAlgError:
        failed = {}
        for i in range(count):
            try:
                fn(*[stack[i : i + 1] for stack in stacks])
            except np.linalg.LinAlgError as exc:
                failed[i] = error(exc)
        ok = [i for i in range(count) if i not in failed]
        passed = fn(*[stack[ok] for stack in stacks])
        results = tuple(np.zeros((count, *part.shape[1:])) for part in passed)
        for full, part in zip(results, passed):
            full[ok] = part
        return results, failed
