"""Datasets and the treatment/outcome/covariate/mediator role partition."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigInvalid, ConstantColumn, check_keys, unwrap
from .linalg import as_matrix, standardize_stack

__all__ = ["RolePartition", "Dataset", "gram_stack"]

# The set-valued role groups, in declaration order.
_GROUPS = ("z", "zbar", "s", "sbar")


@dataclass(frozen=True)
class RolePartition:
    """Column roles for total-effect estimation.

    x, y : treatment and response columns.
    z    : covariates fixed by prior knowledge (never penalized).
    zbar : candidate covariates subject to selection.
    s    : mediators fixed by prior knowledge (never penalized).
    sbar : candidate mediators subject to selection.

    The six groups must be pairwise disjoint; any of the four set-valued
    groups may be empty.
    """

    x: str
    y: str
    z: tuple[str, ...] = ()
    zbar: tuple[str, ...] = ()
    s: tuple[str, ...] = ()
    sbar: tuple[str, ...] = ()

    def __post_init__(self):
        for key in _GROUPS:
            object.__setattr__(self, key, tuple(getattr(self, key)))
        flat = self.required_columns()
        if len(set(flat)) != len(flat):
            raise ConfigInvalid("role groups must be pairwise disjoint")

    @property
    def covariates(self) -> tuple[str, ...]:
        return self.z + self.zbar

    @property
    def mediators(self) -> tuple[str, ...]:
        return self.s + self.sbar

    @property
    def y_regressors(self) -> tuple[str, ...]:
        """Outcome-model regressors, in the block order [x, s, z, sbar, zbar]."""
        return (self.x,) + self.s + self.z + self.sbar + self.zbar

    @property
    def m_regressors(self) -> tuple[str, ...]:
        """Mediator-model regressors, in the block order [x, z, zbar]."""
        return (self.x,) + self.z + self.zbar

    def required_columns(self) -> tuple[str, ...]:
        return (self.x, self.y) + self.covariates + self.mediators

    @staticmethod
    def from_dict(payload: dict) -> "RolePartition":
        if not isinstance(payload, dict):
            raise ConfigInvalid("roles config must be a JSON object")
        check_keys(payload, ("x", "y", *_GROUPS), "roles config")
        for key in ("x", "y"):
            if key not in payload:
                raise ConfigInvalid(f"roles config is missing field {key!r}")
            if not isinstance(payload[key], str):
                raise ConfigInvalid(f"roles field {key!r} must be a column name")
        groups = {key: payload.get(key, ()) for key in _GROUPS}
        for key, names in groups.items():
            if not (isinstance(names, (list, tuple)) and all(isinstance(c, str) for c in names)):
                raise ConfigInvalid(f"roles field {key!r} must be a list of column names")
        return RolePartition(x=payload["x"], y=payload["y"], **groups)

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, **{key: list(getattr(self, key)) for key in _GROUPS}}


@dataclass(frozen=True)
class Dataset:
    """A named-column observation matrix, usually standardized.

    Every estimator reads the data through blocks of the one cross-product
    matrix :attr:`gram`: a stack of datasets through :func:`gram_stack`, one
    block through :meth:`cross`.
    """

    values: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        values = as_matrix(self.values, "dataset")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", _checked(values.shape[1], self.columns))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.columns)}

    @cached_property
    def gram(self) -> np.ndarray:
        """Cross-product matrix ``V.T @ V`` of all columns, computed on first use."""
        return self.values.T @ self.values

    def index_of(self, names) -> np.ndarray:
        try:
            return np.array([self._lookup[n] for n in names], dtype=int)
        except KeyError as exc:
            raise ConfigInvalid(f"column {exc} not present in dataset") from exc

    def cross(self, rows, cols) -> np.ndarray:
        """Block of :attr:`gram` between two sequences of column names."""
        return self.gram[self.index_of(rows)[:, None], self.index_of(cols)]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index_of([name])[0]]

    def standardized(self) -> "Dataset":
        """Each column centred and scaled to mean 0 and population variance 1: the
        one-dataset case of :meth:`standardized_stack`, which raises its failure."""
        return unwrap(Dataset.standardized_stack(self.values[None], self.columns)[0])

    @staticmethod
    def standardized_stack(stack: np.ndarray, columns) -> list:
        """:meth:`standardized` of the dataset of each (n, q) matrix of an (R, n, q)
        stack with these columns, in one :func:`~pcmselect.linalg.standardize_stack`
        pass: each dataset views its slice of one standardized stack, and a matrix
        with a constant column gives its :class:`ConstantColumn` in its place.

        The stack and the names are checked once, so each dataset is built
        without the checks of a direct construction."""
        columns = _checked(stack.shape[-1], columns)
        out = standardize_stack(stack, columns)
        for i, values in enumerate(out):
            if not isinstance(values, ConstantColumn):
                out[i] = object.__new__(Dataset)
                out[i].__dict__.update(values=values, columns=columns)
        return out

    def check_roles(self, roles: RolePartition) -> None:
        missing = [c for c in roles.required_columns() if c not in self.columns]
        if missing:
            raise ConfigInvalid(f"dataset lacks role columns: {missing}")


def _checked(width: int, columns) -> tuple:
    """``columns`` as a tuple of ``width`` distinct names; raise ValueError otherwise."""
    columns = tuple(columns)
    if width != len(columns):
        raise ValueError(f"{width} columns of data vs {len(columns)} names")
    if len(set(columns)) != len(columns):
        raise ValueError("duplicate column names")
    return columns


def gram_stack(datasets, names) -> np.ndarray:
    """The (D, k, k) stack of the :attr:`Dataset.gram` blocks of ``datasets``, each
    between the k columns of its entry of ``names``, laid out as :meth:`Dataset.cross`
    lays out one (an empty input gives ``np.array([])``).

    The datasets that share their columns and their names form one group, which
    looks its names up once and gathers its blocks from the stack of its grams with
    one ``take`` per axis; most callers pass every dataset the same names, so a call
    is usually one group.  ``take`` along one axis at a time keeps each block
    C-contiguous: index arrays on the last two axes of a stack would put the stack's
    axis innermost, and BLAS would then not take the blocks."""
    groups: dict[tuple, list[int]] = {}
    for i, (data, keys) in enumerate(zip(datasets, names)):
        groups.setdefault((data.columns, tuple(keys)), []).append(i)
    stack = np.array([])
    for (_, keys), members in groups.items():
        index = datasets[members[0]].index_of(keys)
        blocks = np.array([datasets[i].gram for i in members]).take(index, 1).take(index, 2)
        if len(members) == len(datasets):
            return blocks
        if stack.ndim == 1:
            stack = np.empty((len(datasets), len(index), len(index)))
        stack[members] = blocks
    return stack
