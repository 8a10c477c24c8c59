"""Datasets and the treatment/outcome/covariate/mediator role partition."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigInvalid, check_keys
from .linalg import as_matrix, standardize

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
        if values.shape[1] != len(self.columns):
            raise ValueError(
                f"{values.shape[1]} columns of data vs {len(self.columns)} names"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))

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
        return Dataset(standardize(self.values, self.columns), self.columns)

    def check_roles(self, roles: RolePartition) -> None:
        missing = [c for c in roles.required_columns() if c not in self.columns]
        if missing:
            raise ConfigInvalid(f"dataset lacks role columns: {missing}")


def gram_stack(datasets, names) -> np.ndarray:
    """The (D, k, k) stack of the :attr:`Dataset.gram` blocks of ``datasets``, each
    between the k columns of its entry of ``names``, laid out as :meth:`Dataset.cross`
    lays out one.  ``take`` along one axis at a time keeps each block C-contiguous:
    index arrays on the last two axes of a stack would put the stack's axis innermost,
    and BLAS would then not take the blocks."""
    return np.array([data.gram.take(index, 0).take(index, 1)
                     for data, index in zip(datasets, map(Dataset.index_of, datasets, names))])
