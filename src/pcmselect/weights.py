"""Step 2 of pcm's pipeline: the adaptive weights, and the stage-1 L1 weights built
from them.

The adaptive weights are reciprocal pilot magnitudes, standardized to sum
one (:func:`reciprocal_power_weights_stack`): candidate-mediator weights from the
mediator-model treatment coefficients, candidate-covariate weights from the
outcome-model pilot, and a matrix of weights for the mediator model from its
own candidate-covariate pilots.  :func:`pilot_weights` computes them for a
sequence of datasets, such as the samples of a chunk of Monte Carlo
replications, in one pass over the stacks of their pilots; each dataset's
:class:`AdaptiveWeights` view its rows of the stacked weights, and
:func:`adaptive_weights` is the one-dataset case.  The stage-1 L1 weights of
every dataset, penalty mix and penalty value are one broadcast of the stacked
weights (``_y_l1_weights``, ``_m_l1_weights``).  The pipeline and its
parameters are described in :mod:`pcmselect.pcm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import RolePartition
from .debias import zbar_share
from .errors import PcmSelectError, on_successes

__all__ = [
    "WEIGHT_FLOOR",
    "AdaptiveWeights",
    "reciprocal_power_weights_stack",
    "adaptive_weights",
    "pilot_weights",
]

# Magnitudes below this are raised to it before their reciprocal powers are taken.
WEIGHT_FLOOR = 1e-8


@dataclass(frozen=True)
class AdaptiveWeights:
    """Standardized reciprocal-magnitude weights.

    ``sbar`` and ``zbar`` each sum to one (when nonempty); ``med`` is a
    (q_zbar, q_m) matrix summing to one overall.  ``floored`` reports whether
    any pilot magnitude hit the reciprocal floor.
    """

    sbar: np.ndarray
    zbar: np.ndarray
    med: np.ndarray
    floored: bool = False


def reciprocal_power_weights_stack(stack, eta: float = 1.0, normalize: bool = True) -> tuple:
    """``|v|**-eta`` weights of each array of a (D, ...) stack, over all of its entries,
    magnitudes floored at ``WEIGHT_FLOOR``, each array's summing to one, in one pass.

    Returns the stack of weights, and a (D,) bool array of whether each array
    had a magnitude floored.  The floor, the power and the sum go row by row,
    so each array's weights do not depend on the others.  ``normalize=False``
    skips the sum-one standardization (the classical adaptive-weight form).
    """
    mags = np.abs(np.asarray(stack, dtype=float))
    flat = mags.reshape(len(mags), math.prod(mags.shape[1:]))
    raw = np.power(np.maximum(flat, WEIGHT_FLOOR), -eta)
    if normalize:
        raw = raw / raw.sum(axis=1, keepdims=True)
    return raw.reshape(mags.shape), (flat < WEIGHT_FLOOR).any(axis=1)


def _adaptive_stack(m_sbar, y_zbar, m_zbar) -> list:
    """The :class:`AdaptiveWeights` of D datasets from the (D, ...) stacks of their pilot
    blocks: mediator-model treatment rows of the candidate mediators, outcome-model
    candidate covariates and mediator-model candidate-covariate rows.  Each views its
    rows of the three stacks of weights."""
    (sbar, f1), (zbar, f2), (med, f3) = map(reciprocal_power_weights_stack,
                                            (m_sbar, y_zbar, m_zbar))
    return [AdaptiveWeights(*w, floored=f)
            for *w, f in zip(sbar, zbar, med, (f1 | f2 | f3).tolist())]


def adaptive_weights(y, m) -> AdaptiveWeights:
    """Standardized weights from the pilot coefficient magnitudes of the outcome-model
    pilot ``y`` (:class:`~pcmselect.pcm.YModelCoefs`) and the mediator-model pilot
    ``m`` (:class:`~pcmselect.pcm.MediatorCoefs`).

    Candidate-mediator weights use the treatment coefficients of the
    mediator-model pilot (a mediator whose treatment pilot vanishes carries
    no treatment effect, so its outcome coefficient should be free to drop);
    candidate-covariate weights use the outcome-model pilot; the mediator
    weight matrix uses the mediator-model candidate-covariate pilots.  The
    one-dataset case of :func:`pilot_weights`.
    """
    q_s = m.x_row.shape[0] - y.coef_sbar.shape[0]
    return _adaptive_stack(m.x_row[None, q_s:], y.coef_zbar[None], m.zbar_rows[None])[0]


def pilot_weights(y_pilots, m_pilots, roles: RolePartition) -> list:
    """Step 2 on each dataset: the :func:`adaptive_weights` of its outcome and mediator
    pilots, entries of :func:`~pcmselect.pcm.ridge_pilot_y_grid` and
    :func:`~pcmselect.pcm.ridge_pilot_m_grid`, or the failure of the first pilot
    that failed, in its place.

    One pass: the pilots of the datasets without a failure are stacked, and
    their sbar, zbar and med weights are (D, ...) arrays, floored, raised and
    summed row by row; each dataset's weights view its rows, and ``floored``
    is its own."""
    def stacked(ok):
        ys, ms = np.array([y_pilots[i] for i in ok]), np.array([m_pilots[i] for i in ok])
        return _adaptive_stack(ms[:, 0, len(roles.s):],
                               ys[:, len(roles.y_regressors) - len(roles.zbar):],
                               ms[:, 1 + len(roles.z):])

    return on_successes([y if isinstance(y, PcmSelectError) else m
                         for y, m in zip(y_pilots, m_pilots)], stacked)


def _y_l1_weights(roles: RolePartition, sbar, zbar, lams, pairs) -> np.ndarray:
    """The outcome model's L1 weights on F datasets at each (zeta1, xi1) of ``pairs`` and
    each of ``lams``: an (F, pairs, lams, regressors) stack, one broadcast of the
    (F, q) stacks of their ``sbar`` and ``zbar`` weights."""
    # each pair's treatment, candidate-mediator and candidate-covariate share times each lam
    scales = (np.array([(z, x, zbar_share(z, x)) for z, x in pairs])[:, None]
              * np.asarray(lams, dtype=float)[:, None])
    q = 1 + len(roles.s) + len(roles.z)
    k = q + sbar.shape[1]
    out = np.zeros((len(sbar), *scales.shape[:2], k + zbar.shape[1]))
    out[..., 0] = scales[..., 0]
    out[..., q:k] = scales[..., 1:2] * sbar[:, None, None]
    out[..., k:] = scales[..., 2:] * zbar[:, None, None]
    return out


def _m_l1_weights(q_z: int, meds, rhos) -> np.ndarray:
    """The L1 weights of the mediator columns of each (candidate covariates, mediators)
    weight matrix of ``meds``, in order, at each of ``rhos``: one (mediators, rhos,
    regressors) broadcast over the designs [x, z, zbar] with ``q_z`` fixed covariates."""
    med = np.concatenate(meds, axis=1)
    return np.multiply.outer(rhos, np.vstack([np.zeros((1 + q_z, med.shape[1])), med])
                             ).transpose(2, 0, 1)
