"""Step 4 of pcm's pipeline: the debiasing ridges and the bias correction.

Step 4 (:mod:`pcmselect.pcm`) corrects each penalized active column of the
stage-1 outcome fit, and each mediator column's treatment coefficient, with
active-set ridge refits: every corrected block of the active design is
ridge-refitted on the other columns, and the refit coefficients and the
residual grams form one partial-regression matrix and its pseudoinverted
blocks.  A block is corrected only when its L1 weight ``lambda1 * share`` is
positive (a block of zero weight was never shrunk), and the mediator columns
only when ``rho1`` is.  They read the data through its cross products only.

:func:`corrections` runs the step on a sequence of datasets, such as the
samples of a chunk of Monte Carlo replications.  It groups them by the shape
of their active design: whether the treatment is active, and the sizes of
its fixed and active candidate blocks.  A group's frame grams are one
:func:`~pcmselect.data.gram_stack` of its datasets, and each of its refits,
residual grams, pseudoinverses and corrections is one stacked call.  Every
system is its own LAPACK call, so no result depends on the other datasets,
and a failure stays with its dataset.  A group's stacks are dropped once its
corrections are known.  :func:`debias_ridges` and :func:`pcm_correct` are the
one-dataset cases of the two halves of a group's work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import gram_stack
from .errors import PcmSelectError, unwrap
from .linalg import pseudo_inverse_batch
from .solvers import _ridge_batch, ols_batch

__all__ = ["DebiasBlocks", "CorrectedBlocks", "debias_ridges", "pcm_correct", "corrections"]

# Relative singular-value cutoff for the residual-gram pseudoinverses in the
# bias correction.  These grams are singular to machine precision whenever the
# active design nearly saturates the sample, and directions below sampling
# noise would otherwise dominate the correction.
CORRECTION_PINV_TOL = 1e-3


@dataclass(frozen=True)
class DebiasBlocks:
    """Active-set ridge refits used by the bias correction.

    The frame is the active design [x, s, active sbar, z, active zbar], with
    x left out when the treatment is inactive.  ``coef`` has one column per
    column of each corrected block, in frame order (the treatment, active
    candidate mediators and covariates whose L1 weight ``lambda1 * share`` is
    positive): its refit coefficients on the other columns of the frame, and
    -1 on its own row.  ``resid_grams`` holds the residual gram of each
    corrected block in the same order.  ``zb_on_xz_coef``: unpenalized refit
    of the active candidate covariates on [x, z], used by the
    mediator-equation correction, with its residual gram; None without active
    candidate covariates or when ``rho1`` is 0.  For a group of datasets,
    each array is a stack with one entry per dataset.
    """

    coef: np.ndarray
    resid_grams: list[np.ndarray]
    zb_on_xz_coef: np.ndarray | None
    zb_on_xz_resid_gram: np.ndarray | None


@dataclass(frozen=True)
class CorrectedBlocks:
    """Sign-corrected coefficients entering the total-effect formula."""

    beta_x: float
    coef_s: np.ndarray
    coef_sbar_active: np.ndarray
    med_x: np.ndarray  # treatment effect on [fixed, active candidate] mediators
    y_on_mediators: np.ndarray


def zbar_share(zeta1: float, xi1: float) -> float:
    """Candidate covariates' penalty share, clipped (``1 - 0.8 - 0.2`` is -5.6e-17)."""
    return max(0.0, 1.0 - zeta1 - xi1)


def _frame(roles) -> list:
    """The columns [x, s, sbar, z, zbar] of an active design's ``roles``."""
    return [roles.x, *roles.s, *roles.sbar, *roles.z, *roles.zbar]


def _shape(roles) -> tuple:
    """The sizes of the s, sbar, z and zbar blocks of ``roles``."""
    return len(roles.s), len(roles.sbar), len(roles.z), len(roles.zbar)


def _apply(blocks: DebiasBlocks, part) -> DebiasBlocks:
    """``blocks`` with ``part`` applied to each of its arrays."""
    return DebiasBlocks(part(blocks.coef), [part(gram) for gram in blocks.resid_grams],
                        *(None if block is None else part(block)
                          for block in (blocks.zb_on_xz_coef, blocks.zb_on_xz_resid_gram)))


def debias_ridges(data, roles, params, *, include_x: bool = True) -> DebiasBlocks:
    """Ridge refits of the corrected active columns plus their residual grams.

    The frame is [x, s, sbar, z, zbar] of the active design's ``roles``;
    ``include_x=False`` (treatment inactive in stage 1) leaves x out.  Each
    block that ``params`` give a positive L1 weight is refitted on the other
    columns of the frame: the treatment penalizing the candidate blocks by
    ``lambda2*xi2`` / ``lambda2*(1-xi2)``, the candidate mediators penalizing
    candidate covariates by ``rho2``, the candidate covariates penalizing
    candidate mediators by ``rho2_prime``.  A quadratic penalty ``p`` adds
    ``n*p`` to the gram diagonal, matching the pilot convention.  With all
    penalties zero the refits reduce to least squares and the residual grams
    to conditional cross-products.  The one-dataset case of a group's refits
    in :func:`corrections`; raises the first failure.
    """
    failed = {}
    blocks = _refits(gram_stack([data], [_frame(roles)]), np.array([data.n]), include_x,
                     _shape(roles), params, failed)
    if failed:
        raise failed[0]
    return _apply(blocks, lambda block: block[0])


def _corrected(p, sizes) -> tuple:
    """For params ``p`` and the ``sizes`` of a frame's treatment, candidate mediators and
    covariates: the (frame block, L1 share, ridge penalty of its refit on each frame
    block) of each corrected block, and whether the mediator columns are corrected."""
    blocks = [(0, p.zeta1, [0.0, 0.0, p.lambda2 * p.xi2, 0.0, p.lambda2 * (1 - p.xi2)]),
              (2, p.xi1, [0.0, 0.0, 0.0, 0.0, p.rho2]),
              (4, zbar_share(p.zeta1, p.xi1), [0.0, 0.0, p.rho2_prime, 0.0, 0.0])]
    return ([block for block, size in zip(blocks, sizes) if size and p.lambda1 * block[1] > 0],
            bool(sizes[2]) and p.rho1 > 0)


def _refits(ext, n, include_x: bool, shape: tuple, params, failed: dict) -> DebiasBlocks:
    """:func:`debias_ridges` on D datasets of one active-design ``shape``, from the
    (D, e, e) stack ``ext`` of their grams of [x, s, sbar, z, zbar] and their row
    counts ``n``: stacked blocks, each with zeros in place of a refit that failed.
    The first failure of each dataset goes into ``failed``, by index."""
    block_of = np.repeat(np.arange(5), (1, *shape))
    frame = np.arange(0 if include_x else 1, block_of.size)
    kept, mediators = _corrected(params, (include_x, shape[1], shape[3]))
    columns, resid_grams = [np.zeros((len(ext), frame.size, 0))], []
    for block, _, penalty in kept:
        own = block_of[frame] == block
        rows, cols = frame[~own], frame[own]
        s_aa, s_ar = _blocks(ext, rows, rows, cols)
        fits = _ridge_batch(s_aa, s_ar, n[:, None, None] * np.take(penalty, block_of[rows]))
        coef = _stacked([fit for (fit,) in fits], s_ar.shape[1:], failed)
        resid_grams.append(_resid_gram(*_blocks(ext, cols, cols), s_ar, s_aa, coef))
        column = np.zeros((len(ext), frame.size, cols.size))
        column[:, ~own] = coef
        column[:, own] = -np.eye(cols.size)
        columns.append(column)
    zb_on_xz = None, None
    if mediators:
        xz, zbar = np.flatnonzero((block_of == 0) | (block_of == 3)), np.flatnonzero(block_of == 4)
        s_aa, s_ar = _blocks(ext, xz, xz, zbar)
        coef = _stacked(ols_batch(s_aa, s_ar), s_ar.shape[1:], failed)
        zb_on_xz = coef, _resid_gram(*_blocks(ext, zbar, zbar), s_ar, s_aa, coef)
    return DebiasBlocks(np.concatenate(columns, axis=2), resid_grams, *zb_on_xz)


def _blocks(ext, rows, *cols) -> list:
    """The (rows, cols) block of each of a stack of grams for each of ``cols``, laid out
    as :func:`~pcmselect.data.gram_stack` lays out its blocks."""
    taken = ext.take(rows, axis=1)
    return [taken.take(c, axis=2) for c in cols]


def _stacked(fits: list, shape: tuple, failed: dict) -> np.ndarray:
    """The fits of a batched call as one stack, with zeros in place of each failure,
    which goes into ``failed`` unless its dataset failed before."""
    stack = np.zeros((len(fits), *shape))
    for i, fit in enumerate(fits):
        if isinstance(fit, PcmSelectError):
            failed.setdefault(i, fit)
        else:
            stack[i] = fit
    return stack


def _resid_gram(s_rr, s_ar, s_aa, coef) -> np.ndarray:
    """The residual grams ``S_rr - C.T S_ar - S_ra C + C.T S_aa C`` of a stack of refits."""
    coef_t = coef.transpose(0, 2, 1)
    fitted = coef_t @ s_ar
    return s_rr - fitted - fitted.transpose(0, 2, 1) + coef_t @ s_aa @ coef


def pcm_correct(stage1_y, stage1_m, debias: DebiasBlocks, weights, params,
                n: int) -> CorrectedBlocks:
    """Remove the first-order shrinkage bias from the stage-1 coefficients.

    Every input is on the active design: ``stage1_y`` holds the active
    candidate coefficients only, and the treatment is active when its
    coefficient is nonzero.  The corrected outcome blocks [x, s, sbar]
    subtract ``n*lambda1`` times the partial-regression matrix
    ``debias.coef`` applied to the sign-and-weight subgradient vector, with
    residual gram pseudoinverses standing in for the conditional gram
    inverses.  Each entry of the treatment-on-mediator row gets the
    analogous ``n*rho1`` correction on that mediator column's own candidate
    covariates: the rows and columns of the covariates-on-[treatment, fixed
    covariates] refit that the column's stage-1 fit (``stage1_m``) kept
    nonzero.  When the treatment is inactive its corrected coefficient is
    exactly zero and all treatment-dependent blocks drop out.  The
    one-dataset case of a group's corrections in :func:`corrections`.  Raises
    ``ValueError`` if ``debias`` holds other blocks than ``params`` correct.
    """
    failed = {}
    (corrected,) = _correct(_apply(debias, lambda block: block[None]), [stage1_y], [stage1_m],
                            [weights], params, np.array([n]), failed)
    return unwrap(failed.get(0, corrected))


def _correct(debias: DebiasBlocks, stage1_y, stage1_m, weights, params, n, failed: dict) -> list:
    """:func:`pcm_correct` on D datasets of one active-design shape, with the stacked
    ``debias`` blocks and D of each other input: D :class:`CorrectedBlocks`.  A
    pseudoinverse that fails gives zeros, and it goes into ``failed``, by index,
    unless its dataset failed before."""
    lam1, rho1 = params.lambda1, params.rho1
    active_x = stage1_y[0].beta_x != 0.0
    x = np.array([[fit.beta_x] if active_x else [] for fit in stage1_y])
    coef_s = np.array([fit.coef_s for fit in stage1_y])
    coef_sbar = np.array([fit.coef_sbar for fit in stage1_y])
    # (adaptive weights, coefficients) of each penalized block of the frame
    blocks = {0: (np.ones(x.shape), x), 2: (np.array([w.sbar for w in weights]), coef_sbar),
              4: (np.array([w.zbar for w in weights]), np.array([f.coef_zbar for f in stage1_y]))}
    kept, mediators = _corrected(params, [coef.shape[1] for _, coef in blocks.values()])
    if (len(kept), mediators) != (len(debias.resid_grams), debias.zb_on_xz_coef is not None):
        raise ValueError("debias holds the blocks of other L1 penalties than params")
    u = [np.zeros((len(x), 0))]
    for (block, share, _), gram in zip(kept, debias.resid_grams):
        w, coef = blocks[block]
        inverse = _inverse(gram, range(len(x)), failed)
        u.append(((share * inverse) @ (w * np.sign(coef))[..., None])[..., 0])
    target = np.concatenate([x, coef_s, coef_sbar], axis=1)
    # without a corrected block the blocks are stage 1's; n * lam1 may overflow
    corrected = target if not kept else target - (n * lam1)[:, None] * (
        debias.coef[:, : target.shape[1]] @ np.concatenate(u, axis=1)[..., None])[..., 0]

    med_x = np.array([fit.x_row for fit in stage1_m])
    if debias.zb_on_xz_coef is not None:
        rows = np.array([fit.zbar_rows for fit in stage1_m])
        med = np.array([w.med for w in weights])
        # each mediator column's own candidate covariates, gathered by their count
        kept = rows != 0
        sizes = kept.sum(axis=1)
        for size in sorted(set(sizes.ravel().tolist()) - {0}):
            d, j = np.nonzero(sizes == size)
            own = np.nonzero(kept[d, :, j])[1].reshape(-1, size)
            inverse = _inverse(debias.zb_on_xz_resid_gram[d[:, None, None], own[:, :, None],
                                                          own[:, None, :]], d, failed)
            at = d[:, None], own, j[:, None]
            gamma_signs = med[at] * np.sign(rows[at])
            med_x[d, j] -= n[d] * rho1 * ((debias.zb_on_xz_coef[d[:, None], 0, own][:, None]
                                          @ inverse) @ gamma_signs[..., None])[:, 0, 0]
    qx, q_s = x.shape[1], coef_s.shape[1]
    return [CorrectedBlocks(beta_x=float(row[0]) if active_x else 0.0, coef_s=row[qx : qx + q_s],
                            coef_sbar_active=row[qx + q_s :], med_x=med, y_on_mediators=row[qx:])
            for row, med in zip(corrected, med_x)]


def _inverse(grams, datasets, failed: dict) -> np.ndarray:
    """The stack of pseudoinverses of ``grams`` at ``CORRECTION_PINV_TOL``; the failure
    of each gram goes into ``failed`` under its entry of ``datasets``."""
    inverse, bad = pseudo_inverse_batch(grams, CORRECTION_PINV_TOL)
    for i, exc in bad.items():
        failed.setdefault(int(datasets[i]), exc)
    return inverse


def corrections(items, params) -> list:
    """Step 4 on each (data, roles, stage1_y, stage1_m, weights) of ``items``: its
    :class:`CorrectedBlocks` or, if it failed, its exception, in order.

    ``roles`` and ``weights`` are those of the dataset's active design, and
    ``stage1_y`` holds its active candidate coefficients only, as
    :func:`pcm_correct` takes them.  The datasets are grouped by active-design
    shape, and each group's :func:`debias_ridges` and :func:`pcm_correct` are
    stacked calls.
    """
    groups = {}
    for i, (_, roles, stage1_y, _, _) in enumerate(items):
        groups.setdefault((stage1_y.beta_x != 0.0, _shape(roles)), []).append(i)
    out = [None] * len(items)
    for (include_x, shape), members in groups.items():
        for i, result in zip(members, _group([items[i] for i in members], include_x, shape,
                                             params)):
            out[i] = result
    return out


def _group(items, include_x: bool, shape: tuple, params) -> list:
    """:func:`corrections` on datasets of one active-design shape."""
    ext = gram_stack([data for data, *_ in items], [_frame(roles) for _, roles, *_ in items])
    n = np.array([data.n for data, *_ in items])
    failed = {}
    debias = _refits(ext, n, include_x, shape, params, failed)
    corrected = _correct(debias, *[[item[k] for item in items] for k in (2, 3, 4)], params, n,
                         failed)
    return [failed.get(i, blocks) for i, blocks in enumerate(corrected)]
