"""Rank computation and decodability tests for matrices over F_q.

One batched elimination serves every caller.  The pivot is the first
nonzero entry at or below the current row; the pivot row is divided by it
(via the field's inverse table) and ``entry*pivot_row`` is subtracted from
each row below.  Over F_2 with at most 64 columns, rows are packed into
uint64 bit masks and eliminated with XOR.  Inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec, _inv_table, array_mul, array_sub, entry_dtype


@dataclass(frozen=True)
class CodingMatrix:
    """A stack of received coding vectors: one row per delivered packet."""

    field: FieldSpec
    entries: np.ndarray  # (rows, cols), values in [0, q)

    def __post_init__(self):
        ents = np.asarray(self.entries, dtype=np.int64)
        if ents.ndim != 2:
            raise ValueError(f"entries must be a rows x cols array, got shape {ents.shape}")
        if ents.shape[1] < 1:
            raise ValueError("a coding matrix needs at least one source column")
        if ents.size and (ents.min() < 0 or ents.max() >= self.field.q):
            raise ValueError(f"entries must lie in [0, {self.field.q})")
        ents.flags.writeable = False
        object.__setattr__(self, "entries", ents)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def rank(a: CodingMatrix) -> int:
    """Rank of the matrix over its field."""
    return int(rank_batch(a.field, a.entries[None])[0])


def is_decodable(a: CodingMatrix) -> bool:
    """True iff every source packet is recoverable, i.e. rank equals cols."""
    return int(rank_batch(a.field, a.entries[None], target=a.cols)[0]) == a.cols


def rank_batch(field: FieldSpec, mats, target: int | None = None) -> np.ndarray:
    """Ranks of a (batch, rows, cols) stack of matrices over ``field``.

    One vectorised elimination pass across the whole batch; used by the
    Monte Carlo estimator where per-matrix Python loops would dominate.
    With ``target`` set, a matrix that can no longer reach that rank is
    abandoned; its reported value is then only guaranteed to be < target.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError(f"expected a (batch, rows, cols) stack, got shape {mats.shape}")
    nb, nrows, ncols = mats.shape
    cursor = np.zeros(nb, dtype=np.int64)
    if nb == 0 or nrows == 0 or ncols == 0:
        return cursor
    if field.q == 2 and ncols <= 64:
        return _rank_batch_bits(mats, target)
    mats = mats.astype(entry_dtype(field.q), copy=True)
    inv = _inv_table(field)
    rowidx = np.arange(nrows)
    for col in range(ncols):
        cand = (mats[:, :, col] != 0) & (rowidx >= cursor[:, None])
        if target is not None:
            # skip matrices whose reachable rank is already below target
            reach = cursor + np.minimum(nrows - cursor, ncols - col)
            cand &= (reach >= target)[:, None]
        sel = np.flatnonzero(cand.any(axis=1))
        if sel.size == 0:
            continue
        sub = mats[sel]
        r = cursor[sel]
        prow = cand[sel].argmax(axis=1)
        k = np.arange(sel.size)
        swp = sub[k, r].copy()
        sub[k, r] = sub[k, prow]
        sub[k, prow] = swp
        pivrow = sub[k, r]
        norm = array_mul(field, pivrow, inv[pivrow[:, col]][:, None]).astype(sub.dtype)
        sub[k, r] = norm
        # masking the factors to rows below the pivot makes the update an
        # identity elsewhere, so no per-row selection is needed
        factors = np.where(rowidx > r[:, None], sub[:, :, col], 0)
        sub = array_sub(field, sub,
                        array_mul(field, factors[:, :, None], norm[:, None, :]))
        mats[sel] = sub
        cursor[sel] += 1
        if (cursor == nrows).all():
            break
    return cursor


def _rank_batch_bits(mats: np.ndarray, target: int | None) -> np.ndarray:
    """Elimination over F_2 with rows packed into uint64 bit masks."""
    nb, nrows, ncols = mats.shape
    weights = (np.uint64(1) << np.arange(ncols, dtype=np.uint64))
    bits = (mats.astype(np.uint64) * weights).sum(axis=2, dtype=np.uint64)
    cursor = np.zeros(nb, dtype=np.int64)
    rowidx = np.arange(nrows)
    for col in range(ncols):
        colbit = np.uint64(1) << np.uint64(col)
        cand = ((bits & colbit) != 0) & (rowidx >= cursor[:, None])
        if target is not None:
            reach = cursor + np.minimum(nrows - cursor, ncols - col)
            cand &= (reach >= target)[:, None]
        sel = np.flatnonzero(cand.any(axis=1))
        if sel.size == 0:
            continue
        sub = bits[sel]
        r = cursor[sel]
        prow = cand[sel].argmax(axis=1)
        k = np.arange(sel.size)
        swp = sub[k, r].copy()
        sub[k, r] = sub[k, prow]
        sub[k, prow] = swp
        pivrow = sub[k, r]
        flip = ((sub & colbit) != 0) & (rowidx > r[:, None])
        sub ^= flip * pivrow[:, None]
        bits[sel] = sub
        cursor[sel] += 1
        if (cursor == nrows).all():
            break
    return cursor
