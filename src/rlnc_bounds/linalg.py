"""Batched rank computation for matrices over F_q.

One batched, swap-free elimination serves every caller.  At column c each
matrix takes its first row with a nonzero entry as the pivot row, and
``(a_ic / p_c) * pivot_row`` is subtracted from every row, the pivot row
included.  That zeroes the pivot row, so no row is swapped or selected:
every matrix in the stack gets the same update of its columns c+1 onward,
and its rank is the number of columns that had a pivot.  A matrix leaves
the working stack once its rank is settled.

The update's field arithmetic: for prime q, ``a + f*(q - p)`` reduced mod q
in an unsigned dtype that holds q^2 - 1; for extensions of F_2, one lookup
of summed logs in a zero-padded exp table, then XOR; for other extensions,
the field's array operations.  Over F_2 with at most 64 columns, rows are
packed into uint64 bit masks and take the same update as one XOR.  Inputs
are never mutated.
"""

from __future__ import annotations

import numpy as np

from .fields import (FieldSpec, _inv_table, _log_exp_tables, array_mul, array_sub,
                     entry_dtype)


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
    if nb == 0 or nrows == 0 or ncols == 0:
        return np.zeros(nb, dtype=np.int64)
    if field.q == 2 and ncols <= 64:
        return _rank_batch_bits(mats, target)
    q = field.q
    if field.m == 1:
        # a + f*(q - p) <= q*q - 1 before the reduction
        dt = next(t for t in (np.uint8, np.uint16, np.uint32) if q * q - 1 <= np.iinfo(t).max)
        inv = _inv_table(field).astype(dt)
    elif field.p == 2:
        dt = entry_dtype(q)
        log, exp = _log_exp_tables(field)
    else:
        dt = entry_dtype(q)
        inv = _inv_table(field)
    # column-major stack (cols, batch, rows): the columns still to eliminate
    # are one contiguous block
    work = np.ascontiguousarray(mats.transpose(2, 0, 1), dtype=dt)
    # scratch for the row update, allocated once: fresh pages every column
    # would cost as much as the arithmetic
    tmp = np.empty(work[1:].size, dtype=dt)
    if field.m > 1 and field.p == 2:
        idx = np.empty(tmp.size, dtype=np.intp)
    state = _Survivors(nb, nrows, ncols, target)
    for col in range(ncols):
        a, rest = work[0], work[1:]
        nz = a != 0
        piv = nz.argmax(axis=1)
        k = np.arange(len(piv))
        # (a_i / p) * pivot row comes off every row, the pivot row included,
        # which zeroes it; matrices without a pivot get the zero update
        pivrow = rest[:, k, piv][:, :, None]
        pivot = a[k, piv][:, None]
        t = tmp[:rest.size].reshape(rest.shape)
        if field.m == 1:
            f = a * inv[pivot]
            f %= q
            np.multiply(f, q - pivrow, out=t)
            rest += t
            # a floor division by a scalar is vectorised, unlike the remainder
            np.floor_divide(rest, q, out=t)
            t *= q
            rest -= t
        elif field.p == 2:
            lf = log[a] + (q - 1 - log[pivot]) % (q - 1)
            i = idx[:rest.size].reshape(rest.shape)
            np.add(lf, log[pivrow], out=i)
            exp.take(i, out=t, mode="clip")
            rest ^= t
        else:
            f = array_mul(field, a, inv[pivot])
            rest[...] = array_sub(field, rest, array_mul(field, f, pivrow))
        keep = state.advance(col, nz.any(axis=1))
        if keep is None:
            work = rest
        elif keep.size:
            work = rest[:, keep]
        else:
            break
    return state.ranks


class _Survivors:
    """Ranks of the working stack, and which matrices are still in it.

    A matrix leaves the stack when its rank is settled: it has no nonzero
    row left, or (with a target) it can no longer reach the target.
    """

    def __init__(self, nb: int, nrows: int, ncols: int, target: int | None):
        self.ranks = np.zeros(nb, dtype=np.int64)
        self.ids = np.arange(nb)
        self.rank = np.zeros(nb, dtype=np.int64)
        self.nrows, self.ncols, self.target = nrows, ncols, target

    def advance(self, col: int, pivoted: np.ndarray) -> np.ndarray | None:
        """Count column ``col``'s pivots; return the indices that stay, or
        None when all do."""
        self.rank += pivoted
        left = np.minimum(self.nrows - self.rank, self.ncols - 1 - col)
        done = left == 0
        if self.target is not None:
            done |= self.rank + left < self.target
        if not done.any():
            return None
        self.ranks[self.ids[done]] = self.rank[done]
        keep = np.flatnonzero(~done)
        self.ids, self.rank = self.ids[keep], self.rank[keep]
        return keep


def _rank_batch_bits(mats: np.ndarray, target: int | None) -> np.ndarray:
    """Elimination over F_2 with rows packed into uint64 bit masks."""
    nb, nrows, ncols = mats.shape
    packed = np.packbits(mats != 0, axis=2, bitorder="little")
    buf = np.zeros((nb, nrows, 8), dtype=np.uint8)
    buf[:, :, :packed.shape[2]] = packed
    bits = buf.view("<u8")[:, :, 0]
    tmp = np.empty(bits.size, dtype=np.uint64)
    state = _Survivors(nb, nrows, ncols, target)
    for col in range(ncols):
        nz = (bits & np.uint64(1 << col)) != 0
        pivrow = bits[np.arange(len(bits)), nz.argmax(axis=1)]
        t = tmp[:bits.size].reshape(bits.shape)
        np.multiply(nz, pivrow[:, None], out=t)
        bits ^= t
        keep = state.advance(col, nz.any(axis=1))
        if keep is not None:
            if not keep.size:
                break
            bits = bits[keep]
    return state.ranks
