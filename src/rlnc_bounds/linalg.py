"""Batched rank computation for matrices over F_q.

One batched, swap-free elimination serves every caller.  At column c each
matrix takes its first row with a nonzero entry as the pivot row, and
``(a_ic / p_c) * pivot_row`` is subtracted from every row, the pivot row
included.  That zeroes the pivot row, so no row is swapped or selected:
every matrix in the stack gets the same update of its columns c+1 onward,
and its rank is the number of columns that had a pivot.  A matrix leaves
the working stack once its rank is settled.

The working stack is held as (cols, rows, batch): the columns still to
eliminate are one contiguous block, and every elementwise loop runs along
the batch rather than along the 10-35 rows of a matrix.

The update's field arithmetic: for prime q, ``a + f*(q - p)`` reduced mod q
in an unsigned dtype that holds q^2 - 1.  For extensions of F_2 the entry
dtype selects the product.  With byte entries (q <= 256) it is taken by bit
planes: for each basis bit b, the rows whose entry a has bit b set take
``x^b * (pivot_row / p)``, a product of logs on the small pivot slab, by a
uint8 AND with an all-ones mask and an XOR, so the whole stack sees no
per-entry table lookup.  With uint16 entries the product is one lookup of
summed logs in a zero-padded exp table, then XOR; there bit planes measured
1.7-2.8x slower (q = 512 to 65536).  Other extensions use the field's array
operations.  Over F_2 with at most 64 columns, rows are packed into uint64
bit masks and take the same update as one XOR.  Inputs are never mutated.
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
    dt = entry_dtype(q)
    if field.m == 1:
        # a + f*(q - p) <= q*q - 1 before the reduction
        dt = next(t for t in (np.uint8, np.uint16, np.uint32) if q * q - 1 <= np.iinfo(t).max)
        inv = _inv_table(field).astype(dt)
    elif field.p == 2:
        log, exp = _log_exp_tables(field)
        # log(x^b): x^b is the element whose integer form has only bit b set
        xlog = log.take(1 << np.arange(field.m))
    else:
        inv = _inv_table(field)
    # stack (cols, rows, batch): the columns still to eliminate are one
    # contiguous block, and every elementwise loop runs along the batch
    work = np.ascontiguousarray(mats.transpose(2, 1, 0), dtype=dt)
    # scratch for the row update, allocated once: fresh pages every column
    # would cost as much as the arithmetic
    tmp = np.empty(work[1:].size, dtype=dt)
    gather = field.m > 1 and field.p == 2 and dt != np.uint8
    if gather:
        idx = np.empty(tmp.size, dtype=np.intp)
    state = _Survivors(nb, nrows, ncols, target)
    for col in range(ncols):
        a, rest = work[0], work[1:]
        nz = a != 0
        # flat index of each matrix's pivot entry in the (rows, batch) slab;
        # taking along the flattened slabs keeps the pivot rows batch-innermost
        at = nz.argmax(axis=0) * a.shape[1] + np.arange(a.shape[1])
        # (a_i / p) * pivot row comes off every row, the pivot row included,
        # which zeroes it; matrices without a pivot get the zero update
        pivot = a.take(at)
        pivrow = rest.reshape(len(rest), a.size).take(at, axis=1)
        t = tmp[:rest.size].reshape(rest.shape)
        if field.m == 1:
            # reductions mod q go through a floor division by the scalar q,
            # which numpy vectorises, unlike the remainder
            f = a * inv.take(pivot)
            f -= f // q * q
            np.multiply(f, q - pivrow[:, None], out=t)
            rest += t
            np.floor_divide(rest, q, out=t)
            t *= q
            rest -= t
        elif field.p == 2:
            # log of the pivot row divided by the pivot
            lp = log.take(pivrow)
            lp += (q - 1 - log.take(pivot)) % (q - 1)
            if gather:
                i = idx[:rest.size].reshape(rest.shape)
                np.add(log.take(a), lp[:, None], out=i)
                exp.take(i, out=t, mode="clip")
                rest ^= t
            else:
                # bit planes: a = sum of a_b x^b, so a * (pivot row / p) is
                # the XOR over the set bits b of x^b * (pivot row / p), a
                # product taken on the small pivot slab; uint8 minus wraps
                # 1 to 0xFF
                for b in range(field.m):
                    np.bitwise_and(-((a >> b) & 1), exp.take(lp + xlog[b])[:, None], out=t)
                    rest ^= t
        else:
            f = array_mul(field, a, inv.take(pivot))
            rest[...] = array_sub(field, rest, array_mul(field, f, pivrow[:, None]))
        keep = state.advance(col, nz.take(at))
        if keep is None:
            work = rest
        elif keep.size:
            # take, not rest[:, :, keep], whose result has the batch outermost
            work = rest.take(keep, axis=2)
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
        k = np.arange(len(bits))
        piv = nz.argmax(axis=1)
        pivrow = bits[k, piv]
        t = tmp[:bits.size].reshape(bits.shape)
        np.multiply(nz, pivrow[:, None], out=t)
        bits ^= t
        keep = state.advance(col, nz[k, piv])
        if keep is not None:
            if not keep.size:
                break
            bits = bits[keep]
    return state.ranks
