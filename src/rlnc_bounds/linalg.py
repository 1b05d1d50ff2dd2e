"""Batched rank computation for matrices over F_q.

One batched, swap-free elimination serves every caller.  At column c each
matrix takes its first row with a nonzero entry as the pivot row, and
``(a_ic / p_c) * pivot_row`` is subtracted from every row, the pivot row
included.  That zeroes the pivot row, so no row is swapped or selected:
every matrix in the stack gets the same update of its columns c+1 onward,
and its rank is the number of columns that had a pivot.  Every path runs
every column, so every rank is exact.

The stack is held as (cols, rows, batch): the columns still to eliminate
are one contiguous block, and every elementwise loop runs along the batch
rather than along the 10-35 rows of a matrix.

The update's field arithmetic: for prime q, ``a + f*(q - p)`` reduced mod q
in an unsigned dtype that holds q^2 - 1.  Extensions of F_2 choose the
product by entry dtype.  With bytes (8 <= q <= 256) it is taken in bit planes:
for each basis bit b, the rows whose entry a has bit b set take
``x^b * (pivot_row / p)``, computed on the small pivot slab, by a uint8 AND
with an all-ones mask and an XOR, so the stack sees no per-entry lookup.
With uint16 entries it is one lookup of summed logs in a zero-padded exp
table, then XOR; bit planes measured 1.7-2.8x slower there.  Extensions of
odd characteristic add by Zech logarithms: an entry b becomes
``exp[lc + zech[logp[b] - lc]]``, lc the log of ``a * (-pivot_row / p)``,
with zero operands as regions of the tables (``fields._zech_tables``).

F_2 and GF(4) are bit-sliced instead: bit k of uint64 word w holds matrix
64w + k, so one word operation updates 64 matrices, and a GF(4) entry is
two such bits.  At column c the pivot selector of row i is
``nonzero_i & ~seen_(i-1)``, seen being the running OR down the rows; the
pivot row is the OR over rows of ``selector & row``, and the update is ANDs
and XORs of bit planes.  Widths are not limited.  Inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec, _inv_table, _zech_tables, entry_dtype


def rank_batch(field: FieldSpec, mats) -> np.ndarray:
    """Exact ranks of a (batch, rows, cols) stack of matrices over ``field``.

    One vectorised elimination pass across the whole batch; used by the
    Monte Carlo estimator where per-matrix Python loops would dominate.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError(f"expected a (batch, rows, cols) stack, got shape {mats.shape}")
    nb, nrows, ncols = mats.shape
    if nb == 0 or nrows == 0 or ncols == 0:
        return np.zeros(nb, dtype=np.int64)
    if field.q in (2, 4):
        return _rank_batch_sliced(mats, field.m)
    q = field.q
    dt = entry_dtype(q)
    if field.m == 1:
        # a + f*(q - p) <= q*q - 1 before the reduction
        dt = next(t for t in (np.uint8, np.uint16, np.uint32) if q * q - 1 <= np.iinfo(t).max)
        inv = _inv_table(field).astype(dt)
    elif field.p == 2:
        log, exp = field.log_table, field.exp_table
        # log(x^b): x^b is the element whose integer form has only bit b set
        xlog = log.take(1 << np.arange(field.m))
    else:
        log, logp, zech, exp = _zech_tables(field)
        scratch = np.empty((2, (ncols - 1) * nrows * nb), dtype=np.int32)
    # stack (cols, rows, batch): the columns still to eliminate are one
    # contiguous block, and every elementwise loop runs along the batch
    work = np.ascontiguousarray(mats.transpose(2, 1, 0), dtype=dt)
    # scratch for the row update, allocated once: fresh pages every column
    # would cost as much as the arithmetic
    tmp = np.empty(work[1:].size, dtype=dt)
    gather = field.m > 1 and field.p == 2 and dt != np.uint8
    if gather:
        idx = np.empty(tmp.size, dtype=np.intp)
    rank = np.zeros(nb, dtype=np.int64)
    for col in range(ncols):
        a, rest = work[col], work[col + 1:]
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
            # rest + a * (-pivot row / p) by Zech logarithms, -1 being g^((q-1)/2)
            lp = log.take(pivrow)
            lp += ((q - 1) // 2 - log.take(pivot)) % (q - 1)
            lc, d = scratch[:, :rest.size].reshape(2, *rest.shape)
            np.add(log.take(a), lp[:, None], out=lc)
            logp.take(rest, out=d, mode="clip")
            d -= lc
            # take reads int32 indices from an intp copy, so d can be the output
            zech.take(d, out=d, mode="clip")
            lc += d
            exp.take(lc, out=rest, mode="clip")
        rank += nz.take(at)
    return rank


def _rank_batch_sliced(mats: np.ndarray, m: int) -> np.ndarray:
    """Elimination over F_2 (m = 1) or GF(4) (m = 2), bit-sliced across
    matrices; lanes past the batch are zero matrices.  Word operations never
    mix bytes, so the byte order does not matter."""
    nb, nrows, ncols = mats.shape
    words = -(-nb // 64)
    ents = mats.astype(np.uint8, copy=False)
    bits = np.zeros((m, 64 * words, nrows, ncols), dtype=np.uint8)  # basis bit first
    for j in range(m):
        np.bitwise_and(ents >> j, 1, out=bits[j, :nb])
    # byte i of a word holds matrices 8i..8i+7: packing the strided slabs
    # before the transpose moves 8x fewer bytes than transposing entries
    packed = bits[:, 0::8].copy()
    t = np.empty_like(packed)
    for k in range(1, 8):
        np.left_shift(bits[:, k::8], k, out=t)
        packed |= t
    # (cols, basis bit, rows, words)
    work = np.ascontiguousarray(packed.transpose(3, 0, 2, 1)).view(np.uint64)
    pivoted = np.empty((ncols, words), dtype=np.uint64)
    tmp = np.empty(work[1:].size, dtype=np.uint64)
    for col in range(ncols):
        a, rest = work[col], work[col + 1:]
        first = np.bitwise_or.reduce(a, axis=0)  # the column's nonzero entries
        seen = np.bitwise_or.accumulate(first, axis=0)
        first[1:] &= ~seen[:-1]  # now set only in each lane's pivot row
        pivoted[col] = seen[-1]
        t = tmp[:rest.size].reshape(rest.shape)
        np.bitwise_and(rest, first, out=t)
        s = np.bitwise_or.reduce(t, axis=2)  # the pivot row
        if m == 2:
            # divide by the pivot (p0, p1), whose inverse under x^2 + x + 1
            # is (p0 ^ p1, p1)
            p0, p1 = np.bitwise_or.reduce(a & first, axis=1)
            s0, s1 = s[:, 0], s[:, 1]
            s = np.stack([s0 & (p0 ^ p1) ^ s1 & p1, s1 & p0 ^ s0 & p1], axis=1)
        # every row adds a * s, the XOR over basis bits j of a_j * (x^j s)
        for j in range(m):
            if j:
                s = np.stack([s[:, 1], s[:, 0] ^ s[:, 1]], axis=1)  # x (s0 + s1 x)
            np.bitwise_and(a[j], s[:, :, None], out=t)
            rest ^= t
    return np.unpackbits(pivoted.view(np.uint8), axis=1, count=nb,
                         bitorder="little").sum(axis=0, dtype=np.int64)
