import numpy as np
import pytest

from rlnc_bounds.fields import make_field
from rlnc_bounds.linalg import rank_batch
from support import nullspace_rank, scalar_ops, scalar_rank


# ---------------------------------------------------------------------------
# basic contracts


def test_identity_has_full_rank():
    ents = np.eye(3, dtype=int)
    assert rank_batch(make_field(2), ents[None])[0] == 3


def test_identical_rows_collapse():
    assert rank_batch(make_field(2), np.array([[[1, 1], [1, 1]]]))[0] == 1


def test_fewer_rows_than_cols_never_decodes():
    f, ents = make_field(4), np.array([[1, 2, 3]])
    assert rank_batch(f, ents[None])[0] == 1


def test_zero_column_never_decodes():
    f, ents = make_field(3), np.array([[1, 0], [2, 0], [1, 0]])
    assert rank_batch(f, ents[None])[0] == 1


def test_empty_matrix():
    assert rank_batch(make_field(2), np.zeros((1, 0, 3), dtype=int)).tolist() == [0]


def test_input_is_not_mutated():
    f = make_field(2)
    ents = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    before = ents.copy()
    rank_batch(f, ents[None])
    assert (ents == before).all()


# ---------------------------------------------------------------------------
# oracle agreement and metamorphic properties


def test_rank_matches_nullspace_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(200):
        q = int(rng.choice([2, 3, 4]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        f = make_field(q)
        ents = rng.integers(0, q, size=(rows, cols))
        want = nullspace_rank(f, [list(map(int, r)) for r in ents], cols)
        assert rank_batch(f, ents[None])[0] == scalar_rank(f, ents, cols) == want


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(78)
    for q in (2, 3, 5, 8):
        f = make_field(q)
        for _ in range(40):
            ents = rng.integers(0, q, size=(rng.integers(1, 6), rng.integers(1, 6)))
            assert rank_batch(f, ents[None])[0] == rank_batch(f, ents.T[None])[0]


def test_rank_invariant_under_row_operations():
    rng = np.random.default_rng(79)
    for q in (2, 3, 4, 9):
        f = make_field(q)
        ops = scalar_ops(f)
        for _ in range(30):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            ents = rng.integers(0, q, size=(rows, cols))
            base = rank_batch(f, ents[None])[0]

            i, j = rng.choice(rows, size=2, replace=False)
            swapped = ents.copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert rank_batch(f, swapped[None])[0] == base

            c = int(rng.integers(1, q))
            scaled = ents.copy()
            scaled[i] = [ops.mul(c, int(x)) for x in scaled[i]]
            assert rank_batch(f, scaled[None])[0] == base

            added = ents.copy()
            added[i] = [ops.add(int(x), ops.mul(c, int(y)))
                        for x, y in zip(added[i], ents[j])]
            assert rank_batch(f, added[None])[0] == base


# ---------------------------------------------------------------------------
# batched kernel


def _sparse_stack(rng, q, shape):
    """Entries nonzero with probability 0.4 and rows erased with
    probability 0.15, as the simulator draws them."""
    mats = rng.integers(1, q, size=shape) * (rng.random(shape) < 0.4)
    mats *= rng.random((*shape[:2], 1)) < 0.85
    return mats


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 32, 49, 64, 121, 128, 243, 256, 257,
                               2401, 3125, 4096, 59049, 63001, 65521])
def test_rank_batch_matches_scalar(q):
    # dense stacks are nearly all of full rank, which a wrong product keeps;
    # the sparse ones have dependent rows that it breaks
    rng = np.random.default_rng(q)
    f = make_field(q)
    for mats in (rng.integers(0, q, size=(150, 5, 4)), _sparse_stack(rng, q, (150, 5, 4))):
        got = rank_batch(f, mats)
        want = [scalar_rank(f, m, 4) for m in mats]
        assert got.tolist() == want


@pytest.mark.parametrize("q", [2, 3, 4, 9, 27, 64, 256, 257, 3125, 65536])
def test_rank_batch_target_decision_agrees(q):
    # the simulator's decision, rank below the column count, on stacks with
    # rows to spare, as a destination that hears more relays than sources
    rng = np.random.default_rng(q + 1)
    f = make_field(q)
    for mats in (rng.integers(0, q, size=(200, 6, 4)), _sparse_stack(rng, q, (200, 6, 4))):
        want = [scalar_rank(f, m, 4) for m in mats]
        assert rank_batch(f, mats).tolist() == want


@pytest.mark.parametrize("q", [2, 3, 4, 9, 64, 243, 256, 3125, 65536])
def test_rank_batch_figure_sized_stacks(q):
    # sparse stacks, so that many matrices miss a pivot part-way through
    rng = np.random.default_rng(q + 2)
    f = make_field(q)
    mats = _sparse_stack(rng, q, (300, 25, 20))
    want = np.array([scalar_rank(f, m, 20) for m in mats])
    assert 0 < (want < 20).sum() < len(mats)
    assert (rank_batch(f, mats) == want).all()


def test_rank_batch_binary_64_columns_bit_sliced():
    rng = np.random.default_rng(64)
    f = make_field(2)
    mats = rng.integers(0, 2, size=(40, 66, 64))
    mats[20:, :, 63] = mats[20:, :, 0]  # a repeated last column: deficient
    got = rank_batch(f, mats)
    want = [scalar_rank(f, m, 64) for m in mats]
    assert got.tolist() == want
    assert 64 in want and max(want[20:]) < 64


def test_rank_batch_binary_66_columns_bit_sliced():
    rng = np.random.default_rng(3)
    f = make_field(2)
    mats = rng.integers(0, 2, size=(12, 70, 66))
    got = rank_batch(f, mats)
    want = [scalar_rank(f, m, 66) for m in mats]
    assert got.tolist() == want


# 64 matrices to a word: these lengths leave 63, 1, 0, 63, 1 and 63 padding lanes
@pytest.mark.parametrize("nb", [1, 63, 64, 65, 127, 4097])
@pytest.mark.parametrize("q", [2, 4])
def test_bit_sliced_batches_of_any_length(q, nb):
    rng = np.random.default_rng(nb * q)
    f = make_field(q)
    mats = _sparse_stack(rng, q, (nb, 6, 5))
    want = [scalar_rank(f, m, 5) for m in mats]
    assert rank_batch(f, mats).tolist() == want


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("shape", [(8, 130, 100), (70, 5, 9), (70, 9, 9)])
def test_bit_sliced_ranks_of_wide_short_and_square_stacks(q, shape):
    rng = np.random.default_rng(shape[1] + q)
    f = make_field(q)
    mats = rng.integers(0, q, size=shape)
    mats *= rng.random((*shape[:2], 1)) < 0.7  # erased rows
    mats[::3, :, -1] = mats[::3, :, 0]  # a repeated column
    cols = shape[2]
    want = [scalar_rank(f, m, cols) for m in mats]
    assert len(set(want)) > 1
    assert rank_batch(f, mats).tolist() == want


def test_rank_batch_empty_batch():
    f = make_field(2)
    assert rank_batch(f, np.zeros((0, 3, 3), dtype=int)).shape == (0,)
