"""The numpy sparse products of the unigram model against scipy's CSR
kernels, byte for byte.

scipy is an oracle here and nowhere in the program: the models' products are
np.bincount sums, which have to add the same float64 values in the same
order, from 0.0, as scipy's loops do, so that a model trained with either
has the same bytes."""
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from identminer.models.unigram import matmul, matmul_t, stack_rows, take_rows

FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


@functools.cache
def float_arrays(shape):
    """float64 arrays of shape with FLOATS elements, built once per shape
    rather than once per draw."""
    return hnp.arrays(np.float64, shape, elements=FLOATS)


@st.composite
def count_matrices(draw):
    """(count rows, width): 1 to 9 rows over 1 to 7 columns, rows empty or
    holding sorted distinct columns with any finite float64 values."""
    width = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        cols = sorted(draw(st.sets(st.integers(0, width - 1))))
        values = draw(float_arrays(len(cols)))
        rows.append((np.array(cols, dtype=np.int64), values))
    return rows, width


def scipy_rows(rows, width) -> sparse.csr_matrix:
    """The rows as scipy stacks them: one 1 x width CSR matrix each."""
    return sparse.vstack(
        [sparse.csr_matrix((values, (np.zeros(len(cols), dtype=np.int64),
                                     cols)), shape=(1, width))
         for cols, values in rows], format="csr")


def same_bytes(ours: np.ndarray, theirs) -> bool:
    theirs = np.asarray(theirs)
    return (ours.shape == theirs.shape and ours.dtype == theirs.dtype
            and np.ascontiguousarray(ours).tobytes()
            == np.ascontiguousarray(theirs).tobytes())


def same_csr(ours, theirs: sparse.csr_matrix) -> bool:
    indptr, indices, data = ours
    return (indptr.tolist() == theirs.indptr.tolist()
            and indices.tolist() == theirs.indices.tolist()
            and same_bytes(data, theirs.data))


@settings(max_examples=200)
@given(count_matrices(), st.data())
def test_count_products_equal_scipy_csr_bitwise(matrix, data):
    rows, width = matrix
    n = len(rows)
    X, theirs = stack_rows(rows), scipy_rows(rows, width)
    assert same_csr(X, theirs)

    n_classes = data.draw(st.integers(1, 4))
    W = data.draw(float_arrays((n_classes, width)))
    delta = data.draw(float_arrays((n, n_classes)))
    assert same_bytes(matmul(X, W.T), theirs @ W.T)
    assert same_bytes(matmul_t(X, delta, width), theirs.T @ delta)

    batch = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=12)), dtype=np.int64)
    taken = take_rows(X, batch)
    assert same_csr(taken, theirs[batch])
    assert same_bytes(matmul(taken, W.T), theirs[batch] @ W.T)
    assert same_bytes(matmul_t(taken, delta[batch], width),
                      theirs[batch].T @ delta[batch])


def test_count_products_of_empty_rows_are_zero():
    rows = [(np.zeros(0, dtype=np.int64), np.zeros(0))] * 3
    X = stack_rows(rows)
    W = np.arange(8.0).reshape(4, 2)
    assert same_bytes(matmul(X, W.T), np.zeros((3, 4)))
    assert same_bytes(matmul_t(X, np.ones((3, 4)), 2), np.zeros((2, 4)))
    assert same_csr(take_rows(X, np.array([2, 0])),
                    scipy_rows(rows, 2)[[2, 0]])
