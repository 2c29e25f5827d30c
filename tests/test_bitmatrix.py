"""Typed bit-indexed matrices: layouts, composition, serialization."""
import numpy as np
import pytest

from pnbayes.bitmatrix import (DENSIFY_BITS, MAX_DENSE_BITS, ProbVector,
                               TypedMatrix, bits_to_int, compose, constant,
                               dump_matrix, dump_vector, duplicate, identity,
                               int_to_bits, normalize, parse_vector,
                               swap_blocks, tensor, terminator)
from pnbayes.errors import (InconsistentEvidence, InvalidArity, TooLarge,
                            TypeMismatch)


def test_bits_round_trip():
    assert bits_to_int("110") == 6
    assert int_to_bits(6, 3) == "110"
    assert int_to_bits(0, 4) == "0000"
    for x in range(16):
        assert bits_to_int(int_to_bits(x, 4)) == x


def test_layouts_agree():
    diag = TypedMatrix.diagonal([0.2, 0.7])
    dense = TypedMatrix.dense(np.diag([0.2, 0.7]))
    sparse = TypedMatrix.sparse(([0, 1], [0, 1], [0.2, 0.7]), 1, 1)
    for x in range(2):
        for y in range(2):
            assert diag.entry(x, y) == dense.entry(x, y) == sparse.entry(x, y)
    assert diag.is_diagonal and sparse.is_sparse
    assert np.array_equal(diag.to_dense(), dense.to_dense())


def test_exactly_one_layout():
    with pytest.raises(InvalidArity):
        TypedMatrix(1, 1, dense=np.eye(2), diag=np.ones(2))
    with pytest.raises(InvalidArity):
        TypedMatrix(1, 1)


def test_construction_guards():
    with pytest.raises(InvalidArity):
        TypedMatrix(1, 1, dense=np.eye(4))  # shape mismatch
    with pytest.raises(InvalidArity):
        TypedMatrix.dense([[0.8, 0.0], [0.8, 0.0]])  # column sum 1.6
    with pytest.raises(InvalidArity):
        TypedMatrix.dense([[1.5, 0.0], [0.0, 0.0]])  # entry above 1
    with pytest.raises(InvalidArity):
        TypedMatrix(1, 2, diag=np.ones(2))  # diagonal must be square


def test_nan_entries_are_rejected_in_every_layout():
    for layout in (dict(dense=np.array([[np.nan], [np.nan]])),
                   dict(diag=np.array([np.nan, 0.5])),
                   dict(sparse=([0, 1], [0, 1], [np.nan, 0.5]))):
        n = 0 if "dense" in layout else 1
        with pytest.raises(InvalidArity, match="not finite"):
            TypedMatrix(n, 1, **layout)


def test_entry_is_output_given_input():
    # M(x|y) sits at row x, column y
    mat = TypedMatrix.dense([[0.1, 0.4], [0.9, 0.6]])
    assert mat.entry(0, 1) == 0.4
    assert mat.entry("1", "0") == 0.9


def test_column_sums_and_predicates():
    mat = TypedMatrix.dense([[0.1, 0.4], [0.9, 0.6]])
    assert mat.is_stochastic()
    sub = TypedMatrix.dense([[0.1, 0.4], [0.5, 0.1]])
    assert sub.is_substochastic() and not sub.is_stochastic()


def test_compose_is_chained_application():
    a = np.asarray([[0.25, 0.5], [0.75, 0.5]])
    b = np.asarray([[0.4, 0.9], [0.6, 0.1]])
    first = TypedMatrix.dense(a)
    second = TypedMatrix.dense(b)
    assert np.allclose(compose(first, second).to_dense(), b @ a)
    with pytest.raises(TypeMismatch):
        compose(first, TypedMatrix.dense(np.full((4, 4), 0.25)))


def test_compose_keeps_diagonal():
    d1 = TypedMatrix.diagonal([0.5, 0.25])
    d2 = TypedMatrix.diagonal([0.5, 1.0])
    out = compose(d1, d2)
    assert out.is_diagonal
    assert np.allclose(out.diag_vector(), [0.25, 0.25])


def test_tensor_is_kron_msb_first():
    a = TypedMatrix.dense([[0.25, 0.5], [0.75, 0.5]])
    b = TypedMatrix.dense([[0.4, 0.9], [0.6, 0.1]])
    t = tensor(a, b)
    assert (t.in_arity, t.out_arity) == (2, 2)
    assert np.allclose(t.to_dense(), np.kron(a.to_dense(), b.to_dense()))
    # first factor owns the most significant bit: ("10"|"10") = a(1|1)*b(0|0)
    assert t.entry("10", "10") == pytest.approx(0.5 * 0.4)


def test_structural_constants():
    assert np.array_equal(identity(2).to_dense(), np.eye(4))
    dup = duplicate(1)
    assert dup.entry("00", "0") == 1.0 and dup.entry("11", "1") == 1.0
    assert dup.entry("01", "0") == 0.0 and dup.entry("10", "1") == 0.0
    assert np.array_equal(terminator(2).to_dense(), np.ones((1, 4)))
    # block swap sends the input (x, y) to the output (y, x)
    sw = swap_blocks(1, 2)
    assert sw.entry("011", "101") == 1.0
    assert sw.entry("110", "011") == 1.0
    assert constant("swap", 2) == swap_blocks(2, 2)
    assert constant("id", 3) == identity(3)
    with pytest.raises(InvalidArity):
        constant("nope", 1)


def test_duplicate_then_discard_is_identity():
    out = compose(duplicate(1), tensor(identity(1), terminator(1)))
    assert out.allclose(identity(1), atol=1e-15)


def test_apply_and_type_guard():
    mat = TypedMatrix.dense([[0.25, 0.5], [0.75, 0.5]])
    p = ProbVector(1, [0.4, 0.6])
    out = mat.apply(p)
    assert np.allclose(out.data, mat.to_dense() @ p.data)
    with pytest.raises(TypeMismatch):
        mat.apply(ProbVector(2, np.full(4, 0.25)))


def test_prob_vector_basics():
    point = ProbVector.point(2, "10")
    assert point.entry(2) == 1.0 and point.mass() == 1.0
    uni = ProbVector.uniform(3)
    assert uni.entry("101") == pytest.approx(1 / 8)
    with pytest.raises(InvalidArity):
        ProbVector(1, [0.9, 0.9])  # mass above 1
    scaled = normalize(ProbVector(1, [0.1, 0.3]))
    assert np.allclose(scaled.data, [0.25, 0.75])
    with pytest.raises(InconsistentEvidence):
        normalize(ProbVector(1, [0.0, 0.0]))


def test_dump_descending_bitstring_order():
    mat = TypedMatrix.dense([[0.1, 0.4], [0.9, 0.6]])
    lines = dump_matrix(mat).splitlines()
    assert lines[0] == "1 1"
    # first row is output 1, columns listed input 1 then input 0
    assert [float(v) for v in lines[1].split()] == [0.6, 0.9]
    assert [float(v) for v in lines[2].split()] == [0.4, 0.1]


def test_parse_vector_reverses_dump_order():
    p = ProbVector(2, [0.1, 0.2, 0.3, 0.4])
    dumped = [float(v) for line in dump_vector(p).splitlines()[1:]
              for v in line.split()]
    assert dumped == [0.4, 0.3, 0.2, 0.1]
    assert parse_vector(2, dumped).allclose(p, atol=0.0)
    with pytest.raises(InvalidArity):
        parse_vector(2, [0.5, 0.5])


def test_to_dense_guard():
    idx = np.arange(1 << 14)
    big = TypedMatrix.sparse((idx, idx, np.ones(1 << 14)), 14, 14)
    with pytest.raises(TooLarge):
        big.to_dense()


def test_sparse_coordinates_are_kept_column_major():
    """Coordinates in any order, a position given more than once, become
    the entries of the CSC form: column by column, rows ascending, each
    position once, duplicates summed in the order given."""
    import scipy.sparse as sp
    rows = np.array([3, 0, 1, 3, 0, 2, 1])
    cols = np.array([1, 2, 0, 1, 0, 3, 0])
    vals = np.array([0.125, 0.25, 0.5, 0.25, 0.375, 1.0, 0.125])
    mat = TypedMatrix(2, 2, sparse=(rows, cols, vals))
    csc = sp.csc_matrix((vals, (rows, cols)), shape=(4, 4)).tocoo()
    got = mat.entries()
    for a, b in zip(got, (csc.row, csc.col, csc.data)):
        assert np.array_equal(a, b)
    dense = csc.toarray()
    assert np.array_equal(mat.to_dense(), dense)
    assert np.array_equal(mat.column_sums(), dense.sum(axis=0))
    p = ProbVector(2, [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(mat.apply(p).data, dense @ p.data, atol=1e-15)
    assert mat.entry(3, 1) == 0.375 and mat.entry(2, 1) == 0.0
    assert mat == TypedMatrix.dense(dense)


@pytest.mark.parametrize("rows, cols", [([5], [0]), ([0], [2]), ([-1], [0]),
                                        ([0], [-1])])
def test_sparse_coordinates_outside_the_type_are_rejected(rows, cols):
    with pytest.raises(InvalidArity, match="outside the type"):
        TypedMatrix(1, 1, sparse=(rows, cols, [0.5]))


def test_equality_of_large_sparse_matrices_reads_entries():
    """Equal 14 -> 14 matrices compare equal without the 2^28-entry dense
    table, across layouts too; one value apart, they differ."""
    idx = np.arange(1 << 14)
    a = TypedMatrix(14, 14, sparse=(idx, idx, np.ones(1 << 14)))
    assert a == TypedMatrix(14, 14, sparse=(idx[::-1], idx[::-1],
                                            np.ones(1 << 14)))
    assert a == identity(14) and a.allclose(identity(14), atol=0.0)
    vals = np.ones(1 << 14)
    vals[7] = 0.5
    assert a != TypedMatrix(14, 14, sparse=(idx, idx, vals))


def _random_matrix(rng, n, m, layout, nnz=48):
    """Random coordinates, some repeated, with column sums at most 1."""
    mat = TypedMatrix(n, m, sparse=(rng.integers(0, 1 << m, nnz),
                                    rng.integers(0, 1 << n, nnz),
                                    rng.random(nnz) / nnz))
    return TypedMatrix(n, m, dense=mat.to_dense()) if layout == "dense" else mat


def _as_dict(mat):
    return {(int(x), int(y)): float(v) for x, y, v in zip(*mat.entries())
            if v}


@pytest.mark.parametrize("op, a_type, b_type, layouts", [
    ("compose", (2, 3), (3, 2), ("sparse", "sparse")),
    ("compose", (2, 3), (3, 2), ("sparse", "dense")),
    ("compose", (2, 3), (3, 2), ("dense", "sparse")),
    ("compose", (8, 5), (5, 8), ("sparse", "sparse")),   # 16 bits: dense
    ("compose", (9, 4), (4, 8), ("sparse", "dense")),    # 17 bits: sparse
    ("compose", (9, 4), (4, 8), ("dense", "sparse")),
    ("compose", (14, 6), (6, 13), ("sparse", "sparse")),  # over 26 bits
    ("compose", (14, 1), (1, 13), ("dense", "dense")),
    ("tensor", (1, 2), (2, 1), ("sparse", "sparse")),
    ("tensor", (1, 2), (2, 1), ("dense", "sparse")),
    ("tensor", (4, 4), (4, 4), ("sparse", "dense")),     # 16 bits: dense
    ("tensor", (4, 5), (4, 4), ("sparse", "dense")),     # 17 bits: sparse
    ("tensor", (7, 7), (7, 7), ("sparse", "sparse")),    # over 26 bits
])
def test_sparse_operations_match_a_reference(rng, op, a_type, b_type,
                                             layouts):
    """compose and tensor over the entry lists give the entries a plain
    loop over both operands' entries gives; the result is dense exactly up
    to DENSIFY_BITS, and entry, == and allclose read it in either layout."""
    a = _random_matrix(rng, *a_type, layouts[0])
    b = _random_matrix(rng, *b_type, layouts[1])
    want = {}
    for (xa, ya), va in _as_dict(a).items():
        for (xb, yb), vb in _as_dict(b).items():
            if op == "tensor":
                key = (xa << b.out_arity | xb, ya << b.in_arity | yb)
            elif xa == yb:
                key = (xb, ya)
            else:
                continue
            want[key] = want.get(key, 0.0) + va * vb
    got = compose(a, b) if op == "compose" else tensor(a, b)
    n, m = got.in_arity, got.out_arity
    assert got.is_sparse == (n + m > DENSIFY_BITS)
    found = _as_dict(got)
    assert found.keys() == want.keys()
    assert max(abs(found[k] - v) for k, v in want.items()) <= 1e-15
    x, y = next(iter(want))
    assert got.entry(x, y) == found[x, y]
    gap = next(((x, y) for y in range(1 << n) for x in range(1 << m)
                if (x, y) not in want), None)
    assert gap is None or got.entry(*gap) == 0.0
    rows, cols = (np.array(k) for k in zip(*want))
    reference = TypedMatrix(n, m, sparse=(rows, cols, list(want.values())))
    assert got.allclose(reference, atol=1e-15)
    same = TypedMatrix(n, m, sparse=got.entries())
    if n + m <= MAX_DENSE_BITS:
        same = TypedMatrix(n, m, dense=got.to_dense())
    assert got == same and same == got
    vals = np.array(same.entries()[2])
    vals[0] += 1e-6
    moved = TypedMatrix(n, m, sparse=(*same.entries()[:2], vals))
    assert got != moved and not got.allclose(moved)
    assert got.allclose(moved, atol=2e-6)
