"""Typed sub-stochastic matrices over bit vectors.

A matrix of type ``n -> m`` sends distributions on ``{0,1}^n`` to
(sub-)distributions on ``{0,1}^m`` and is stored as a ``2^m x 2^n`` array:
``M[x, y]`` is the weight of output bitstring ``x`` given input ``y``, where
bitstrings are read as integers with the *first* bit most significant.
Composition is diagrammatic (``compose(P, Q)`` applies ``P`` first), and the
tensor puts its first argument on the most significant bits, so it coincides
with the Kronecker product.

Three storage layouts are used behind one interface: dense arrays, bare
diagonals for matrices known to be diagonal, and sparse entries for
large-but-sparse maps such as marking updates on many places.  Sparse
entries are kept as ``(rows, cols, values)`` column by column, rows
ascending and each position once: the order of the CSC form, which is the
order the elimination engine reads them in (``TypedMatrix.entries``).
It is the only sparse form, and :func:`from_entries` alone decides
whether a matrix built from coordinates is stored dense or as entries.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InconsistentEvidence, InvalidArity, TooLarge, TypeMismatch

# Tolerances: stochasticity predicates use STOCH_EPS, and construction-time
# sanity checks are looser to absorb drift over long composites.
STOCH_EPS = 1e-9
CONSTRUCT_EPS = 1e-6

# Refuse to materialize dense tables above 2**MAX_DENSE_BITS entries; up to
# 2**DENSIFY_BITS, from_entries stores dense, which is faster than sparse.
MAX_DENSE_BITS = 26
DENSIFY_BITS = 16


def bits_to_int(bits: str) -> int:
    """Parse a bitstring, first character most significant."""
    if bits == "":
        return 0
    return int(bits, 2)


def int_to_bits(x: int, width: int) -> str:
    if x < 0 or x >= (1 << width):
        raise ValueError(f"{x} does not fit in {width} bits")
    return format(x, f"0{width}b") if width else ""


def _check_arity(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidArity(f"arity must be a non-negative int, got {n!r}")
    return int(n)


class TypedMatrix:
    """A sub-stochastic matrix of type ``in_arity -> out_arity``."""

    __slots__ = ("in_arity", "out_arity", "_dense", "_diag", "_sparse")

    def __init__(self, in_arity: int, out_arity: int, *, dense=None, diag=None,
                 sparse=None, check: bool = True):
        self.in_arity = _check_arity(in_arity)
        self.out_arity = _check_arity(out_arity)
        self._dense = None
        self._diag = None
        self._sparse = None
        if sum(x is not None for x in (dense, diag, sparse)) != 1:
            raise InvalidArity("exactly one storage layout must be supplied")
        if dense is not None:
            dense = np.ascontiguousarray(dense, dtype=np.float64)
            if dense.shape != (1 << self.out_arity, 1 << self.in_arity):
                raise InvalidArity(
                    f"dense shape {dense.shape} does not match type "
                    f"{self.in_arity} -> {self.out_arity}")
            dense.flags.writeable = False
            self._dense = dense
        elif diag is not None:
            if self.in_arity != self.out_arity:
                raise InvalidArity("diagonal matrices must be square")
            diag = np.ascontiguousarray(diag, dtype=np.float64)
            if diag.shape != (1 << self.in_arity,):
                raise InvalidArity("diagonal length does not match arity")
            diag.flags.writeable = False
            self._diag = diag
        else:
            # coordinates (rows, cols, values); a coordinate outside the
            # type, negative ones included, keeps a bit after the shift
            rows, cols, vals = sparse
            if check and not len(rows) == len(cols) == len(vals):
                raise InvalidArity(
                    f"sparse coordinates of unequal length: {len(rows)} "
                    f"rows, {len(cols)} columns, {len(vals)} values")
            if check and (np.any(np.right_shift(rows, self.out_arity))
                          or np.any(np.right_shift(cols, self.in_arity))):
                raise InvalidArity("sparse coordinates outside the type")
            self._sparse = _column_major(rows, cols, vals, self.in_arity,
                                         self.out_arity)
        if check:
            self._check_substochastic()

    # -- construction -----------------------------------------------------

    @classmethod
    def dense(cls, data, in_arity: int | None = None,
              out_arity: int | None = None) -> "TypedMatrix":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        rows, cols = data.shape
        if out_arity is None:
            out_arity = rows.bit_length() - 1
        if in_arity is None:
            in_arity = cols.bit_length() - 1
        return cls(in_arity, out_arity, dense=data)

    @classmethod
    def diagonal(cls, diag) -> "TypedMatrix":
        diag = np.asarray(diag, dtype=np.float64)
        arity = diag.shape[0].bit_length() - 1
        return cls(arity, arity, diag=diag)

    @classmethod
    def sparse(cls, mat, in_arity: int, out_arity: int) -> "TypedMatrix":
        return cls(in_arity, out_arity, sparse=mat)

    def _check_substochastic(self) -> None:
        values = self._diag if self._diag is not None else (
            self._dense if self._dense is not None else self._sparse[2])
        # entrywise, so a NaN, which every comparison rejects, fails too
        if not np.all((values >= -CONSTRUCT_EPS)
                      & (values <= 1 + CONSTRUCT_EPS)):
            raise InvalidArity(
                f"entries not finite or outside [0, 1]: min "
                f"{float(np.min(values))}, max {float(np.max(values))}")
        sums = self.column_sums()
        if sums.size and float(np.max(sums)) > 1 + CONSTRUCT_EPS:
            raise InvalidArity(
                f"column sums exceed 1: max {float(np.max(sums))}")

    # -- inspection -------------------------------------------------------

    @property
    def is_diagonal(self) -> bool:
        return self._diag is not None

    @property
    def is_sparse(self) -> bool:
        return self._sparse is not None

    def entry(self, x: int | str, y: int | str = 0) -> float:
        """``M(x | y)``: weight of output ``x`` given input ``y``."""
        if isinstance(x, str):
            x = bits_to_int(x)
        if isinstance(y, str):
            y = bits_to_int(y)
        if self._diag is not None:
            return float(self._diag[x]) if x == y else 0.0
        if self._dense is not None:
            return float(self._dense[x, y])
        rows, cols, vals = self._sparse
        lo, hi = np.searchsorted(cols, (y, y + 1))
        i = lo + np.searchsorted(rows[lo:hi], x)
        return float(vals[i]) if i < hi and rows[i] == x else 0.0

    def diag_vector(self) -> np.ndarray:
        if self._diag is None:
            raise TypeMismatch("matrix is not diagonal-flagged")
        return self._diag

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries as (rows, cols, values), column by column
        with rows ascending: kept so when sparse, and read off the array
        when dense or diagonal."""
        if self._sparse is not None:
            return self._sparse
        if self._diag is not None:
            idx = np.flatnonzero(self._diag)
            return idx, idx, self._diag[idx]
        cols, rows = np.nonzero(self._dense.T)
        return rows, cols, self._dense[rows, cols]

    def to_dense(self) -> np.ndarray:
        """Materialize the full array (guarded against exponential blowup)."""
        if self.in_arity + self.out_arity > MAX_DENSE_BITS:
            raise TooLarge(
                f"dense table would need 2^{self.in_arity + self.out_arity} "
                "entries")
        if self._dense is not None:
            return self._dense
        if self._diag is not None:
            return np.diag(self._diag)
        rows, cols, vals = self._sparse
        dense = np.zeros((1 << self.out_arity, 1 << self.in_arity))
        dense[rows, cols] = vals
        return dense

    def column_sums(self) -> np.ndarray:
        if self._diag is not None:
            return self._diag
        if self._dense is not None:
            return self._dense.sum(axis=0)
        _, cols, vals = self._sparse
        return np.bincount(cols, weights=vals, minlength=1 << self.in_arity)

    def is_substochastic(self, eps: float = STOCH_EPS) -> bool:
        sums = self.column_sums()
        return bool(np.all(sums <= 1 + eps))

    def is_stochastic(self, eps: float = STOCH_EPS) -> bool:
        sums = self.column_sums()
        return bool(np.all(np.abs(sums - 1) <= eps))

    def apply(self, p: "ProbVector") -> "ProbVector":
        """Matrix-vector action ``M . p`` (unnormalized)."""
        if p.arity != self.in_arity:
            raise TypeMismatch(
                f"vector arity {p.arity} != matrix input arity {self.in_arity}")
        if self._diag is not None:
            out = self._diag * p.data
        elif self._dense is not None:
            out = self._dense @ p.data
        else:
            rows, cols, vals = self._sparse
            out = np.bincount(rows, weights=vals * p.data[cols],
                              minlength=1 << self.out_arity)
        return ProbVector(self.out_arity, out)

    def _difference(self, other: "TypedMatrix") -> np.ndarray | None:
        """``self - other`` where either holds an entry, by merging both
        entry lists with ``other``'s negated; None if the types differ."""
        if (self.in_arity, self.out_arity) != (other.in_arity, other.out_arity):
            return None
        (r1, c1, v1), (r2, c2, v2) = self.entries(), other.entries()
        return _column_major(np.concatenate((r1, r2)),
                             np.concatenate((c1, c2)),
                             np.concatenate((v1, -v2)), self.in_arity,
                             self.out_arity)[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TypedMatrix):
            return NotImplemented
        diff = self._difference(other)
        return diff is not None and not np.any(diff)

    def __hash__(self):
        return hash((self.in_arity, self.out_arity))

    def allclose(self, other: "TypedMatrix", atol: float = STOCH_EPS) -> bool:
        diff = self._difference(other)
        return diff is not None and bool(np.all(np.abs(diff) <= atol))

    def __repr__(self):
        kind = ("diag" if self.is_diagonal else
                "sparse" if self.is_sparse else "dense")
        return (f"TypedMatrix({self.in_arity} -> {self.out_arity}, {kind})")


class ProbVector:
    """A sub-distribution on ``{0,1}^arity`` (mass at most 1)."""

    __slots__ = ("arity", "data")

    def __init__(self, arity: int, data):
        self.arity = _check_arity(arity)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != (1 << self.arity,):
            raise InvalidArity(
                f"vector length {data.shape} does not match arity {arity}")
        # NaN fails both comparisons, so it is rejected with the rest
        if not np.all((data >= -CONSTRUCT_EPS)
                      & (data <= 1 + CONSTRUCT_EPS)):
            raise InvalidArity("entries not finite or outside [0, 1]")
        if float(data.sum()) > 1 + CONSTRUCT_EPS:
            raise InvalidArity(f"mass {float(data.sum())} exceeds 1")
        data.flags.writeable = False
        self.data = data

    @classmethod
    def point(cls, arity: int, marking: int | str) -> "ProbVector":
        if isinstance(marking, str):
            marking = bits_to_int(marking)
        data = np.zeros(1 << arity)
        data[marking] = 1.0
        return cls(arity, data)

    @classmethod
    def uniform(cls, arity: int) -> "ProbVector":
        return cls(arity, np.full(1 << arity, 1.0 / (1 << arity)))

    def entry(self, m: int | str) -> float:
        if isinstance(m, str):
            m = bits_to_int(m)
        return float(self.data[m])

    def mass(self) -> float:
        return float(self.data.sum())

    def as_matrix(self) -> TypedMatrix:
        return TypedMatrix(0, self.arity, dense=self.data.reshape(-1, 1))

    def allclose(self, other: "ProbVector", atol: float = STOCH_EPS) -> bool:
        return self.arity == other.arity and bool(
            np.allclose(self.data, other.data, atol=atol, rtol=0.0))

    def __repr__(self):
        return f"ProbVector(arity={self.arity}, mass={self.mass():.6g})"


def normalize(p: ProbVector) -> ProbVector:
    """Scale ``p`` to total mass 1.

    Every entry is a sum of products of non-negative weights, so evidence
    of probability zero leaves exactly 0.0; any positive mass, however
    small, is a valid posterior.  A mass that underflows float64 to 0.0
    still raises.
    """
    m = p.mass()
    if not m > 0.0:
        raise InconsistentEvidence(f"cannot normalize mass {m}")
    return ProbVector(p.arity, p.data / m)


def compose(first: TypedMatrix, second: TypedMatrix) -> TypedMatrix:
    """Diagrammatic composite: apply ``first``, then ``second``."""
    if first.out_arity != second.in_arity:
        raise TypeMismatch(
            f"cannot compose {first.out_arity}-bit output into "
            f"{second.in_arity}-bit input")
    n, m = first.in_arity, second.out_arity
    if first.is_diagonal and second.is_diagonal:
        return TypedMatrix(n, m, diag=second._diag * first._diag, check=False)
    if first.is_sparse or second.is_sparse or n + m > MAX_DENSE_BITS:
        # join first's rows with second's columns, which ascend
        z, y, v = first.entries()
        x, col, w = second.entries()
        lo, hi = np.searchsorted(col, z), np.searchsorted(col, z, "right")
        i = np.repeat(np.arange(z.shape[0]), hi - lo)
        j = np.arange(i.shape[0]) + (hi - np.cumsum(hi - lo))[i]
        return from_entries(n, m, x[j], y[i], v[i] * w[j])
    return TypedMatrix(n, m, dense=second.to_dense() @ first.to_dense(),
                       check=False)


def tensor(a: TypedMatrix, b: TypedMatrix) -> TypedMatrix:
    """Parallel composite; ``a`` occupies the most significant bits."""
    n = a.in_arity + b.in_arity
    m = a.out_arity + b.out_arity
    if a.is_diagonal and b.is_diagonal:
        return TypedMatrix(n, m, diag=np.kron(a._diag, b._diag), check=False)
    if a.is_sparse or b.is_sparse or n + m > MAX_DENSE_BITS:
        (ra, ca, va), (rb, cb, vb) = a.entries(), b.entries()
        rows = ra.astype(np.int64)[:, None] << b.out_arity | rb
        cols = ca.astype(np.int64)[:, None] << b.in_arity | cb
        return from_entries(n, m, rows.ravel(), cols.ravel(),
                            np.outer(va, vb).ravel())
    return TypedMatrix(n, m, dense=np.kron(a.to_dense(), b.to_dense()),
                       check=False)


def _column_major(rows, cols, vals, n: int, m: int):
    """Coordinates of a ``2^m x 2^n`` matrix put column by column, rows
    ascending, each position once; a position given twice sums in the
    order given.  The sort is stable and merges presorted runs cheaply."""
    if n + m > 63:
        raise TooLarge(f"sparse index over {n + m} bits")
    key = np.asarray(cols, dtype=np.int64) << m | rows
    order = np.argsort(key, kind="stable")
    key, vals = key[order], np.asarray(vals, dtype=np.float64)[order]
    first = np.empty(key.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if not first.all():
        vals = np.bincount(np.cumsum(first) - 1, weights=vals)
        key = key[first]
    index = np.int32 if max(n, m) < 32 else np.int64
    entries = ((key & ((1 << m) - 1)).astype(index),
               (key >> m).astype(index), vals)
    for a in entries:
        a.flags.writeable = False
    return entries


def from_entries(n: int, m: int, rows, cols, vals) -> TypedMatrix:
    """The ``n -> m`` matrix holding ``vals`` at ``(rows, cols)``, a
    position given twice summed in the order given, built unchecked: dense
    by one bincount up to DENSIFY_BITS, else kept as its entry list."""
    if n + m <= DENSIFY_BITS:
        flat = np.asarray(rows, dtype=np.int64) << n | cols
        dense = np.bincount(flat, weights=vals, minlength=1 << (n + m))
        return TypedMatrix(n, m, dense=dense.reshape(1 << m, 1 << n),
                           check=False)
    return TypedMatrix(n, m, sparse=(rows, cols, vals), check=False)


def identity(n: int) -> TypedMatrix:
    return TypedMatrix(n, n, diag=np.ones(1 << n), check=False)


def duplicate(n: int) -> TypedMatrix:
    """The copy map ``n -> 2n``: output is the input repeated twice."""
    if n < 1:
        raise InvalidArity("duplicate needs arity >= 1")
    size = 1 << n
    data = np.zeros((size * size, size))
    idx = np.arange(size)
    data[idx * size + idx, idx] = 1.0
    return TypedMatrix(n, 2 * n, dense=data, check=False)


def terminator(n: int) -> TypedMatrix:
    """The discard map ``n -> 0`` (all-ones row)."""
    if n < 1:
        raise InvalidArity("terminator needs arity >= 1")
    return TypedMatrix(n, 0, dense=np.ones((1, 1 << n)), check=False)


def swap_blocks(n: int, m: int) -> TypedMatrix:
    """The permutation ``n + m -> m + n`` exchanging the two bit blocks."""
    _check_arity(n)
    _check_arity(m)
    size = 1 << (n + m)
    y = np.arange(size)
    x = ((y & ((1 << m) - 1)) << n) | (y >> m)
    data = np.zeros((size, size))
    data[x, y] = 1.0
    return TypedMatrix(n + m, n + m, dense=data, check=False)


def constant(kind: str, n: int) -> TypedMatrix:
    """Named structural constants: ``id``, ``dup``, ``swap`` and ``term``.

    ``constant("swap", n)`` is the block swap on two ``n``-bit halves; the
    base generator is ``n = 1``.  Mixed-arity swaps come from
    :func:`swap_blocks`.
    """
    if kind == "id":
        return identity(n)
    if kind == "dup":
        return duplicate(n)
    if kind == "swap":
        if n < 1:
            raise InvalidArity("swap needs arity >= 1")
        return swap_blocks(n, n)
    if kind == "term":
        return terminator(n)
    raise InvalidArity(f"unknown constant kind {kind!r}")


def dump_matrix(mat: TypedMatrix) -> str:
    """Serialize: ``n m`` header, then rows in descending bitstring order.

    Columns within each row are also listed in descending order, so the
    top-left entry is ``M(1...1 | 1...1)``.
    """
    dense = mat.to_dense()
    lines = [f"{mat.in_arity} {mat.out_arity}"]
    for x in range(dense.shape[0] - 1, -1, -1):
        row = dense[x, ::-1]
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def dump_vector(p: ProbVector) -> str:
    return dump_matrix(p.as_matrix())


def parse_vector(arity: int, values: Iterable[float]) -> ProbVector:
    """Read a vector listed in descending bitstring order."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.shape != (1 << arity,):
        raise InvalidArity(
            f"expected {1 << arity} entries for arity {arity}, "
            f"got {data.shape[0]}")
    return ProbVector(arity, data[::-1])
