"""The contraction kernel and the grouped join against einsum."""
import string
import tracemalloc

import numpy as np
import pytest

from pnbayes import kernels
from pnbayes.causality import Wire
from pnbayes.eliminate import Factor, _join
from pnbayes.errors import TooLarge


def einsum_reference(tables, slots, out_bits):
    """The same contraction, spelled as an einsum over bit axes."""
    letters = string.ascii_lowercase
    operands = [t.reshape((2,) * len(sl)) for t, sl in zip(tables, slots)]
    subs = ["".join(letters[slot] for slot in sl) for sl in slots]
    expr = ",".join(subs) + "->" + letters[:out_bits]
    return np.ravel(np.einsum(expr, *operands))


def random_problem(rng, n_out, n_factors):
    """Factors jointly covering the output wires, all sharing the sum wire.

    Slot tuples come out shuffled, so the kernels' axis bookkeeping is
    exercised on non-monotone layouts too.
    """
    membership = [set() for _ in range(n_factors)]
    for w in range(n_out):
        holders = min(int(rng.integers(1, 3)), n_factors)
        for j in rng.choice(n_factors, size=holders, replace=False):
            membership[int(j)].add(w)
    tables, slots = [], []
    for j in range(n_factors):
        sl = list(membership[j]) + [n_out]
        rng.shuffle(sl)
        slots.append(tuple(int(s) for s in sl))
        tables.append(rng.uniform(0.1, 1.0, size=1 << len(sl)))
    return tables, slots


def test_single_factor_contraction():
    table = np.array([1.0, 2.0, 3.0, 4.0])
    # f(w, z): wire first, summed wire second
    got = kernels.sum_product_pair([table], [(0, 1)], 1)
    assert np.allclose(got, [3.0, 7.0])
    # f(z, w): summed wire most significant inside the factor
    got = kernels.sum_product_pair([table], [(1, 0)], 1)
    assert np.allclose(got, [4.0, 6.0])


def test_scalar_output():
    table = np.array([0.25, 0.5])
    got = kernels.sum_product_pair([table, table], [(0,), (0,)], 0)
    assert np.allclose(got, [0.25 ** 2 + 0.5 ** 2])


def test_random_contractions_match_einsum(rng):
    for _ in range(40):
        n_out = int(rng.integers(0, 6))
        n_factors = int(rng.integers(1, 5))
        tables, slots = random_problem(rng, n_out, n_factors)
        want = einsum_reference(tables, slots, n_out)
        got = kernels.sum_product_pair(tables, slots, n_out)
        assert np.allclose(got, want), slots


def test_wide_contraction(rng):
    tables, slots = random_problem(rng, 12, 6)
    want = einsum_reference(tables, slots, 12)
    got = kernels.sum_product_pair(tables, slots, 12)
    assert np.allclose(got, want)


def unblocked_reference(tables, slots, out_bits):
    """The full product over the output wires and the summed one, summed
    along the latter: the same multiplications in the same order."""
    product = kernels._broadcast_product(tables, slots, out_bits + 1)
    return np.asarray(product.sum(axis=out_bits)).ravel()


def random_layout(rng, n_out, n_factors, uncovered):
    """``random_problem`` with ``uncovered`` output slots held by no
    factor, which the result broadcasts over, and the einsum answer."""
    kept = sorted(int(k) for k in rng.permutation(n_out)[:n_out - uncovered])
    tables, compact = random_problem(rng, len(kept), n_factors)
    want = einsum_reference(tables, compact, len(kept))
    shape = [2 if k in kept else 1 for k in range(n_out)]
    want = np.broadcast_to(want.reshape(shape), (2,) * n_out).ravel()
    place = dict(enumerate(kept))
    place[len(kept)] = n_out
    return tables, [tuple(place[a] for a in sl) for sl in compact], want


@pytest.mark.parametrize("block_bits", [2, 3, kernels.BLOCK_BITS])
def test_blocked_contractions_match_einsum(rng, block_bits, monkeypatch):
    # small blocks split the outputs of these layouts into many blocks
    monkeypatch.setattr(kernels, "BLOCK_BITS", block_bits)
    seen = set()
    for _ in range(60):
        n_out = int(rng.integers(0, 9))
        n_factors = int(rng.integers(1, 5))
        uncovered = int(rng.integers(0, min(n_out, 2) + 1))
        tables, slots, want = random_layout(rng, n_out, n_factors,
                                            uncovered)
        got = kernels.sum_product_pair(tables, slots, n_out)
        assert got.shape == (1 << n_out,)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), slots
        assert np.array_equal(got, unblocked_reference(tables, slots,
                                                       n_out)), slots
        seen.update({("blocks", n_out > block_bits), ("one table",
                     n_factors == 1), ("broadcast", uncovered > 0),
                     ("scalar", n_out == 0)})
    assert all((kind, True) in seen
               for kind in ("one table", "broadcast", "scalar"))
    assert ("blocks", block_bits < 8) in seen


def test_a_wide_contraction_allocates_its_result_and_a_few_blocks(rng):
    out_bits = 21
    tables, slots = random_problem(rng, out_bits, 3)
    inputs = sum(t.nbytes for t in tables)
    block = 8 << kernels.BLOCK_BITS
    tracemalloc.start()
    try:
        got = kernels.sum_product_pair(tables, slots, out_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out_bits > kernels.BLOCK_BITS
    # the result, the two half products of one block and one product in
    # flight; the unblocked product over 22 wires alone is twice the result
    assert peak <= got.nbytes + inputs + 3 * block
    want = einsum_reference(tables, slots, out_bits)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_join_matches_einsum(rng):
    # the grouped join is the same product without the sum: every slot,
    # the shared one included, stays in the result
    for _ in range(40):
        n_out = int(rng.integers(0, 6))
        n_factors = int(rng.integers(1, 5))
        tables, slots = random_problem(rng, n_out, n_factors)
        want = einsum_reference(tables, slots, n_out + 1)
        # slot k of the joined layout carries wire joined[k], in shuffled
        # wire order; each factor holds its wires ascending
        joined = tuple(Wire(int(k), 1) for k in rng.permutation(n_out + 1))
        group = []
        for table, sl in zip(tables, slots):
            wires = [joined[s] for s in sl]
            axes = sorted(range(len(sl)), key=lambda a: wires[a])
            view = table.reshape((2,) * len(sl)).transpose(axes)
            group.append(Factor(tuple(sorted(wires)), view.ravel()))
        assert np.allclose(_join(group, joined), want), slots
    assert np.array_equal(_join([], joined), np.ones(1 << len(joined)))


def test_contraction_guard():
    table = np.ones(2)
    with pytest.raises(TooLarge, match=r"exceeds the 2\^26 guard"):
        kernels.sum_product_pair([table], [(kernels.MAX_CONTRACT_BITS,)],
                                 kernels.MAX_CONTRACT_BITS)
