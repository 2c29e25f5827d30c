"""The contraction kernel and the grouped join against einsum."""
import string

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
