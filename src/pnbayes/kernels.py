"""The factor-contraction kernel.

Variable elimination spends essentially all its time on one operation:
multiply the factors containing some wire and sum that wire out.  Each
factor table is viewed as an array over its bit axes, transposed into the
slot order of the result and broadcast against the others, so numpy forms
the product in one pass and sums the shared wire away.  The grouped joins
of the elimination layer reuse the same broadcast product without the
final sum.
"""
from __future__ import annotations

import numpy as np

from .errors import TooLarge

# Largest table materialized during a contraction: 2**26 doubles = 512 MiB.
MAX_CONTRACT_BITS = 26


def sum_product_pair(tables: list[np.ndarray], slots: list[tuple[int, ...]],
                     out_bits: int) -> np.ndarray:
    """Multiply the given factors and sum out their one shared wire.

    ``tables[j]`` is flat over factor ``j``'s wires, first wire most
    significant.  ``slots[j][a]`` places wire ``a`` of factor ``j`` in the
    result (0 = most significant output wire) or equals ``out_bits`` for
    the wire being summed out, which every factor must contain.
    """
    if out_bits + 1 > MAX_CONTRACT_BITS:
        raise TooLarge(
            f"contraction over {out_bits + 1} wires exceeds the "
            f"2^{MAX_CONTRACT_BITS} guard")
    product = _broadcast_product(tables, slots, out_bits + 1)
    return np.asarray(product.sum(axis=out_bits)).ravel()


def _broadcast_product(tables, slots, bits: int) -> np.ndarray:
    """The pointwise product of the tables over ``bits`` bit axes.

    Table ``j``'s wire ``a`` lands on axis ``slots[j][a]``; axes no table
    covers are broadcast.  The result may be a read-only broadcast view.
    """
    acc = None
    for table, sl in zip(tables, slots):
        s = len(sl)
        order = sorted(range(s), key=lambda a: sl[a])
        view = table.reshape((2,) * s)
        if order != list(range(s)):
            view = view.transpose(order)
        shape = [1] * bits
        for slot in sl:
            shape[slot] = 2
        view = view.reshape(shape)
        acc = view if acc is None else acc * view
    full = (2,) * bits
    if acc is None:
        return np.ones(full)
    return acc if acc.shape == full else np.broadcast_to(acc, full)
