"""The factor-contraction kernel.

Variable elimination spends essentially all its time on one operation:
multiply the factors containing some wire and sum that wire out.  Each
factor table is viewed as an array over its bit axes, with the summed wire
leading and the others in the slot order of the result, so the factor's
two halves (summed wire 0 and 1) are views broadcast against the other
factors'.  The result is allocated once and filled a block of leading
output wires at a time as (product of the 0-halves) + (product of the
1-halves), so no table over the result's wires plus the summed one is ever
formed and the temporaries stay within a few blocks.  The grouped joins of
the elimination layer keep the plain broadcast product
(``_broadcast_product``), which has no wire to sum.
"""
from __future__ import annotations

import numpy as np

from .errors import TooLarge

# Largest table materialized during a contraction: 2**26 doubles = 512 MiB.
MAX_CONTRACT_BITS = 26
# Output wires filled per block: 2**16 doubles (512 KiB) per half product.
# Contractions onto 18 and 21 wires ran fastest with 16-wire blocks, about
# 10% slower with 18 to 21 and 20% slower with 12 (CHANGES.md).
BLOCK_BITS = 16


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
    # the summed wire leads, so v[0] and v[1] are a factor's halves
    views = [_aligned(t, [(slot + 1) % (out_bits + 1) for slot in sl],
                      out_bits + 1) for t, sl in zip(tables, slots)]
    out = np.empty((2,) * out_bits)
    lead = max(out_bits - BLOCK_BITS, 0)
    if not lead:
        _add_halves(out, [v[0] for v in views], [v[1] for v in views])
        return out.ravel()
    # a factor without a leading output wire has a broadcast axis there
    spans = [[v.shape[a + 1] == 2 for a in range(lead)] for v in views]
    for block in range(1 << lead):
        at = [(block >> (lead - 1 - a)) & 1 for a in range(lead)]
        picks = [tuple(bit if wide else 0 for bit, wide in zip(at, span))
                 for span in spans]
        _add_halves(out[tuple(at)],
                    [v[0][pick] for v, pick in zip(views, picks)],
                    [v[1][pick] for v, pick in zip(views, picks)])
    return out.ravel()


def _aligned(table: np.ndarray, axes, bits: int) -> np.ndarray:
    """The table viewed over ``bits`` bit axes: its wire ``a`` on axis
    ``axes[a]``, and a broadcast axis wherever it has no wire."""
    s = len(axes)
    order = sorted(range(s), key=axes.__getitem__)
    view = table.reshape((2,) * s)
    if order != list(range(s)):
        view = view.transpose(order)
    shape = [1] * bits
    for axis in axes:
        shape[axis] = 2
    return view.reshape(shape)


def _add_halves(dst: np.ndarray, zeros: list[np.ndarray],
                ones: list[np.ndarray]) -> None:
    """Write (product of ``zeros``) + (product of ``ones``) into ``dst``,
    multiplying in table order as the full product would.

    The two products are fresh arrays, each at most one block: numpy lays
    them out in the order of their transposed inputs, where writing them
    straight into the C-ordered result ran about three times slower.
    """
    first, second = zeros[0], ones[0]
    for a, b in zip(zeros[1:], ones[1:]):
        first = first * a
        second = second * b
    np.add(first, second, out=dst)


def _broadcast_product(tables, slots, bits: int) -> np.ndarray:
    """The pointwise product of the tables over ``bits`` bit axes.

    Table ``j``'s wire ``a`` lands on axis ``slots[j][a]``; axes no table
    covers are broadcast.  The result may be a read-only broadcast view.
    """
    acc = None
    for table, sl in zip(tables, slots):
        view = _aligned(table, sl, bits)
        acc = view if acc is None else acc * view
    full = (2,) * bits
    if acc is None:
        return np.ones(full)
    return acc if acc.shape == full else np.broadcast_to(acc, full)
