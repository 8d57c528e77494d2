"""The oracle's adjacency export: one `index: succ1 succ2 ...` line per state.

A row is its state's moves in a fixed order, so in a block of rows each
successor slot reads one contiguous range of indices; the export formats
each index once and fills the slots by slice copies. Only `oracle
--adjacency` loads this module (through `oracle.export_adjacency`), so no
other command compiles it.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .oracle import TransitionDigraph

# rows per block of the export. On ex1 (2 vCPUs) 2^12 to 2^13 rows are the
# fastest (0.282 and 0.280 s in process, one core), and a block of 2^15 rows
# was 20% slower and held 13 MB. The ex1 command peaks at about 38.3 MB with
# 2^12 rows and 39.7 MB with 2^13
_EXPORT_ROWS = 1 << 12


@cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0..9999, zero-padded, one uint32 word each; built
    on first use."""
    table = np.empty((10_000, 4), dtype=np.uint8)
    rest = np.arange(10_000, dtype=np.uint16)
    for col in range(3, -1, -1):
        rest, digit = np.divmod(rest, 10)
        table[:, col] = digit + ord("0")
    words = table.view(np.uint32)[:, 0]
    words.flags.writeable = False
    return words


def _digit_runs(lo: int, hi: int):
    """(start, stop, digits) for each run of indices in range(lo, hi) that
    have the same number of digits."""
    for d in range(len(str(lo)), len(str(hi - 1)) + 1):
        yield max(lo, 10 ** (d - 1) if d > 1 else 0), min(hi, 10**d), d


def _index_tokens(lo: int, out: np.ndarray) -> None:
    """Fill row r of `out` (uint8, one row per index) with the token `" " +
    str(lo + r)`, right-aligned and NUL-padded on the left.

    A row's width must be a multiple of 4 and longer than the largest index's
    digits. The digits come four at a time from `_digit_groups`; the zeros
    before the leading digit are then blanked per run of equal digit counts.
    """
    hi = lo + len(out)
    size = out.shape[1]
    groups = out.view(np.uint32)[:, ::-1]  # the last four digits first
    rest = np.arange(lo, hi, dtype=np.promote_types(np.min_scalar_type(hi - 1), np.uint16))
    for col in range(-(-len(str(hi - 1)) // 4)):
        rest, group = np.divmod(rest, 10_000)
        groups[:, col] = _digit_groups()[group]
    for a, b, d in _digit_runs(lo, hi):
        out[a - lo : b - lo, : size - d] = 0
        out[a - lo : b - lo, size - d - 1] = ord(" ")


def export_adjacency(graph: TransitionDigraph, stream) -> None:
    """Write `index: succ1 succ2 ...` lines (self-loop listed when present, see
    `TransitionDigraph.self_loops`).

    A state's successors are itself and its moves, so a row lists them in
    ascending order of step with the state in the middle, and in a block of
    rows [lo, hi) successor slot j holds the indices [lo + offset_j, hi +
    offset_j). Each index is formatted once, as the token `" " + digits`
    right-aligned in whole uint64 words and NUL-padded on the left, into a
    window over [lo - reach, hi + reach) that slides with the blocks (reach
    is the largest stride). A block of `_EXPORT_ROWS` rows is one word array:
    a label (`digits + ":"`), one slice copy of the window per slot, and a
    newline token. The tokens that the moves and self-loops keep are selected
    whole, and the padding is dropped in one pass.
    """
    n, steps, bits = graph.n_states, graph.steps, graph.bits
    mid = len(steps) // 2
    # the successor slots: the moves in ascending order, the state itself in the middle
    offsets = np.insert(steps, mid, 0).tolist()
    slot_bits = np.insert(bits, mid, 0)
    reach = max((abs(s) for s in offsets), default=0)
    words = -(-(len(str(n - 1)) + 1) // 8)
    size = 8 * words
    block = min(_EXPORT_ROWS, n)
    # twice the span a block reads, so the window moves back to the front of
    # the buffer at most once every span / block blocks
    span = block + 2 * reach
    window = np.zeros((min(2 * span, n + 2 * reach), words), dtype=np.uint64)
    chars = window.view(np.uint8)
    first, done = -reach, 0  # the index at window[0], and the first index not yet formatted

    newline = np.zeros(size, dtype=np.uint8)
    newline[-1] = ord("\n")
    newline = newline.view(np.uint64)
    # a row's tokens: its label, its successors in ascending order, a newline
    table = np.empty((block, len(offsets) + 2, words), dtype=np.uint64)
    keep = np.ones((block, len(offsets) + 2), dtype=bool)  # label and newline always
    ahead = 8 * _EXPORT_ROWS  # rows per `self_loops` call, which costs mostly per cell, not per row
    for lo in range(0, n, _EXPORT_ROWS):
        hi = min(lo + _EXPORT_ROWS, n)
        rows = hi - lo
        if lo % ahead == 0:
            loops_ahead = graph.self_loops(lo, min(lo + ahead, n))
        if hi + reach - first > len(window):
            start = lo - reach
            window[: done - start] = window[start - first : done - first]
            first = start
        stop = min(hi + reach, n)
        if stop > done:
            _index_tokens(done, chars[done - first : stop - first])
            done = stop

        for slot, offset in enumerate(offsets, 1):
            table[:rows, slot] = window[lo + offset - first : hi + offset - first]
        # the row's own token one byte to the left, ":" after it, its space blanked
        label = table[:rows, 0].view(np.uint8)
        label[:, :-1] = chars[lo - first : hi - first, 1:]
        label[:, -1] = ord(":")
        for a, b, d in _digit_runs(lo, hi):
            label[a - lo : b - lo, : size - 1 - d] = 0
        here, loops = graph.moves[lo:hi], loops_ahead[lo % ahead : lo % ahead + rows]
        np.not_equal(here[:, None] & slot_bits, 0, out=keep[:rows, 1:-1])
        keep[:rows, mid + 1] = loops
        table[:rows, -1] = newline
        kept = np.compress(keep[:rows].ravel(), table[:rows].reshape(-1, words), axis=0)
        stream.write(kept.tobytes().translate(None, b"\0").decode("ascii"))
