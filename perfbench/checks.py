"""Correctness checks on the Gram matrices a round exported as CSV.

A Gram entry is one operation: a matrix of n graphs holds n(n+1)/2 of them
(the upper triangle with the diagonal).  An entry fails when it is not
finite, differs from its mirror entry, reaches 2**53 (beyond which float64
no longer holds every integer, so a Dirac kernel's count may have been
rounded), or differs from the other scheme's entry for the same Dirac
kernel.  The CLI writes ``%.17g``, which round-trips float64, so the two
schemes are compared as text, bit for bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import numpy as np

EXACT_LIMIT = 2.0**53


def entry_count(n: int) -> int:
    return n * (n + 1) // 2


def read_cells(path: Path) -> List[List[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


def check_gram(cells: List[List[str]], n: int, label: str) -> Tuple[int, List[str]]:
    """Failed entries of one exported Gram of ``n`` graphs, with reasons."""
    if len(cells) != n or any(len(row) != n for row in cells):
        return entry_count(n), [f"{label}: expected a {n}x{n} matrix"]
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError as exc:
        return entry_count(n), [f"{label}: unreadable entry ({exc})"]
    upper = np.triu(np.ones((n, n), dtype=bool))
    bad = ~np.isfinite(values)
    bad |= values != values.T
    bad |= np.abs(values) >= EXACT_LIMIT
    failed = int((bad & upper).sum())
    if failed:
        i, j = np.argwhere(bad & upper)[0]
        return failed, [f"{label}: {failed} bad entries, first at ({i}, {j}) = {values[i, j]!r}"]
    return 0, []


def compare_schemes(
    implicit: List[List[str]], explicit: List[List[str]], n: int, label: str
) -> Tuple[int, List[str]]:
    """Entries of the upper triangle whose two schemes' text differs."""
    a, b = np.array(implicit, dtype=object), np.array(explicit, dtype=object)
    if a.shape != (n, n) or b.shape != (n, n):
        return entry_count(n), [f"{label}: schemes exported different shapes"]
    differ = np.triu(a != b)
    failed = int(differ.sum())
    if failed:
        i, j = np.argwhere(differ)[0]
        return failed, [
            f"{label}: {failed} entries differ between schemes, first at "
            f"({i}, {j}): implicit {a[i, j]} vs explicit {b[i, j]}"
        ]
    return 0, []
