"""Finitely supported multi-indices and ordered index sets.

A multi-index assigns a polynomial degree to each parameter dimension, with
only finitely many nonzero entries.  Index sets keep a deterministic order:
the zero index first, then members in the order they were added, new members
sorted canonically (total degree, then lexicographic by (dimension, degree)).
"""

from __future__ import annotations

from functools import total_ordering

import numpy as np

__all__ = ["MultiIndex", "IndexSet", "ZERO", "unit_index", "detail_index_set", "row_positions"]


@total_ordering
class MultiIndex:
    """Sparse multi-index: tuple of (dimension >= 1, degree >= 1) pairs with
    strictly increasing dimensions."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        clean = tuple((int(m), int(d)) for m, d in pairs if d != 0)
        for m, d in clean:
            if m < 1 or d < 1:
                raise ValueError(f"invalid (dimension, degree) pair ({m}, {d})")
        if any(clean[i][0] >= clean[i + 1][0] for i in range(len(clean) - 1)):
            clean = tuple(sorted(clean))
            if any(clean[i][0] == clean[i + 1][0] for i in range(len(clean) - 1)):
                raise ValueError("duplicate dimensions in multi-index")
        object.__setattr__(self, "pairs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    def __reduce__(self):
        return MultiIndex, (self.pairs,)

    def degree(self, m: int) -> int:
        for dim, deg in self.pairs:
            if dim == m:
                return deg
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.pairs)

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.pairs)

    def sort_key(self):
        return (self.total_degree, self.pairs)

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self.pairs == other.pairs

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"MultiIndex({list(self.pairs)})"

    def __str__(self):
        if not self.pairs:
            return "-"
        return " ".join(f"{m}:{d}" for m, d in self.pairs)


ZERO = MultiIndex()


def unit_index(m: int, degree: int = 1) -> MultiIndex:
    """The index with a single entry: `degree` in dimension `m`."""
    return MultiIndex([(m, degree)])


def row_positions(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position in the integer array `table` of each row of `rows` (both
    padded with zero columns to a common width), or -1 where it has none.

    Both are sorted together, stably and `table` first, so the first row of a
    run of equal rows is the first match in `table` if there is one; hence
    ``row_positions(a, a)[i] == i`` marks first occurrences."""
    width = max(table.shape[1], rows.shape[1], 1)
    stack = np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in (table, rows)])
    order = np.lexsort(stack.T[::-1])
    ordered = stack[order]
    starts = np.ones(len(stack), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    head = order[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
    found = np.empty(len(stack), dtype=np.int64)
    found[order] = np.where(head < len(table), head, -1)
    return found[len(table):]


class IndexSet:
    """Ordered set of distinct multi-indices containing the zero index, also
    held as rows of the read-only integer array ``degrees`` of shape
    (#members, ``max_dimension()``): entry (i, m - 1) is member i's degree m."""

    __slots__ = ("members", "_positions", "degrees")

    def __init__(self, members=(ZERO,), require_zero: bool = True):
        ordered: list[MultiIndex] = []
        seen: set[MultiIndex] = set()
        for nu in members:
            if nu not in seen:
                seen.add(nu)
                ordered.append(nu)
        if require_zero:
            if ZERO not in seen:
                raise ValueError("index set must contain the zero index")
            if ordered[0] != ZERO:
                ordered.remove(ZERO)
                ordered.insert(0, ZERO)
        self.members = tuple(ordered)
        self._positions = {nu: i for i, nu in enumerate(self.members)}
        entries = [(i, m - 1, d) for i, nu in enumerate(ordered) for m, d in nu.pairs]
        rows, dims, degs = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        self.degrees = np.zeros((len(ordered), dims.max(initial=-1) + 1), dtype=np.int64)
        self.degrees[rows, dims] = degs
        self.degrees.flags.writeable = False

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, nu):
        return nu in self._positions

    def __getitem__(self, i):
        return self.members[i]

    def __eq__(self, other):
        return isinstance(other, IndexSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __reduce__(self):
        # rebuilt from the members in order, so `degrees` is read-only again
        return IndexSet, (self.members, False)

    def __repr__(self):
        return f"IndexSet([{', '.join(str(nu) for nu in self.members)}])"

    def position(self, nu: MultiIndex) -> int:
        return self._positions[nu]

    def union(self, extra) -> "IndexSet":
        """Append new members in canonical order; existing order is kept."""
        new = sorted(set(nu for nu in extra if nu not in self._positions))
        return IndexSet(self.members + tuple(new), require_zero=ZERO in self._positions)

    def max_dimension(self) -> int:
        """Largest active dimension over all members, 0 if only the zero index."""
        return self.degrees.shape[1]

    def neighbours(self, width: int) -> np.ndarray:
        """Degree rows nu - e_m, then nu + e_m, for m = 1..width (at least
        ``max_dimension()``) and each member nu; shape (2 width #members, width)."""
        degrees = np.pad(self.degrees, ((0, 0), (0, width - self.max_dimension())))
        steps = np.eye(width, dtype=np.int64)[:, None]
        return np.stack([degrees - steps, degrees + steps]).reshape(2 * width * len(self), width)


def detail_index_set(indices: IndexSet) -> IndexSet:
    """Candidate indices one step outside `indices`.

    All indices of the form ``nu +- e_m`` with ``nu`` in the set and
    ``m = 1..M+1`` (M the active dimension) that are not already members and
    have no negative component, in canonical order.
    """
    found = indices.neighbours(indices.max_dimension() + 1)
    found = found[(found >= 0).all(axis=1) & (row_positions(indices.degrees, found) < 0)]
    found = found[row_positions(found, found) == np.arange(len(found))]
    members = (MultiIndex(enumerate(row, start=1)) for row in found.tolist())
    return IndexSet(sorted(members, key=MultiIndex.sort_key), require_zero=False)
