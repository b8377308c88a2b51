"""Finitely supported multi-indices and ordered index sets.

A multi-index assigns a polynomial degree to each parameter dimension, with
only finitely many nonzero entries.  Index sets keep a deterministic order:
the zero index first, then members in the order they were added, new members
sorted canonically (total degree, then lexicographic by (dimension, degree)).
"""

from __future__ import annotations

from functools import total_ordering

__all__ = ["MultiIndex", "IndexSet", "ZERO", "unit_index", "detail_index_set"]


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

    @property
    def is_zero(self) -> bool:
        return not self.pairs

    def bump(self, m: int, step: int) -> "MultiIndex | None":
        """Index with the degree in dimension `m` shifted by `step` (+1/-1);
        None if the result would have a negative component."""
        new_deg = self.degree(m) + step
        if new_deg < 0:
            return None
        other = tuple(p for p in self.pairs if p[0] != m)
        if new_deg == 0:
            return MultiIndex(other)
        return MultiIndex(sorted(other + ((m, new_deg),)))

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

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        text = text.strip()
        if text == "-":
            return ZERO
        pairs = []
        for tok in text.split():
            m, d = tok.split(":")
            pairs.append((int(m), int(d)))
        return cls(pairs)


ZERO = MultiIndex()


def unit_index(m: int, degree: int = 1) -> MultiIndex:
    """The index with a single entry: `degree` in dimension `m`."""
    return MultiIndex([(m, degree)])


class IndexSet:
    """Ordered set of distinct multi-indices containing the zero index."""

    __slots__ = ("members", "_positions")

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

    def __repr__(self):
        return f"IndexSet([{', '.join(str(nu) for nu in self.members)}])"

    def position(self, nu: MultiIndex) -> int:
        return self._positions[nu]

    def union(self, extra) -> "IndexSet":
        """Append new members in canonical order; existing order is kept."""
        new = sorted(set(nu for nu in extra if nu not in self._positions))
        return IndexSet(self.members + tuple(new), require_zero=ZERO in self._positions)

    @property
    def support(self) -> tuple[int, ...]:
        dims = set()
        for nu in self.members:
            dims.update(nu.support)
        return tuple(sorted(dims))

    def max_dimension(self) -> int:
        """Largest active dimension over all members, 0 if only the zero index."""
        return max((max(nu.support, default=0) for nu in self.members), default=0)

    def dump(self) -> str:
        """One line per index, sparse ``m:d`` pairs, zero index as ``-``."""
        return "\n".join(str(nu) for nu in self.members)

    @classmethod
    def parse(cls, text: str, require_zero: bool = True) -> "IndexSet":
        members = [MultiIndex.parse(line) for line in text.splitlines() if line.strip()]
        return cls(members, require_zero=require_zero)


def detail_index_set(indices: IndexSet) -> IndexSet:
    """Candidate indices one step outside `indices`.

    All indices of the form ``nu +- e_m`` with ``nu`` in the set and
    ``m = 1..M+1`` (M the active dimension) that are not already members and
    have no negative component, in canonical order.
    """
    m_max = indices.max_dimension() + 1
    found: set[MultiIndex] = set()
    for nu in indices:
        for m in range(1, m_max + 1):
            for step in (+1, -1):
                mu = nu.bump(m, step)
                if mu is not None and mu not in indices:
                    found.add(mu)
    return IndexSet(sorted(found), require_zero=False)
