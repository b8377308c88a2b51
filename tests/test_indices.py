import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfem import IndexSet, MultiIndex, ZERO, detail_index_set, unit_index
from sgfem.indices import row_positions

import oracles
from test_estimators import random_downward_closed


def mi(*pairs):
    return MultiIndex(pairs)


class TestMultiIndex:
    def test_zero(self):
        assert ZERO.pairs == ()
        assert ZERO.total_degree == 0
        assert ZERO.support == ()
        assert str(ZERO) == "-"

    def test_degree_lookup(self):
        nu = mi((1, 2), (3, 1))
        assert nu.degree(1) == 2
        assert nu.degree(2) == 0
        assert nu.degree(3) == 1
        assert nu.total_degree == 3
        assert nu.support == (1, 3)

    def test_zero_degrees_dropped(self):
        assert MultiIndex([(2, 0)]) == ZERO

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex([(1, 1), (1, 2)])

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex([(0, 1)])
        with pytest.raises(ValueError):
            MultiIndex([(1, -1)])

    def test_immutable(self):
        nu = unit_index(1)
        with pytest.raises(AttributeError):
            nu.pairs = ()

    def test_bump_up_down(self):
        nu = unit_index(1)
        assert oracles.bump(nu, 1, +1) == unit_index(1, 2)
        assert oracles.bump(nu, 1, -1) == ZERO
        assert oracles.bump(nu, 2, -1) is None
        assert oracles.bump(nu, 2, +1) == mi((1, 1), (2, 1))

    def test_ordering_total_degree_then_lex(self):
        seq = sorted([unit_index(2), unit_index(1, 2), unit_index(1), ZERO])
        assert seq == [ZERO, unit_index(1), unit_index(2), unit_index(1, 2)]


class TestIndexSet:
    def test_default_is_zero_only(self):
        P = IndexSet()
        assert len(P) == 1
        assert P[0] == ZERO
        assert P.max_dimension() == 0

    def test_zero_required_and_first(self):
        with pytest.raises(ValueError):
            IndexSet([unit_index(1)])
        P = IndexSet([unit_index(1), ZERO])
        assert P[0] == ZERO

    def test_union_keeps_existing_positions(self):
        P = IndexSet([ZERO, unit_index(1)])
        Q = P.union([unit_index(2), unit_index(1)])
        assert Q.position(ZERO) == 0
        assert Q.position(unit_index(1)) == 1
        assert Q.position(unit_index(2)) == 2

    def test_union_appends_in_canonical_order(self):
        P = IndexSet()
        Q = P.union([unit_index(1, 2), unit_index(2), unit_index(1)])
        assert list(Q) == [ZERO, unit_index(1), unit_index(2), unit_index(1, 2)]

    def test_max_dimension(self):
        assert IndexSet([ZERO, mi((3, 2))]).max_dimension() == 3


class TestPickle:
    def test_multi_index_roundtrip(self):
        for nu in (ZERO, unit_index(2), mi((1, 2), (4, 1))):
            back = pickle.loads(pickle.dumps(nu))
            assert back == nu and hash(back) == hash(nu)
            with pytest.raises(AttributeError):
                back.pairs = ()

    def test_index_set_roundtrip(self):
        detail = detail_index_set(IndexSet([ZERO, unit_index(1), mi((1, 1), (2, 1))]))
        for P in (IndexSet(), IndexSet([ZERO, unit_index(1), mi((1, 2), (3, 1))]), detail):
            back = pickle.loads(pickle.dumps(P))
            assert back == P
            assert back.degrees.dtype == P.degrees.dtype
            assert np.array_equal(back.degrees, P.degrees)
            assert not back.degrees.flags.writeable
            assert [back.position(nu) for nu in P] == list(range(len(P)))


class TestDegreeArray:
    def test_rows_follow_member_order(self):
        P = IndexSet([ZERO, mi((3, 2)), unit_index(1), mi((1, 1), (2, 4))])
        assert P.degrees.dtype.kind == "i"
        assert P.degrees.tolist() == [[0, 0, 0], [0, 0, 2], [1, 0, 0], [1, 4, 0]]
        with pytest.raises(ValueError):
            P.degrees[0, 0] = 1

    def test_empty_and_zero_only(self):
        assert IndexSet().degrees.shape == (1, 0)
        assert IndexSet([], require_zero=False).degrees.shape == (0, 0)

    def test_neighbours(self):
        P = IndexSet([ZERO, unit_index(1)])
        # nu - e_m for m = 1, 2, then nu + e_m, each over the members
        assert P.neighbours(2).tolist() == [
            [-1, 0], [0, 0], [0, -1], [1, -1], [1, 0], [2, 0], [0, 1], [1, 1],
        ]

    def test_row_positions(self):
        table = np.array([[0, 0], [1, 0], [0, 2], [1, 0]])
        rows = np.array([[1], [0], [2], [-1], [1], [0]])
        assert row_positions(table, rows).tolist() == [1, 0, -1, -1, 1, 0]
        # a wider query row matches a padded table row only where it is zero
        assert row_positions(rows, table).tolist() == [1, 0, -1, 0]
        # first occurrences
        assert row_positions(rows, rows).tolist() == [0, 1, 2, 3, 0, 1]
        empty = np.zeros((0, 0), dtype=np.int64)
        assert row_positions(empty, rows).tolist() == [-1] * 6
        assert row_positions(table, empty).size == 0


class TestDetailIndexSet:
    def test_zero_set(self):
        assert list(detail_index_set(IndexSet())) == [unit_index(1)]

    def test_two_members(self):
        P = IndexSet([ZERO, unit_index(1)])
        Q = detail_index_set(P)
        assert set(Q) == {unit_index(2), unit_index(1, 2), mi((1, 1), (2, 1))}

    def test_three_members(self):
        P = IndexSet([ZERO, unit_index(1), unit_index(1, 2)])
        Q = detail_index_set(P)
        assert set(Q) == {
            unit_index(2),
            unit_index(1, 3),
            mi((1, 1), (2, 1)),
            mi((1, 2), (2, 1)),
        }

    def test_detail_shrinks_after_enrichment(self):
        # members of Q absorbed into P drop out of the next detail set
        P = IndexSet()
        for _ in range(4):
            Q = detail_index_set(P)
            P_next = P.union([Q[0]])
            Q_next = detail_index_set(P_next)
            leftovers = set(Q) - set(P_next)
            assert leftovers <= set(Q_next)
            P = P_next


@st.composite
def index_sets(draw):
    pairs = st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=0, max_size=3
    )
    members = [ZERO]
    for _ in range(draw(st.integers(0, 5))):
        raw = draw(pairs)
        dedup = {m: d for m, d in raw}
        members.append(MultiIndex(sorted(dedup.items())))
    return IndexSet(members)


@settings(max_examples=100, deadline=None)
@given(index_sets())
def test_detail_set_properties(P):
    Q = detail_index_set(P)
    M = P.max_dimension()
    assert not set(Q) & set(P)
    for mu in Q:
        assert max(mu.support, default=0) <= M + 1
        # exactly one bump away from some member of P
        assert any(
            oracles.bump(mu, m, s) in P
            for m in range(1, M + 2)
            for s in (+1, -1)
            if oracles.bump(mu, m, s) is not None
        )


@settings(max_examples=100, deadline=None)
@given(index_sets())
def test_detail_set_equals_loop(P):
    assert detail_index_set(P) == oracles.loop_detail_index_set(P)


@pytest.mark.parametrize("seed", range(10))
def test_detail_set_equals_loop_downward_closed(seed):
    # up to M = 12, or up to degree 6 in two dimensions, and again after an
    # enrichment by the result
    max_dim = 2 if seed % 2 == 0 else 12
    P = random_downward_closed(seed, 4 + 5 * seed, max_dim=max_dim, max_degree=6)
    for _ in range(2):
        Q = detail_index_set(P)
        assert Q == oracles.loop_detail_index_set(P)
        assert list(Q) == sorted(Q)
        P = P.union(Q)


@settings(max_examples=50, deadline=None)
@given(index_sets(), index_sets())
def test_union_is_superset_and_ordered(P, R):
    U = P.union(R)
    assert set(U) >= set(P) | set(R)
    assert list(U)[: len(P)] == list(P)
