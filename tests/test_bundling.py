from __future__ import annotations

import random
from itertools import combinations
from math import ceil, log2

import pytest

import pathdraw.bundling
import pathdraw.drawing

from oracles import (
    chains_dag,
    crossing_pairs_bruteforce,
    lane_pair_crossings_bruteforce,
    many_lane_dag,
    max_overlap_depth,
    nested_span_dag,
    pack_intervals_first_fit,
    reorder_lanes_bruteforce,
    reorder_lanes_climb_reference,
    stack_crossings_bruteforce,
    transitive_bundles_reference,
)
from pathdraw import (
    DiGraph,
    PathDecomposition,
    classify_edges,
    draw,
    generate_random_dag,
    min_path_cover,
)
from pathdraw.bundling import (
    _EXHAUSTIVE_LIMIT,
    BundleInterval,
    LanePacking,
    lane_pair_costs,
    pack_intervals,
    reorder_lanes,
    transitive_bundles,
)
from pathdraw.drawing import BundleRecord


def _bundles(g, d):
    lay = draw(g, d).layout
    return transitive_bundles(d, classify_edges(g, d), lay.y), lay


def _direction(iv):
    """Outgoing when every member leaves the anchor, incoming when every one enters it."""
    ends = {e.index(iv.anchor) for e in iv.members}
    assert len(ends) == 1
    return ("outgoing", "incoming")[ends.pop()]


def _iv(s, f, anchor=0, members=None, spans=None):
    members = members if members is not None else ((anchor, anchor + 1),)
    spans = spans if spans is not None else ((s, f),)
    return BundleInterval(
        path_index=0,
        anchor=anchor,
        members=members,
        start_row=s,
        finish_row=f,
        member_spans=spans,
    )


class TestGreedyExtraction:
    def test_single_anchor_with_two_out_edges(self):
        g = DiGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)])
        d = PathDecomposition(((0, 1, 2, 3),))
        intervals, lay = _bundles(g, d)
        assert len(intervals) == 1
        only = intervals[0]
        assert only.anchor == 0
        assert _direction(only) == "outgoing"
        assert only.members == ((0, 2), (0, 3))
        assert only.start_row == lay.y[0]
        assert only.finish_row == lay.y[3]

    def test_tie_break_prefers_lower_vertex_id(self):
        # outdegree(0) and indegree(4) are both 2; the lower id anchors first
        g = DiGraph.build(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4), (0, 3)]
        )
        d = PathDecomposition(((0, 1, 2, 3, 4),))
        intervals, _ = _bundles(g, d)
        assert [(iv.anchor, _direction(iv), iv.members) for iv in intervals] == [
            (0, "outgoing", ((0, 3), (0, 4))),
            (1, "outgoing", ((1, 4),)),
        ]

    def test_no_transitive_edges(self, diamond, diamond_paths):
        intervals, _ = _bundles(diamond, diamond_paths)
        assert intervals == []

    def test_rightmost_path_goes_right_others_left(self):
        g = DiGraph.build(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)]
        )
        d = PathDecomposition(((0, 1, 2), (3, 4, 5)))
        intervals, lay = _bundles(g, d)
        sides = {}
        for iv in intervals:
            lane = {lay.routes[e][1][0] for e in iv.members}
            assert len(lane) == 1
            sides[iv.path_index] = lay.column_meta[lane.pop()]
        assert sides == {0: "bundle-lane-left", 1: "bundle-lane-right"}

    @pytest.mark.parametrize("seed", range(10))
    def test_members_partition_transitive_set(self, seed):
        g = generate_random_dag(40, 3.0, seed)
        d = min_path_cover(g)
        cls = classify_edges(g, d)
        intervals, lay = _bundles(g, d)
        claimed: list = []
        for iv in intervals:
            claimed.extend(iv.members)
            assert all(iv.anchor in e for e in iv.members)
            assert iv.start_row <= iv.finish_row
            rows = [lay.y[v] for e in iv.members for v in e]
            assert iv.start_row == min(rows)
            assert iv.finish_row == max(rows)
        assert len(claimed) == len(set(claimed))
        assert set(claimed) == set(cls.transitive_edges)


class TestPacking:
    def test_disjoint_intervals_share_a_lane(self):
        packing = pack_intervals([_iv(0, 2, anchor=0), _iv(3, 5, anchor=1)])
        assert packing.lane_count == 1

    def test_three_way_overlap_needs_three_lanes(self):
        spans = [(0, 5), (1, 3), (2, 4)]
        packing = pack_intervals([_iv(s, f, anchor=i) for i, (s, f) in enumerate(spans)])
        assert packing.lane_count == 3
        assert max_overlap_depth(spans) == 3

    def test_closed_interval_convention_conflicts_on_shared_row(self):
        spans = [(0, 1), (1, 2)]
        packing = pack_intervals([_iv(s, f, anchor=i) for i, (s, f) in enumerate(spans)])
        assert packing.lane_count == 2
        assert max_overlap_depth(spans) == 2

    def test_lanes_never_share_a_row(self):
        rng = random.Random(4)
        spans = [(s, s + rng.randrange(0, 8)) for s in rng.sample(range(40), 20)]
        packing = pack_intervals([_iv(s, f, anchor=i) for i, (s, f) in enumerate(spans)])
        for lane in packing.lanes:
            ordered = sorted((iv.start_row, iv.finish_row) for iv in lane)
            for (s1, f1), (s2, f2) in zip(ordered, ordered[1:]):
                assert f1 < s2

    @pytest.mark.parametrize("seed", range(20))
    def test_lane_count_is_max_overlap_depth(self, seed):
        rng = random.Random(seed)
        count = rng.randrange(1, 50)
        spans = []
        for _ in range(count):
            s = rng.randrange(0, 60)
            spans.append((s, s + rng.randrange(0, 15)))
        packing = pack_intervals([_iv(s, f, anchor=i) for i, (s, f) in enumerate(spans)])
        assert packing.lane_count == max_overlap_depth(spans)


class TestReorder:
    def test_single_lane_identity(self):
        packing = pack_intervals([_iv(0, 4)])
        assert reorder_lanes(packing) == packing

    def test_improving_swap_is_taken(self):
        wide = _iv(0, 10, anchor=0, members=((0, 9),), spans=((0, 10),))
        narrow = _iv(2, 3, anchor=1, members=((1, 2),), spans=((2, 3),))
        packing = pack_intervals([wide, narrow])
        assert packing.lanes == ((wide,), (narrow,))
        assert stack_crossings_bruteforce(packing.lanes) == 1
        reordered = reorder_lanes(packing)
        assert reordered.lanes == ((narrow,), (wide,))
        assert stack_crossings_bruteforce(reordered.lanes) == 0

    def test_no_improvement_keeps_identity(self):
        a = _iv(0, 5, anchor=0, spans=((0, 5),))
        b = _iv(0, 5, anchor=1, members=((1, 3),), spans=((0, 5),))
        c = _iv(0, 5, anchor=2, members=((2, 4),), spans=((0, 5),))
        packing = LanePacking(((a,), (b,), (c,)))
        assert reorder_lanes(packing).lanes == packing.lanes

    def test_stack_model_matches_geometric_oracle(self):
        # materialize the two-bundle stack by hand: spine at x=10, lanes at 9 and 8
        routes_before = {
            (0, 9): ((10, 0), (9, 0), (9, 10), (10, 10)),
            (1, 2): ((10, 2), (8, 2), (8, 3), (10, 3)),
        }
        routes_after = {
            (0, 9): ((10, 0), (8, 0), (8, 10), (10, 10)),
            (1, 2): ((10, 2), (9, 2), (9, 3), (10, 3)),
        }
        wide = _iv(0, 10, anchor=0, members=((0, 9),), spans=((0, 10),))
        narrow = _iv(2, 3, anchor=1, members=((1, 2),), spans=((2, 3),))
        assert len(crossing_pairs_bruteforce(routes_before)) == stack_crossings_bruteforce(
            ((wide,), (narrow,))
        )
        assert len(crossing_pairs_bruteforce(routes_after)) == stack_crossings_bruteforce(
            ((narrow,), (wide,))
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_and_occupants_preserved(self, seed):
        rng = random.Random(seed)
        intervals = []
        for i in range(rng.randrange(2, 12)):
            s = rng.randrange(0, 20)
            f = s + rng.randrange(1, 10)
            members = tuple(
                sorted((rng.randrange(0, 50), 50 + rng.randrange(0, 50)) for _ in range(rng.randrange(1, 4)))
            )
            spans = tuple(sorted((s + rng.randrange(0, f - s), f) for _ in members))
            intervals.append(_iv(s, f, anchor=i, members=members, spans=spans))
        packing = pack_intervals(intervals)
        reordered = reorder_lanes(packing)
        before = stack_crossings_bruteforce(packing.lanes)
        assert stack_crossings_bruteforce(reordered.lanes) <= before
        assert sorted(id(iv) for lane in reordered.lanes for iv in lane) == sorted(
            id(iv) for lane in packing.lanes for iv in lane
        )


    @pytest.mark.parametrize(
        "k, length, seed", [(20, 200, 1), (20, 200, 2), (20, 200, 3), (4, 40, 0)]
    )
    def test_never_worse_on_the_stacks_draw_reorders(self, k, length, seed, monkeypatch):
        # draw's stacks for 20 chains of 200 hold 7-9 lanes, more than the
        # random stacks above and past the exhaustive search; one 7-lane
        # stack of chains_dag(4, 40, 0) is left with more crossings by an
        # order sorted on pairwise costs
        calls = []

        def recorded(packing):
            reordered = reorder_lanes(packing)
            calls.append((packing.lanes, reordered.lanes))
            return reordered

        monkeypatch.setattr(pathdraw.drawing, "reorder_lanes", recorded)
        draw(*chains_dag(k, length, seed))
        assert len(calls) == k
        assert max(len(before) for before, _ in calls) > _EXHAUSTIVE_LIMIT

        def total(lanes):
            cost = lane_pair_costs(lanes)
            return sum(cost[i][j] for i, j in combinations(range(len(lanes)), 2))

        for before, after in calls:
            assert total(after) <= total(before)


def _random_packing(rng: random.Random) -> LanePacking:
    """Up to 12 lanes of short random bundles; spans may be single rows.

    Half the packings come from ``pack_intervals``; the other half put
    bundles on lanes at random, so intervals in one lane may overlap.
    """
    rows = rng.randrange(2, 16)
    intervals = []
    for i in range(rng.randrange(1, 25)):
        spans = []
        for _ in range(rng.randrange(1, 5)):
            lo = rng.randrange(0, rows)
            spans.append((lo, min(rows, lo + rng.randrange(0, 6))))
        spans.sort()
        members = tuple((i, 100 + j) for j in range(len(spans)))
        start = min(lo for lo, _ in spans)
        finish = max(hi for _, hi in spans)
        intervals.append(_iv(start, finish, anchor=i, members=members, spans=tuple(spans)))
    if rng.random() < 0.5:
        return pack_intervals(intervals)
    lanes: list[list] = [[] for _ in range(rng.randrange(1, 13))]
    for iv in intervals:
        lanes[rng.randrange(len(lanes))].append(iv)
    return LanePacking(tuple(tuple(lane) for lane in lanes if lane))


def _assert_reorder_matches_oracle(packing: LanePacking) -> None:
    cost, order = reorder_lanes_bruteforce(packing.lanes)
    assert lane_pair_costs(packing.lanes) == cost
    assert reorder_lanes(packing).lanes == tuple(packing.lanes[i] for i in order)


class TestLanePairCostsAgainstOracle:
    def test_pair_cost_counts_member_pairs(self):
        nearer = _iv(0, 9, anchor=0, members=((0, 1), (0, 2)), spans=((0, 9), (3, 3)))
        farther = _iv(
            0, 9, anchor=1, members=((1, 2), (1, 3), (1, 4)), spans=((2, 4), (4, 4), (0, 9))
        )
        expected = [
            [0, lane_pair_crossings_bruteforce(nearer, farther)],
            [lane_pair_crossings_bruteforce(farther, nearer), 0],
        ]
        assert expected == [[0, 2], [2, 0]]
        assert lane_pair_costs(((nearer,), (farther,))) == expected

    def test_random_packings(self):
        rng = random.Random(2022)
        sizes = set()
        for _ in range(3000):
            packing = _random_packing(rng)
            sizes.add(packing.lane_count)
            _assert_reorder_matches_oracle(packing)
        # both the exhaustive search and the binary insertion were exercised
        assert min(sizes) == 1 and max(sizes) >= 10

    def test_every_stack_of_a_chains_graph(self):
        g, d = chains_dag(6, 120, seed=5)
        intervals, _ = _bundles(g, d)
        stacks: dict = {}
        for iv in intervals:
            stacks.setdefault(iv.path_index, []).append(iv)
        packings = [pack_intervals(group) for group in stacks.values()]
        assert len(packings) == 6
        assert max(p.lane_count for p in packings) > 6
        for packing in packings:
            _assert_reorder_matches_oracle(packing)


def _assert_packing_matches_first_fit(intervals) -> None:
    # identity, not equality: intervals with equal fields must not trade places
    got = pack_intervals(intervals).lanes
    want = pack_intervals_first_fit(intervals).lanes
    assert [[id(iv) for iv in lane] for lane in got] == [[id(iv) for iv in lane] for lane in want]


class TestPackingAgainstFirstFit:
    def test_equal_start_rows(self):
        rng = random.Random(11)
        for _ in range(50):
            intervals = [
                _iv(rng.randrange(3), rng.randrange(3, 9), anchor=i)
                for i in range(rng.randrange(1, 40))
            ]
            _assert_packing_matches_first_fit(intervals)

    def test_intervals_sharing_exactly_one_row(self):
        # each interval starts on the row where the previous one ends
        chain = [_iv(2 * i, 2 * i + 2, anchor=i) for i in range(30)]
        assert pack_intervals(chain).lane_count == 2
        _assert_packing_matches_first_fit(chain)
        _assert_packing_matches_first_fit(chain[::-1])

    def test_single_row_intervals(self):
        rng = random.Random(12)
        for _ in range(50):
            intervals = []
            for i in range(rng.randrange(1, 60)):
                s = rng.randrange(20)
                f = s if rng.random() < 0.7 else s + rng.randrange(1, 4)
                intervals.append(_iv(s, f, anchor=i))
            _assert_packing_matches_first_fit(intervals)

    @pytest.mark.parametrize("seed", range(10))
    def test_sorted_reversed_and_shuffled_input(self, seed):
        rng = random.Random(seed)
        intervals = []
        for i in range(rng.randrange(10, 120)):
            s = rng.randrange(60)
            intervals.append(_iv(s, s + rng.randrange(0, 25), anchor=i))
        ordered = sorted(intervals, key=lambda iv: (iv.start_row, iv.finish_row))
        for arrangement in (ordered, ordered[::-1], intervals):
            _assert_packing_matches_first_fit(arrangement)

    @pytest.mark.parametrize("lanes", [7, 64, 500])
    def test_deep_stacks(self, lanes):
        # every interval covers the middle row; later ones reuse freed lanes
        rng = random.Random(lanes)
        intervals = [_iv(i, i + lanes, anchor=i) for i in range(lanes)]
        intervals += [
            _iv(s, s + rng.randrange(0, lanes), anchor=lanes + j)
            for j, s in enumerate(rng.choices(range(lanes, 3 * lanes), k=2 * lanes))
        ]
        rng.shuffle(intervals)
        assert pack_intervals(intervals).lane_count >= lanes
        _assert_packing_matches_first_fit(intervals)


class TestBundlesAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_chains_graphs(self, seed):
        g, d = chains_dag(3 + seed, 60, seed)
        cls = classify_edges(g, d)
        rows = draw(g, d).layout.y
        assert transitive_bundles(d, cls, rows) == transitive_bundles_reference(d, cls, rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_non_topological_rows(self, seed):
        # reversed and shuffled rows pin the (min, max) rule of every span
        g, d = chains_dag(3, 50, seed)
        cls = classify_edges(g, d)
        n = g.vertex_count
        shuffled = list(range(n))
        random.Random(seed).shuffle(shuffled)
        for rows in ([n - 1 - v for v in range(n)], shuffled, dict(enumerate(shuffled))):
            got = transitive_bundles(d, cls, rows)
            assert got == transitive_bundles_reference(d, cls, rows)
            assert any(rows[a] > rows[b] for iv in got for a, b in iv.members)

    def test_many_lane_family(self):
        g, d = many_lane_dag(60)
        cls = classify_edges(g, d)
        rows = draw(g, d).layout.y
        got = transitive_bundles(d, cls, rows)
        assert got == transitive_bundles_reference(d, cls, rows)
        assert pack_intervals(got).lane_count == 30


def _large_packing(rng: random.Random, lane_count: int) -> LanePacking:
    """``lane_count`` lanes of random bundles with spans over a few dozen rows."""
    rows = rng.randrange(8, 40)
    lanes = []
    for li in range(lane_count):
        lane = []
        for b in range(rng.randrange(1, 4)):
            spans = []
            for _ in range(rng.randrange(1, 5)):
                lo = rng.randrange(rows)
                spans.append((lo, min(rows, lo + rng.randrange(0, 12))))
            spans.sort()
            anchor = 10 * li + b
            members = tuple((anchor, 1000 + j) for j in range(len(spans)))
            start = min(lo for lo, _ in spans)
            finish = max(hi for _, hi in spans)
            lane.append(_iv(start, finish, anchor=anchor, members=members, spans=tuple(spans)))
        lanes.append(tuple(lane))
    return LanePacking(tuple(lanes))


class TestBinaryInsertionAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_large_stacks(self, seed):
        rng = random.Random(seed)
        for lane_count in (7, 9, 13, 20, 40):
            _assert_reorder_matches_oracle(_large_packing(rng, lane_count))

    @pytest.mark.parametrize("lane_count", [7, 12, 40])
    def test_nested_stack_is_reversed(self, lane_count):
        # nested spans packed widest first: every pair costs one crossing in
        # the packed order and none reversed, so each lane goes nearest
        intervals = [
            _iv(i, 2 * lane_count - i, anchor=i, members=((i, 100 + i),))
            for i in range(lane_count)
        ]
        packing = pack_intervals(intervals)
        assert packing.lanes == tuple((iv,) for iv in intervals)
        inversions = lane_count * (lane_count - 1) // 2
        assert stack_crossings_bruteforce(packing.lanes) == inversions
        reordered = reorder_lanes(packing)
        assert reordered.lanes == packing.lanes[::-1]
        assert stack_crossings_bruteforce(reordered.lanes) == 0
        _assert_reorder_matches_oracle(packing)


def _reordered_stacks(monkeypatch, g, d) -> list[tuple[tuple, tuple]]:
    """(packed lanes, reordered lanes) of every stack ``draw(g, d)`` reorders."""
    calls = []

    def recorded(packing):
        reordered = reorder_lanes(packing)
        calls.append((packing.lanes, reordered.lanes))
        return reordered

    monkeypatch.setattr(pathdraw.drawing, "reorder_lanes", recorded)
    draw(g, d)
    monkeypatch.undo()
    return calls


def _order_total(lanes) -> int:
    """``lane_pair_costs`` summed over the position pairs of a lane order."""
    cost = lane_pair_costs(lanes)
    return sum(cost[i][j] for i, j in combinations(range(len(lanes)), 2))


def _adjacent_stable(lanes) -> bool:
    """No swap of two adjacent lanes lowers the stack's crossings."""
    for a, b in zip(lanes, lanes[1:]):
        cost = lane_pair_costs((a, b))
        if cost[1][0] < cost[0][1]:
            return False
    return True


class TestReorderGuarantees:
    def test_local_minimum_on_the_stacks_draw_reorders(self, monkeypatch):
        graphs = [(20, 200, 1), (20, 200, 2), (20, 200, 3), (4, 40, 0)]
        # stacks the insertion leaves with more crossings than packed
        graphs += [(3, 25, 170), (3, 25, 174), (4, 40, 81)]
        kept = 0
        for args in graphs:
            for before, after in _reordered_stacks(monkeypatch, *chains_dag(*args)):
                assert _adjacent_stable(after), args
                # a packing order that a hill climb would not leave stays
                if len(before) > _EXHAUSTIVE_LIMIT and _adjacent_stable(before):
                    assert after == before, args
                    kept += 1
        assert kept  # one 7-lane stack of chains_dag(3, 25, 174)

    def test_a_stable_many_lane_stack_comes_back_unchanged(self, monkeypatch):
        ((before, after),) = _reordered_stacks(monkeypatch, *many_lane_dag(2000))
        assert len(before) == 1000 and _adjacent_stable(before)
        assert after == before

    def test_local_minimum_on_random_packings(self):
        rng = random.Random(2022)
        seen = 0
        for _ in range(3000):
            packing = _random_packing(rng)
            if packing.lane_count > _EXHAUSTIVE_LIMIT:
                assert _adjacent_stable(reorder_lanes(packing).lanes)
                seen += 1
        assert seen >= 100

    @pytest.mark.parametrize(
        "k, length, seed", [(20, 200, 1), (20, 200, 2), (20, 200, 3), (4, 40, 0)]
    )
    def test_no_more_crossings_than_the_climb(self, k, length, seed, monkeypatch):
        insertion = climb = 0
        for before, after in _reordered_stacks(monkeypatch, *chains_dag(k, length, seed)):
            insertion += _order_total(after)
            climb += _order_total(
                tuple(before[i] for i in reorder_lanes_climb_reference(before))
            )
        assert insertion <= climb

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: nested_span_dag(2000), id="nested-2000"),
            pytest.param(lambda: many_lane_dag(4000), id="many-lane-4000"),
            pytest.param(lambda: chains_dag(20, 200, 1), id="chains-20-200-1"),
        ],
    )
    def test_pair_cost_budget(self, graph, monkeypatch):
        # each lane is compared with at most ceil(log2 L) + 1 placed lanes,
        # two pair costs a comparison, and no lane pair is compared twice
        counted: list[tuple[int, int]] = []
        checked = 0

        def counting(nearer_spans, farther):
            counted.append((id(nearer_spans), id(farther)))
            return crossings(nearer_spans, farther)

        def recorded(packing):
            nonlocal checked
            counted.clear()
            reordered = reorder_lanes(packing)
            lanes = packing.lane_count
            if lanes > _EXHAUSTIVE_LIMIT:
                budget = 2 * lanes * (ceil(log2(lanes)) + 1)
                assert len(counted) <= budget, f"{len(counted)} pair costs for {lanes} lanes"
                assert len(set(counted)) == len(counted)
                checked += 1
            return reordered

        crossings = pathdraw.bundling._crossings
        monkeypatch.setattr(pathdraw.bundling, "_crossings", counting)
        monkeypatch.setattr(pathdraw.drawing, "reorder_lanes", recorded)
        draw(*graph())
        assert checked


_LANE = (_iv(0, 2, anchor=0), _iv(3, 4, anchor=1))
# each record type, its fields in order, values for the fields without a
# default, and the attributes those values imply
_RECORDS = [
    (
        BundleInterval,
        ("path_index", "anchor", "members", "start_row", "finish_row", "member_spans"),
        (1, 4, ((2, 4), (3, 4)), 0, 5),
        {"member_spans": ()},
    ),
    (LanePacking, ("lanes",), ((_LANE, _LANE[:1]),), {"lane_count": 2}),
    (
        BundleRecord,
        ("id", "kind", "anchor_or_target", "lane", "span", "members"),
        (0, "cross", 4, 7, (1, 5), ((1, 4), (2, 4))),
        {},
    ),
]


@pytest.mark.parametrize(
    "cls, fields, values, derived", _RECORDS, ids=[r[0].__name__ for r in _RECORDS]
)
def test_records_are_immutable_named_tuples(cls, fields, values, derived):
    given = dict(zip(fields, values))
    record = cls(**given)
    assert cls._fields == fields
    assert {name: getattr(record, name) for name in given} == given
    assert {name: getattr(record, name) for name in derived} == derived
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert hash(record) == hash(cls(**given))
    assert {record, cls(**given)} == {record}
