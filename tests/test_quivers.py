"""Quiver extraction: golden quivers, irreducibility, McKay, DOT output."""

import contextlib
import io
import json
import random
import time
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricnccr import (
    BoundTooSmall,
    FGGroup,
    InfiniteGroup,
    InputError,
    MismatchedGroup,
    Rim,
    SearchBudgetExceeded,
    SummandSet,
    WeightSystem,
    emit_dot,
    endomorphism_quiver,
    grading_context,
    mckay_quiver,
    monomial_label,
    nccr_classes,
    preimage_summands,
    validate,
)
from toricnccr.groups import GroupElement
from toricnccr.cli import main
from toricnccr.quivers import QUIVER_WORK_CAP, Arrow, _arrow_set, degree_bound
from toricnccr.uppersets import _classes
from conftest import (
    arrow_set_without_dead_coordinates,
    build_class_quiver,
    ladder_context,
    rank_one_systems,
)


def quiver_of_class(key, k, bound=None):
    return build_class_quiver(key, k, bound)


@st.composite
def finite_systems(draw):
    """Valid finite systems: 2-5 weights over Z/2, Z/3, Z/4, Z/6, Z/2+Z/2 or
    Z/2+Z/4; the last weight completes the zero sum."""
    torsion = draw(st.sampled_from([(2,), (3,), (4,), (6,), (2, 2), (2, 4)]))
    weight = st.tuples(*(st.integers(0, d - 1) for d in torsion))
    vecs = draw(st.lists(weight, min_size=1, max_size=4))
    vecs.append(tuple(-sum(col) for col in zip(*vecs)))
    group = FGGroup(0, torsion)
    try:
        return validate(group, [group.element(0, v) for v in vecs])
    except InputError:
        assume(False)


def mckay_arrows_by_units(ws, vertices):
    """Oracle for ``mckay_quiver``: one arrow per (element, weight), from
    ``g`` to ``g + w_i``, labeled by the unit vector ``e_i``."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(ws.weights)
    arrows = [
        Arrow(s, index[g + x], tuple(int(j == i) for j in range(n)))
        for s, g in enumerate(vertices)
        for i, x in enumerate(ws.weights)
    ]
    return tuple(sorted(arrows, key=lambda a: (a.source, a.target, a.exponents)))


def loop_labels(q):
    return sorted((str(q.vertices[a.source]), monomial_label(a.exponents)) for a in q.loops())


class TestGoldenQuivers:
    def test_a1(self, a1):
        q = quiver_of_class("a1", 0)
        assert len(q.vertices) == 2 and len(q.arrows) == 4
        assert not q.loops()
        moves = {(a.source, a.target, monomial_label(a.exponents)) for a in q.arrows}
        assert moves == {(0, 1, "x1"), (0, 1, "x2"), (1, 0, "x3"), (1, 0, "x4")}

    def test_ca4_first_class(self, ca4):
        q = quiver_of_class("ca4", 0)
        assert len(q.vertices) == 5 and len(q.arrows) == 11
        assert loop_labels(q) == [("(2)", "x2*x4")]

    def test_ca4_second_class(self, ca4):
        q = quiver_of_class("ca4", 1)
        assert len(q.vertices) == 5 and len(q.arrows) == 13
        assert loop_labels(q) == [("(2)", "x2*x4"), ("(3)", "x1*x3"), ("(4)", "x2*x4")]

    def test_z2_classes(self, z2):
        first = quiver_of_class("z2", 0)
        assert (len(first.vertices), len(first.arrows)) == (4, 8)
        assert not first.loops()
        second = quiver_of_class("z2", 1)
        assert (len(second.vertices), len(second.arrows)) == (4, 10)
        assert loop_labels(second) == [("(1;0)", "x2*x4"), ("(1;1)", "x1*x3")]

    def test_z3_classes(self, z3):
        counts = []
        for k in range(3):
            q = quiver_of_class("z3", k)
            counts.append((len(q.vertices), len(q.arrows), len(q.loops())))
        assert counts == [(6, 12, 0), (6, 16, 0), (6, 16, 0)]

    def test_z3_double_arrows(self, z3):
        # the second class carries parallel composite arrows between the
        # torsion-shifted vertices
        q = quiver_of_class("z3", 1)
        labels = sorted(
            monomial_label(a.exponents)
            for a in q.arrows
            if (str(q.vertices[a.source]), str(q.vertices[a.target])) == ("(1;1)", "(1;2)")
        )
        assert labels == ["x1*x3", "x2*x3"]

    def test_z4_classes(self, z4):
        first = quiver_of_class("z4", 0)
        assert (len(first.vertices), len(first.arrows)) == (8, 24)
        assert not first.loops()
        second = quiver_of_class("z4", 1)
        assert (len(second.vertices), len(second.arrows)) == (8, 28)
        assert loop_labels(second) == [("(1;1)", "x1*x3"), ("(1;3)", "x1*x3")]


class TestQuiverInvariants:
    def test_degree_coherence_recheck(self, system_key, ctx):
        for k in range(len(nccr_classes(ctx))):
            q = quiver_of_class(system_key, k)
            ws = ctx.weights
            for a in q.arrows:
                total = ws.group.zero()
                for e, x in zip(a.exponents, ws.weights):
                    total = total + e * x
                assert total == q.vertices[a.target] - q.vertices[a.source]

    def test_twist_invariance(self, ctx):
        rng = random.Random(f"twist-{ctx.group}")
        G = ctx.weights.group
        V = nccr_classes(ctx)[0]
        base = endomorphism_quiver(ctx, V)
        for _ in range(3):
            g0 = G.element(rng.randint(-3, 3), tuple(rng.randrange(d) for d in G.torsion))
            twisted = endomorphism_quiver(ctx, [g + g0 for g in V])
            assert twisted.arrows == base.arrows  # indices relabel identically

    def test_no_arrow_factors_through_vertices(self, system_key, ctx):
        for k in range(len(nccr_classes(ctx))):
            q = quiver_of_class(system_key, k)
            vertex_set = set(q.vertices)
            ws = ctx.weights
            for a in q.arrows:
                src = q.vertices[a.source]
                subs = _proper_subvectors(a.exponents)
                for b in subs:
                    mid = src
                    for e, x in zip(b, ws.weights):
                        mid = mid + e * x
                    assert mid not in vertex_set

    def test_arrows_generate_bounded_homs(self, system_key, ctx):
        # every monomial between two vertex degrees of small total degree
        # factors as a path through the vertex set along quiver arrows
        bound = 4
        for k in range(1):
            q = quiver_of_class(system_key, k)
            paths = _path_factorable(ctx.weights, q, bound)
            for s, src in enumerate(q.vertices):
                for vec, target in _bounded_monomials(ctx.weights, src, set(q.vertices), bound):
                    assert (s, vec) in paths, (src, vec, target)


def _proper_subvectors(exponents):
    out = []

    def rec(i, cur):
        if i == len(exponents):
            if any(cur) and tuple(cur) != exponents:
                out.append(tuple(cur))
            return
        for c in range(exponents[i] + 1):
            rec(i + 1, cur + [c])

    rec(0, [])
    return out


def _bounded_monomials(ws, src, vertex_set, bound):
    n = len(ws.weights)
    found = []

    def rec(i, used, acc, vec):
        if i == n:
            if any(vec) and acc in vertex_set:
                found.append((tuple(vec), acc))
            return
        cur = acc
        for c in range(bound - used + 1):
            if c:
                cur = cur + ws.weights[i]
            rec(i + 1, used + c, cur, vec + [c])

    rec(0, 0, src, [])
    return found


def _path_factorable(ws, quiver, bound):
    # breadth over (current vertex, accumulated exponent vector) from each
    # start vertex: the accumulated vectors are exactly the monomials that
    # factor as arrow paths
    arrows_from = {}
    for a in quiver.arrows:
        arrows_from.setdefault(a.source, []).append(a)
    zero = (0,) * len(ws.weights)
    per_start = set()
    for s in range(len(quiver.vertices)):
        seen = {(s, zero)}
        stack = [(s, zero)]
        while stack:
            v, vec = stack.pop()
            per_start.add((s, vec))
            for a in arrows_from.get(v, ()):
                if sum(vec) + sum(a.exponents) > bound:
                    continue
                nxt = (a.target, tuple(x + e for x, e in zip(vec, a.exponents)))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return per_start


def arrow_set_by_filter(ws, vertices, bound):
    """The arrow search without prunes, kept as a test oracle: depth first over
    exponent vectors of total degree <= bound, cutting a branch only when the
    whole vector lands on a vertex, then dropping every hit that dominates
    another hit componentwise."""
    dims = (0,) + ws.group.torsion  # free coordinate has no modulus
    weights_raw = [w.key() for w in ws.weights]
    vertex_index = {v.key(): i for i, v in enumerate(vertices)}
    n = len(weights_raw)
    arrows = []
    for s, src in enumerate(vertices):
        hits = []
        vec = [0] * n

        def explore(i, used, acc):
            if i == n:
                return
            explore(i + 1, used, acc)
            w = weights_raw[i]
            c = 0
            cur = acc
            while used + c + 1 <= bound:
                c += 1
                cur = tuple((a + b) % d if d else a + b for a, b, d in zip(cur, w, dims))
                vec[i] = c
                if cur in vertex_index:
                    hits.append((tuple(vec), cur))
                    break
                explore(i + 1, used + c, cur)
            vec[i] = 0

        explore(0, 0, src.key())
        for a, target in hits:
            if not any(b != a and all(x <= y for x, y in zip(b, a)) for b, _ in hits):
                arrows.append(Arrow(s, vertex_index[target], a))
    return tuple(sorted(arrows, key=lambda a: (a.source, a.target, a.exponents)))


def assert_matches_doubled_bound(ctx, summands):
    """The test oracles for the pruned search and the proven bound: the arrows
    equal the unpruned search's at that bound, searching to twice it finds no
    further arrow, no arrow exceeds it, and no arrow has a proper nonzero
    sub-vector that lands on a vertex."""
    ws = ctx.weights
    q = endomorphism_quiver(ctx, summands)
    bound = degree_bound(ws, q.vertices)
    assert q.arrows == arrow_set_by_filter(ws, q.vertices, bound)
    assert q.arrows == _arrow_set(ws, q.vertices, 2 * bound)
    vertex_set = set(q.vertices)
    for a in q.arrows:
        assert sum(a.exponents) <= bound
        src = q.vertices[a.source]
        for b in _proper_subvectors(a.exponents):
            assert sum((e * x for e, x in zip(b, ws.weights)), src) not in vertex_set
    return q


class TestDegreeBound:
    def test_formula(self, z4):
        # span 1 over the vertices, M = 1, |T| = 4
        G = z4.weights.group
        assert degree_bound(z4.weights, [G.element(0, (0,)), G.element(1, (3,))]) == 12
        w6 = ladder_context("w6")
        assert degree_bound(w6.weights, nccr_classes(w6)[0]) == 11  # span 5, M = 3
        assert degree_bound(w6.weights, []) == 6  # no vertices: span 0

    def test_doubled_bound_oracle_fixtures(self, ctx):
        for V in nccr_classes(ctx):
            assert_matches_doubled_bound(ctx, V)

    @pytest.mark.parametrize("key", ["w2357", "w3535", "w6"])
    def test_doubled_bound_oracle_ladder(self, key):
        ctx = ladder_context(key)
        assert_matches_doubled_bound(ctx, nccr_classes(ctx)[0])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=2))
    def test_doubled_bound_oracle_random(self, ws):
        # the unpruned oracle grows steeply with the bound (about 1.6 s for a
        # six-weight Z/3 system at 24), so the cap keeps the test near 9 s
        ctx = grading_context(ws)
        V = nccr_classes(ctx)[0]
        assume(degree_bound(ws, V) <= 24)
        assert_matches_doubled_bound(ctx, V)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=3, torsions=((), (2,), (3,), (4,))), st.data())
    def test_prunes_match_unpruned_search_random(self, ws, data):
        # both searches return exactly the minimal hits of total degree <= the
        # bound given, so they are compared at most at 12, where the unpruned
        # one stays cheap (Z/4 draws have proven bounds far above it); a proper
        # subset of a class moves the vertex free-part interval the free-range
        # cut aims at
        ctx = grading_context(ws)
        V = sorted(data.draw(st.sampled_from(nccr_classes(ctx))), key=GroupElement.key)
        subset = data.draw(st.lists(st.sampled_from(V), min_size=1, unique=True))
        order = data.draw(st.permutations(ws.weights))  # the prunes assume no order
        ws = WeightSystem(ws.group, tuple(order), ws.positives, ws.negatives, ws.permutation)
        for vertices in (V, sorted(subset, key=GroupElement.key)):
            bound = min(degree_bound(ws, vertices), 12)
            assert _arrow_set(ws, vertices, bound) == arrow_set_by_filter(ws, vertices, bound)

    def test_weight_order_positive_before_negatives(self):
        # validate sorts positives first; in the order below x5 is the last
        # positive weight, so the free-range cut after raising it must use
        # the reach of x5 itself (hi = 1), not that of the weights after it
        # (hi = 0), or x1*x5^4 from (1) to (0) is lost
        G = FGGroup(1, ())
        ws = validate(G, [G.element(w) for w in (3, 1, 1, 1, -5, -1)])
        weights = tuple(G.element(w) for w in (-5, 3, 1, 1, 1, -1))
        ws = WeightSystem(G, weights, ws.positives, ws.negatives, ws.permutation)
        V = [G.element(0), G.element(1)]
        for bound in range(1, degree_bound(ws, V) + 1):
            assert _arrow_set(ws, V, bound) == arrow_set_by_filter(ws, V, bound)
        assert Arrow(1, 0, (1, 0, 0, 0, 4, 0)) in _arrow_set(ws, V, degree_bound(ws, V))

    def test_torsion_six_weights_at_bound_33(self):
        # Z + Z/3, class 0: every arrow has total degree 1, yet the proven
        # bound is 33; the unpruned search took about 10 s here
        G = FGGroup(1, (3,))
        vecs = ([3, 0], [1, 0], [2, 2], [-3, 2], [-3, 2], [0, 0])
        ctx = grading_context(validate(G, [G.from_vector(v) for v in vecs]))
        start = time.perf_counter()
        q = endomorphism_quiver(ctx, nccr_classes(ctx)[0])
        assert time.perf_counter() - start < 2
        assert degree_bound(ctx.weights, q.vertices) == 33
        assert (len(q.vertices), len(q.arrows)) == (18, 72)
        assert {sum(a.exponents) for a in q.arrows} == {1}

    def test_single_vertex_has_loops_only(self, ca4):
        q = assert_matches_doubled_bound(ca4, [ca4.weights.group.element(0)])
        assert q.arrows and all(a.is_loop() for a in q.arrows)
        assert sorted(monomial_label(a.exponents) for a in q.arrows) == [
            "x1*x3",
            "x1^3*x4^2",
            "x2*x4",
            "x2^2*x3^3",
        ]

    def test_bound_is_attained(self):
        # over Z + Z/4 the loop x1^4*x3^4 at a single vertex has total degree
        # (0 + 2·1)·4: no proper sub-vector has degree 0
        G = FGGroup(1, (4,))
        ws = validate(G, [G.from_vector(v) for v in ([1, 1], [1, 0], [-1, 0], [-1, 3])])
        ctx = grading_context(ws)
        q = assert_matches_doubled_bound(ctx, [G.zero()])
        assert degree_bound(ws, q.vertices) == 8
        assert sorted(monomial_label(a.exponents) for a in q.arrows) == [
            "x1*x4",
            "x1^4*x3^4",
            "x2*x3",
            "x2^4*x4^4",
        ]


class TestDeadCoordinates:
    # classes 0, 1, 100, 2000 and 5682 of the 5,683-class Z + Z/3 system and
    # all 10 classes of a Z + Z/12 system whose projection has a kernel of
    # order 4, with their vertex and arrow counts; the search without dead
    # coordinates took 107 s on these
    SLOW_QUIVERS = [
        ((3,), [(5, 2), (5, 2), (3, 1), (-7, 2), (-6, 2)], 5683, (0, 1, 100, 2000, 5682), 39,
         (117, 121, 119, 125, 141)),
        ((12,), [(2, 0), (1, 1), (-2, 0), (-1, 11), (0, 3), (0, 9)], 10, range(10), 36,
         (156, 156, 164, 156, 164, 156, 164, 164, 164, 172)),
    ]

    def test_quivers_slow_without_dead_coordinates(self):
        elapsed = 0.0
        for torsion, vecs, class_count, picks, vertex_count, arrow_counts in self.SLOW_QUIVERS:
            G = FGGroup(1, torsion)
            ws = validate(G, [G.from_vector(v) for v in vecs])
            ctx = grading_context(ws)
            classes = _classes(ctx)
            assert len(classes) == class_count
            for k, arrow_count in zip(picks, arrow_counts):
                rim = Rim(tuple(map(ctx.codes.element, classes[k][0])))
                V = tuple(sorted(set(preimage_summands(ctx, rim)), key=GroupElement.key))
                bound = degree_bound(ws, V)
                start = time.perf_counter()
                arrows = _arrow_set(ws, V, bound)
                elapsed += time.perf_counter() - start
                assert (len(V), len(arrows)) == (vertex_count, arrow_count)
                assert arrows == _arrow_set(ws, V, 2 * bound)
                vertex_set = set(V)
                for a in arrows:
                    for b in _proper_subvectors(a.exponents):
                        mid = sum((e * x for e, x in zip(b, ws.weights)), V[a.source])
                        assert mid not in vertex_set
        assert elapsed < 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=3, torsions=((), (2,), (3,), (4,), (2, 2))), st.data())
    def test_matches_the_search_without_them_random(self, ws, data):
        # at the proven bound and at a cap below it, on a class or a subset
        # of it, with the weights shuffled
        ctx = grading_context(ws)
        V = sorted(data.draw(st.sampled_from(nccr_classes(ctx))), key=GroupElement.key)
        subset = data.draw(st.lists(st.sampled_from(V), min_size=1, unique=True))
        order = data.draw(st.permutations(ws.weights))
        ws = WeightSystem(ws.group, tuple(order), ws.positives, ws.negatives, ws.permutation)
        for vertices in (V, sorted(subset, key=GroupElement.key)):
            proven = degree_bound(ws, vertices)
            for bound in (proven, data.draw(st.integers(1, proven - 1))):
                expected = arrow_set_without_dead_coordinates(ws, vertices, bound)
                assert _arrow_set(ws, vertices, bound) == expected


class TestForeignDegrees:
    def test_degree_of_another_group_raises(self, ca4, z2):
        # raw keys of different lengths would zip short and match nothing
        with pytest.raises(MismatchedGroup):
            endomorphism_quiver(ca4, nccr_classes(z2)[0])


class TestStabilization:
    def test_small_bound_warns(self, ca4):
        with pytest.warns(BoundTooSmall):
            quiver_of_class("ca4", 0, bound=1)

    def test_default_bound_is_stable(self, system_key, ctx):
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundTooSmall)
            for k in range(len(nccr_classes(ctx))):
                quiver_of_class(system_key, k)


def torsion_line(d):
    """Z + Z/d with (1;0), (1;1), (-1;0), (-1;-1): the proven bound of the
    quiver of (0;0), (1;0) is 3d."""
    group = FGGroup(1, (d,))
    return validate(group, [group.from_vector(v) for v in [(1, 0), (1, 1), (-1, 0), (-1, -1)]])


class TestSearchBudget:
    """bound x vertices x |T| over ``QUIVER_WORK_CAP`` is refused up front."""

    def test_huge_torsion_exits_2_fast(self, tmp_path):
        path = tmp_path / "z100003.json"
        path.write_text(json.dumps({"group": {"free_rank": 1, "torsion": [100003]},
                                    "weights": [[1, 0], [1, 1], [-1, 0], [-1, -1]]}))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["quiver", str(path), "--degrees", "(0;0) (1;0)"])
        assert time.perf_counter() - start < 1
        assert code == 2
        error = json.loads(out.getvalue())["error"]
        assert error["type"] == "SearchBudgetExceeded"
        for size in (300009, 2, 100003, QUIVER_WORK_CAP):
            assert f" {size}" in error["detail"]

    def test_the_cap_reads_the_bound_searched(self):
        ctx = grading_context(torsion_line(100003))
        G = ctx.weights.group
        vertices = [G.element(0, (0,)), G.element(1, (0,))]
        with pytest.raises(SearchBudgetExceeded, match=r"= 300009 x 2 x 100003 = 60003600054,"):
            endomorphism_quiver(ctx, vertices)
        with pytest.warns(BoundTooSmall):  # 1 x 2 x 100003 is under the cap
            quiver = endomorphism_quiver(ctx, vertices, 1)
        assert len(quiver.arrows) == 2

    def test_cap_admits_d_211_and_refuses_d_307(self):
        # the sizes timed beside QUIVER_WORK_CAP: about 3 s and 7.6 s whole process
        for d, admitted in ((211, True), (307, False)):
            ws = torsion_line(d)
            vertices = (ws.group.element(0, (0,)), ws.group.element(1, (0,)))
            assert degree_bound(ws, vertices) == 3 * d
            assert (3 * d * 2 * d <= QUIVER_WORK_CAP) == admitted

    def test_mckay_stays_outside(self):
        # all of G, bound 1: bound x vertices x |T| would be 1000 x 1000, but
        # the search is one step deep, so McKay counts |G| x weights = 3000
        G = FGGroup(0, (1000,))
        q = mckay_quiver(validate(G, [G.element(0, (1,)), G.element(0, (1,)), G.element(0, (998,))]))
        assert (len(q.vertices), len(q.arrows)) == (1000, 3000)

    def test_mckay_is_linear_in_the_group(self):
        # the vertex free range is taken once, not once per source vertex
        G = FGGroup(0, (10 ** 4,))
        start = time.perf_counter()
        q = mckay_quiver(validate(G, [G.element(0, (1,)), G.element(0, (-1,))]))
        assert time.perf_counter() - start < 1.5
        assert (len(q.vertices), len(q.arrows)) == (10 ** 4, 2 * 10 ** 4)

    @pytest.mark.parametrize("order", [10 ** 6, QUIVER_WORK_CAP // 2 + 1])
    def test_mckay_over_the_cap_is_refused_fast(self, order):
        # with two weights, Z/2^18 sits at the cap and is admitted; one more element is not
        G = FGGroup(0, (order,))
        start = time.perf_counter()
        message = rf"= {order} x 2 = {2 * order} arrows, over the cap of {QUIVER_WORK_CAP}$"
        with pytest.raises(SearchBudgetExceeded, match=message):
            mckay_quiver(validate(G, [G.element(0, (1,)), G.element(0, (-1,))]))
        assert time.perf_counter() - start < 1


class TestMcKay:
    def test_z2_double_cover(self):
        g = FGGroup(0, (2,))
        ws = validate(g, [g.element(0, (1,)), g.element(0, (1,))])
        q = mckay_quiver(ws)
        assert (len(q.vertices), len(q.arrows)) == (2, 4)

    def test_z3_cover(self):
        g = FGGroup(0, (3,))
        ws = validate(g, [g.element(0, (1,))] * 3)
        q = mckay_quiver(ws)
        assert (len(q.vertices), len(q.arrows)) == (3, 9)

    def test_trivial_group_single_loop(self):
        g = FGGroup(0, ())
        ws = validate(g, [g.element(0, ())])
        q = mckay_quiver(ws)
        assert (len(q.vertices), len(q.arrows)) == (1, 1)
        assert q.arrows[0].is_loop()

    def test_infinite_group_rejected(self, a1):
        with pytest.raises(InfiniteGroup):
            mckay_quiver(a1.weights)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(finite_systems())
    def test_random_finite_systems(self, ws):
        q = mckay_quiver(ws)
        assert q.vertices == tuple(sorted(ws.group.elements(), key=GroupElement.key))
        assert q.arrows == _arrow_set(ws, q.vertices, 1) == _arrow_set(ws, q.vertices, 3)
        assert q.arrows == mckay_arrows_by_units(ws, q.vertices)


class TestDot:
    def test_a1_exact_text(self, a1):
        q = quiver_of_class("a1", 0)
        assert emit_dot(q) == (
            "digraph quiver {\n"
            '  "(0)";\n'
            '  "(1)";\n'
            '  "(0)" -> "(1)" [label="x2"];\n'
            '  "(0)" -> "(1)" [label="x1"];\n'
            '  "(1)" -> "(0)" [label="x4"];\n'
            '  "(1)" -> "(0)" [label="x3"];\n'
            "}\n"
        )

    def test_deterministic(self, ca4):
        assert emit_dot(quiver_of_class("ca4", 1)) == emit_dot(quiver_of_class("ca4", 1))

    def test_labels(self):
        assert monomial_label((0, 1, 0, 1)) == "x2*x4"
        assert monomial_label((2, 0, 1, 0)) == "x1^2*x3"
        assert monomial_label((0, 0, 0, 0)) == "1"

    def test_empty_quiver_is_valid_digraph(self):
        from toricnccr import Quiver

        assert emit_dot(Quiver((), ())) == "digraph quiver {\n}\n"
