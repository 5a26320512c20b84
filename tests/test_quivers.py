"""Quiver extraction: golden quivers, irreducibility, McKay, DOT output."""

import random
import warnings

import pytest
from hypothesis import assume, given, settings

from toricnccr import (
    BoundTooSmall,
    FGGroup,
    InfiniteGroup,
    SummandSet,
    emit_dot,
    endomorphism_quiver,
    grading_context,
    hom_monomial_count,
    mckay_quiver,
    monomial_label,
    nccr_classes,
    validate,
)
from toricnccr.quivers import _arrow_set, degree_bound
from conftest import build_class_quiver, ladder_context, rank_one_systems


def quiver_of_class(key, k, bound=None):
    return build_class_quiver(key, k, bound)


def loop_labels(q):
    return sorted((str(q.vertices[a.source]), monomial_label(a.exponents)) for a in q.loops())


class TestHomMonomialCount:
    def test_degree_zero_monomials(self, a1):
        ws = a1.weights
        zero = ws.group.zero()
        assert hom_monomial_count(ws, zero, zero, 2) == 5  # 1, xz, xw, yz, yw
        assert hom_monomial_count(ws, zero, zero, 0) == 1

    def test_degree_one_monomials(self, a1):
        ws = a1.weights
        assert hom_monomial_count(ws, ws.group.zero(), ws.group.element(1), 1) == 2


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


def assert_matches_doubled_bound(ctx, summands):
    """The test oracle for the proven bound: searching to twice it finds no
    further arrow, no arrow exceeds it, and no arrow has a proper nonzero
    sub-vector that lands on a vertex."""
    ws = ctx.weights
    q = endomorphism_quiver(ctx, summands)
    bound = degree_bound(ws, q.vertices)
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
        # the oracle's search grows steeply with the bound (about 0.4 s at 9,
        # 20 s at 18 for six weights), so only cheap systems are kept
        ctx = grading_context(ws)
        V = nccr_classes(ctx)[0]
        assume(degree_bound(ws, V) <= 9)
        assert_matches_doubled_bound(ctx, V)

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


class TestStabilization:
    def test_small_bound_warns(self, ca4):
        with pytest.warns(BoundTooSmall):
            quiver_of_class("ca4", 0, bound=1)

    def test_default_bound_is_stable(self, system_key, ctx):
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundTooSmall)
            for k in range(len(nccr_classes(ctx))):
                quiver_of_class(system_key, k)


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
