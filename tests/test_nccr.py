"""Cohen-Macaulay criterion, modifying/NCCR classification, mutation."""

import random

import pytest
from hypothesis import given, settings

from toricnccr import (
    MismatchedGroup,
    NotMinimal,
    NotNCCR,
    SummandSet,
    is_mcm,
    is_modifying,
    is_nccr,
    minimal_elements,
    mutate_nccr,
    nccr_classes,
    preimage_summands,
    rim_of,
    endomorphism_quiver,
    grading_context,
    translation_classes,
)
from toricnccr.quivers import _arrow_set, _check_degree_coherence, degree_bound
from toricnccr.uppersets import RimStatus
from conftest import (
    EXPECTED_CLASS_COUNTS,
    EXPECTED_VERTEX_COUNTS,
    LADDER,
    build_context,
    count_element_constructions,
    fiber,
    huge_kernel_system,
    kernel_systems,
    ladder_context,
    leq,
    nccr_classes_by_rims,
    preimage_by_fibers,
    rank_one_systems,
    rim_status_by_elements,
    torsion_ladder_context,
)


def degrees(ctx, *free_parts):
    G = ctx.weights.group
    return [G.element(f, (0,) * len(G.torsion)) for f in free_parts]


class TestMCM:
    def test_ring_itself_is_cm(self, ctx):
        assert is_mcm(ctx, ctx.weights.group.zero())

    def test_a1_window(self, a1):
        G = a1.weights.group
        mcm = {g for g in range(-6, 7) if is_mcm(a1, G.element(g))}
        assert mcm == {-1, 0, 1}

    def test_ca4_window(self, ca4):
        G = ca4.weights.group
        mcm = {g for g in range(-10, 11) if is_mcm(ca4, G.element(g))}
        assert mcm == {-6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6}

    def test_foreign_degree_raises(self, z2, z3):
        with pytest.raises(MismatchedGroup):
            is_mcm(z2, z3.weights.group.element(0, (1,)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(torsions=((), (2,), (3,), (4,), (2, 2))))
    def test_codes_match_element_arithmetic(self, ws):
        """``image_code`` is the code of ``q(g)``, and ``is_mcm`` on codes is
        ``not q(g) >= p and not q(g) <= -p`` in element arithmetic."""
        ctx = grading_context(ws)
        span = ctx.max_conductor + 2 * ctx.p.free + 2
        for f in range(-span, span + 1):
            for t in ws.group.torsion_residues():
                g = ws.group.element(f, t)
                h = ctx.q(g)
                assert ctx.image_code(ctx.source_codes.code(g)) == ctx.codes.code(h)
                assert is_mcm(ctx, g) == (not leq(ctx, ctx.p, h) and not leq(ctx, h, -ctx.p))


class TestModifying:
    def test_a1_pairs(self, a1):
        assert is_modifying(a1, degrees(a1, 0, 1))
        assert not is_modifying(a1, degrees(a1, 0, 2))

    def test_singletons_always_modify(self, ctx):
        rng = random.Random(2)
        G = ctx.weights.group
        for _ in range(10):
            g = G.element(rng.randint(-4, 4), tuple(rng.randrange(d) for d in G.torsion))
            assert is_modifying(ctx, [g])

    def test_agrees_with_pairwise_mcm(self, ctx):
        rng = random.Random(f"pairs-{ctx.group}")
        G = ctx.weights.group
        for _ in range(60):
            size = rng.randint(1, 4)
            vs = [
                G.element(rng.randint(-4, 4), tuple(rng.randrange(d) for d in G.torsion))
                for _ in range(size)
            ]
            pairwise = all(is_mcm(ctx, h - g) for g in vs for h in vs)
            assert is_modifying(ctx, vs) == pairwise


class TestNCCR:
    def test_a1_two_summands(self, a1):
        assert is_nccr(a1, degrees(a1, 0, 1))
        assert not is_nccr(a1, degrees(a1, 0))

    def test_z4_eight_summands(self, z4):
        classes = nccr_classes(z4)
        assert len(classes) == 2
        for cls in classes:
            assert len(cls) == 8
            assert is_nccr(z4, cls)

    def test_preimage_must_be_saturated(self, z4):
        full = nccr_classes(z4)[0]
        missing_one = list(full)[:-1]
        assert not is_nccr(z4, missing_one)

    def test_summand_count_is_rim_times_kernel(self, ctx):
        for cls in translation_classes(ctx):
            summ = preimage_summands(ctx, cls.rim)
            assert len(summ) == len(cls.rim) * ctx.q.kernel_order

    def test_expected_class_and_vertex_counts(self, system_key, ctx):
        classes = nccr_classes(ctx)
        assert len(classes) == EXPECTED_CLASS_COUNTS[system_key]
        assert [len(c) for c in classes] == EXPECTED_VERTEX_COUNTS[system_key]

    def test_nccr_implies_modifying(self, ctx):
        for cls in nccr_classes(ctx):
            assert is_modifying(ctx, cls)


def assert_nccr_classes_match_rims(ctx):
    """``nccr_classes`` on codes equals the per-rim route, and equal degrees
    of different classes are one shared element."""
    classes = nccr_classes(ctx)
    assert classes == nccr_classes_by_rims(ctx)
    entries = [g for summands in classes for g in summands]
    assert len({id(g) for g in entries}) == len(set(entries))


class TestNccrClassesOnCodes:
    def test_fixtures(self, ctx):
        assert_nccr_classes_match_rims(ctx)

    @pytest.mark.parametrize("key", sorted(LADDER))
    def test_ladder(self, key):
        assert_nccr_classes_match_rims(ladder_context(key))

    def test_torsion_ladder(self):
        assert_nccr_classes_match_rims(torsion_ladder_context())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=3, torsions=((), (2,), (3,), (4,), (2, 2))))
    def test_random_systems(self, ws):
        assert_nccr_classes_match_rims(grading_context(ws))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_random_kernels(self, ws):
        assert_nccr_classes_match_rims(grading_context(ws))


class TestIWMutation:
    def test_ca4_golden_move(self, ca4):
        V = SummandSet.of(degrees(ca4, 0, 1, 2, 3, 4))
        out, cert = mutate_nccr(ca4, V, ca4.element(1))
        assert [g.free for g in out] == [0, 2, 3, 4, 6]
        assert (cert.plus_steps, cert.minus_steps) == (1, 1)
        assert cert.removed_orbit == ca4.element(1)
        assert [g.free for g in cert.fixed_part] == [0, 2, 3, 4]

    def test_a1_shift_stays_in_class(self, a1):
        V = SummandSet.of(degrees(a1, 0, 1))
        out, _ = mutate_nccr(a1, V, a1.element(0))
        assert [g.free for g in out] == [1, 2]

    def test_not_minimal(self, ca4):
        V = SummandSet.of(degrees(ca4, 0, 1, 2, 3, 4))
        with pytest.raises(NotMinimal):
            mutate_nccr(ca4, V, ca4.element(3))

    def test_not_nccr(self, ca4):
        with pytest.raises(NotNCCR):
            mutate_nccr(ca4, degrees(ca4, 0, 1), ca4.element(0))

    def test_certificate_counts_match_sign_partition(self, ctx):
        V = nccr_classes(ctx)[0]
        m = minimal_elements(ctx, rim_of(ctx, V))[0]
        _, cert = mutate_nccr(ctx, V, m)
        assert cert.plus_steps == ctx.weights.negatives - 1
        assert cert.minus_steps == ctx.weights.positives - 1

    def test_mutation_closes_on_nccrs(self, ctx):
        for V in nccr_classes(ctx):
            rim = rim_of(ctx, V)
            for m in minimal_elements(ctx, rim):
                out, _ = mutate_nccr(ctx, V, m)
                assert is_nccr(ctx, out)


def assert_quotient_matches_elements(ctx, subsets=20, seed=0):
    """The kernel order against the fiber over zero; ``preimage_summands``,
    ``is_nccr``, ``rim_of`` and ``mutate_nccr`` on codes against the fibers
    and rims computed on elements, per class; and
    ``is_modifying``/``is_nccr`` on random degree sets against element
    ``rim_status`` and the union of fibers."""
    q, p = ctx.q, ctx.p
    assert q.kernel_order == len(fiber(q, ctx.group.zero()))
    classes = translation_classes(ctx)
    for cls in classes:
        V = preimage_summands(ctx, cls.rim)
        assert V == preimage_by_fibers(ctx, cls.rim)
        assert len(V) == len(cls.rim) * q.kernel_order
        assert is_nccr(ctx, V) and is_modifying(ctx, V)
        assert rim_of(ctx, V) == cls.rim
        for m in cls.rim:
            minimal = not any(y != m and leq(ctx, y, m) for y in cls.rim)
            if not minimal:
                with pytest.raises(NotMinimal):
                    mutate_nccr(ctx, V, m)
                continue
            out, cert = mutate_nccr(ctx, V, m)
            swapped = [y for y in cls.rim if y != m] + [m + p]
            assert out == preimage_by_fibers(ctx, swapped)
            assert cert.fixed_part == SummandSet.of(g for g in V if q(g) != m)
    rng = random.Random(seed)
    pool = list(preimage_summands(ctx, classes[0].rim))
    pool += [g + k for g in pool[:2] for k in fiber(q, q.target.zero())] + [fiber(q, p)[0]]
    G = ctx.weights.group
    pool += [G.element(rng.randint(-3, 3), [rng.randrange(d) for d in G.torsion]) for _ in range(4)]
    for _ in range(subsets):
        S = rng.sample(pool, rng.randint(1, len(pool)))
        image = {q(g) for g in S}
        status, _ = rim_status_by_elements(ctx, image)
        full = {g for h in image for g in fiber(q, h)}
        assert is_modifying(ctx, S) == (status is not RimStatus.INVALID)
        assert is_nccr(ctx, S) == (status is RimStatus.COMPLETE and set(S) == full)


class TestQuotientOnCodes:
    def test_fixtures(self, ctx):
        assert_quotient_matches_elements(ctx)

    def test_z4_kernel_has_two_elements(self, z4):
        assert z4.q.kernel_order == 2
        for cls in translation_classes(z4):
            for h in cls.rim:
                over = z4.preimage_codes([z4.codes.code(h)])
                assert tuple(map(z4.source_codes.element, over)) == fiber(z4.q, h)

    @pytest.mark.parametrize("key", sorted(LADDER))
    def test_ladder(self, key):
        assert_quotient_matches_elements(ladder_context(key), subsets=5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_random_kernels(self, ws):
        ctx = grading_context(ws)
        assert ctx.q.kernel_order > 1
        assert_quotient_matches_elements(ctx, subsets=10)
        G = ws.group
        for f in range(-2, ctx.p.free + 2):
            for t in G.torsion_residues():
                g = G.element(f, t)
                h = ctx.image_code(ctx.source_codes.code(g))
                assert h == ctx.codes.code(ctx.q(g))
                over = ctx.preimage_codes([h])
                assert tuple(map(ctx.source_codes.element, over)) == fiber(ctx.q, ctx.q(g))


class TestNoElementsInLoops:
    """The arrow search, its degree check, ``is_modifying`` and ``is_nccr``
    run on integers: none of them constructs a group element; nor does the
    context build one per element of the projection's kernel."""

    @pytest.mark.parametrize("key", ["z3", "z4"])
    def test_no_element_is_built(self, key, monkeypatch):
        ws = build_context(key).weights
        V = nccr_classes(build_context(key))[0]
        quiver = endomorphism_quiver(build_context(key), V)
        bound = degree_bound(ws, quiver.vertices)
        ctx = grading_context(ws)  # its quotient tables are built under the count
        built = count_element_constructions(monkeypatch)
        assert _arrow_set(ws, quiver.vertices, bound) == quiver.arrows
        _check_degree_coherence(ws, quiver)
        assert is_modifying(ctx, V) and is_nccr(ctx, V)
        assert not is_nccr(ctx, list(V)[1:])
        assert built == []

    def test_context_cost_is_independent_of_the_kernel(self, monkeypatch):
        systems = [huge_kernel_system(d) for d in (1009, 100003)]
        built = count_element_constructions(monkeypatch)
        counts = []
        for ws in systems:
            built.clear()
            assert grading_context(ws).q.kernel_order == ws.group.torsion[0]
            counts.append(len(built))
        assert counts[0] == counts[1]
