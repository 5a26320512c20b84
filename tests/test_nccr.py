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
    grading_context,
    translation_classes,
)
from conftest import EXPECTED_CLASS_COUNTS, EXPECTED_VERTEX_COUNTS, build_context, rank_one_systems


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
                assert ctx.image_code(g) == ctx.codes.code(h)
                assert is_mcm(ctx, g) == (not ctx.leq(ctx.p, h) and not ctx.leq(h, -ctx.p))


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
            assert len(summ) == len(cls.rim) * len(ctx.q.kernel)

    def test_expected_class_and_vertex_counts(self, system_key, ctx):
        classes = nccr_classes(ctx)
        assert len(classes) == EXPECTED_CLASS_COUNTS[system_key]
        assert [len(c) for c in classes] == EXPECTED_VERTEX_COUNTS[system_key]

    def test_nccr_implies_modifying(self, ctx):
        for cls in nccr_classes(ctx):
            assert is_modifying(ctx, cls)


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
