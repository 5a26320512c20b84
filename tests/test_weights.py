"""Weight-system validation: sign partition, error cases, derived context."""

import random

import pytest

from toricnccr import (
    FGGroup,
    GenerationFailure,
    NotGorenstein,
    RankZeroGroup,
    SignCountFailure,
    grading_context,
    validate,
)
from toricnccr.groups import subgroup_is_whole
from conftest import SYSTEM_SPECS, build_context, build_system


def first_leave_one_out_failure(group, raw):
    """Generation oracle: the first weight whose removal leaves a proper
    subgroup, found by one Smith normal form per subfamily, or None."""
    for i0 in range(len(raw)):
        if not subgroup_is_whole(group, raw[:i0] + raw[i0 + 1 :]):
            return i0
    return None


class TestValidate:
    def test_a1_partition(self):
        ws = build_system("a1")
        assert (ws.positives, ws.negatives) == (2, 2)
        assert ws.ring_dimension == 3

    def test_sign_count_failure(self):
        g = FGGroup(1, ())
        with pytest.raises(SignCountFailure) as err:
            validate(g, [g.element(1), g.element(1), g.element(1), g.element(-1)])
        assert (err.value.positives, err.value.negatives) == (3, 1)

    def test_not_gorenstein(self):
        g = FGGroup(1, ())
        with pytest.raises(NotGorenstein):
            validate(g, [g.element(1), g.element(2), g.element(-1), g.element(-1)])

    def test_generation_failure_even_weights(self):
        g = FGGroup(1, ())
        with pytest.raises(GenerationFailure) as err:
            validate(g, [g.element(2), g.element(2), g.element(-2), g.element(-2)])
        assert err.value.index == 0
        assert str(err.value) == "weights without index 0 generate a proper subgroup"

    def test_all_examples_validate(self, system_key):
        ws = build_system(system_key)
        n = len(SYSTEM_SPECS[system_key][2])
        assert len(ws.weights) == n
        assert ws.ring_dimension == n - 1
        assert ws.positives >= 2 and ws.negatives >= 2

    def test_reordering_is_stable(self):
        g = FGGroup(1, (4,))
        raw = [
            g.element(-1, (0,)),
            g.element(0, (2,)),
            g.element(1, (0,)),
            g.element(-1, (1,)),
            g.element(1, (1,)),
        ]
        ws = validate(g, raw)
        assert [w.free_part() for w in ws.weights] == [1, 1, -1, -1, 0]
        # positives in input order, then negatives in input order, then torsion
        assert ws.permutation == (2, 4, 0, 3, 1)
        assert [raw[i] for i in ws.permutation] == list(ws.weights)

    def test_permuted_input_same_weights(self, system_key):
        rank, torsion, vecs = SYSTEM_SPECS[system_key]
        g = FGGroup(rank, torsion)
        ws = build_system(system_key)
        shuffled = [g.from_vector(v) for v in reversed(vecs)]
        ws2 = validate(g, shuffled)
        assert sorted(ws2.weights, key=lambda e: e.key()) == sorted(
            ws.weights, key=lambda e: e.key()
        )

    def test_rank_zero_accepts_appendix_data(self):
        g = FGGroup(0, (2,))
        ws = validate(g, [g.element(0, (1,)), g.element(0, (1,))])
        assert ws.is_finite
        assert ws.ring_dimension == 2

    def test_generation_matches_leave_one_out_oracle(self):
        # zero-sum lists drawn directly, so that generating and non-generating
        # families both occur
        rng = random.Random(10)
        outcomes = set()
        for _ in range(300):
            group = FGGroup(1, rng.choice([(), (2,), (4,), (2, 2), (2, 4), (3, 6)]))
            vecs = [
                [rng.randint(-4, 4)] + [rng.randrange(d) for d in group.torsion]
                for _ in range(rng.randint(3, 5))
            ]
            vecs.append([-sum(col) for col in zip(*vecs)])
            raw = [group.from_vector(v) for v in vecs]
            expected = first_leave_one_out_failure(group, raw)
            try:
                validate(group, raw)
                index = None
            except SignCountFailure:
                continue
            except GenerationFailure as err:
                index = err.index
            assert index == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_rank_zero_rejects_bad_sum_or_span(self):
        g = FGGroup(0, (4,))
        with pytest.raises(NotGorenstein):
            validate(g, [g.element(0, (1,)), g.element(0, (1,))])
        with pytest.raises(GenerationFailure) as err:
            validate(g, [g.element(0, (2,)), g.element(0, (2,))])
        assert err.value.index is None
        assert str(err.value) == "the weights generate a proper subgroup of Z/4"


class TestGradingContext:
    def test_ca4_generators_and_period(self):
        ctx = build_context("ca4")
        assert [g.free_part() for g in ctx.generators] == [2, 3, 2, 3]
        assert ctx.p == ctx.group.element(5)

    def test_z2_period(self):
        ctx = build_context("z2")
        assert ctx.p == ctx.group.element(2, (1,))

    def test_z4_quotient_and_period(self):
        ctx = build_context("z4")
        assert ctx.group == FGGroup(1, (2,))
        assert ctx.p == ctx.group.element(2, (1,))
        assert ctx.q.kernel_order == 2

    def test_period_free_part_is_positive_block_sum(self, ctx):
        ws = ctx.weights
        assert ctx.p.free_part() == sum(
            ctx.q(x).free_part() for x in ws.positive_block()
        )
        total = ctx.group.zero()
        for x in ws.negative_block():
            total = total + -ctx.q(x)
        assert total == ctx.p

    def test_rank_zero_has_no_context(self):
        g = FGGroup(0, (2,))
        ws = validate(g, [g.element(0, (1,)), g.element(0, (1,))])
        with pytest.raises(RankZeroGroup):
            grading_context(ws)
