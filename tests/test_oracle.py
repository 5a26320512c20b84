"""Sign-pattern witnesses, the face complex, exact homology, crosschecks."""

import random
from itertools import combinations

import pytest

import toricnccr.nccr
from toricnccr import (
    CONTRACTIBLE,
    EMPTY,
    OracleMismatch,
    SimplicialComplex,
    betti_numbers,
    classify_sign_vector,
    crosscheck_mcm,
    face_test,
    local_cohomology_window,
    sign_pattern_witness,
    sphere,
    sufficient_window,
    support_complex,
)
from conftest import build_context, build_system


def weighted_sum(ws, a):
    total = ws.group.zero()
    for c, x in zip(a, ws.weights):
        total = total + c * x
    return total


class TestSignPatternWitness:
    def test_a1_pattern_six(self, a1):
        ws = a1.weights
        g = ws.group.element(2)
        assert sign_pattern_witness(ws, g, 12) == (0, 0, -1, -1)

    def test_a1_no_witness(self, a1):
        ws = a1.weights
        assert sign_pattern_witness(ws, ws.group.element(1), 12) is None
        assert sign_pattern_witness(ws, ws.group.element(0), 12) is None

    def test_a1_pattern_seven(self, a1):
        ws = a1.weights
        assert sign_pattern_witness(ws, ws.group.element(-2), 12) == (-1, -1, 0, 0)

    def test_witness_shape_and_sum(self, ctx):
        ws = ctx.weights
        G = ws.group
        l, lp, n = ws.positives, ws.negatives, len(ws.weights)
        rng = random.Random(f"witness-{ctx.group}")
        for _ in range(40):
            g = G.element(rng.randint(-12, 12), tuple(rng.randrange(d) for d in G.torsion))
            a = sign_pattern_witness(ws, g, 16)
            if a is None:
                continue
            assert weighted_sum(ws, a) == g
            nonneg = [i for i in range(n) if a[i] >= 0]
            pattern6 = set(nonneg) == set(range(l))
            pattern7 = set(nonneg) == set(range(l, l + lp))
            assert pattern6 or pattern7
            assert all(abs(c) <= 16 for c in a)


class TestCrosscheck:
    def test_a1_small_window(self, a1):
        degrees = [a1.weights.group.element(f) for f in range(-10, 11)]
        report = crosscheck_mcm(a1, degrees, 12)
        assert report.checked == 21
        assert report.agreements == 21
        assert report.summary() == "agree: 21/21, mismatches: 0"

    def test_all_examples_wide_window(self, ctx):
        G = ctx.weights.group
        degrees = [
            G.element(f, t) for f in range(-20, 21) for t in G.torsion_residues()
        ]
        report = crosscheck_mcm(ctx, degrees, 24)
        assert report.agreements == report.checked
        assert not report.mismatches

    def test_window_sufficiency_enforced(self, ca4):
        degrees = [ca4.weights.group.element(f) for f in range(-20, 21)]
        assert sufficient_window(ca4, degrees) <= 24
        with pytest.raises(ValueError):
            crosscheck_mcm(ca4, degrees, 1)

    def test_empty_degree_list(self, ctx):
        report = crosscheck_mcm(ctx, [], sufficient_window(ctx, []))
        assert (report.checked, report.agreements, report.mismatches) == (0, 0, ())
        assert report.summary() == "agree: 0/0, mismatches: 0"

    def test_mismatch_raises(self, a1, monkeypatch):
        monkeypatch.setattr(toricnccr.nccr, "is_mcm", lambda ctx, g: True)
        degrees = [a1.weights.group.element(f) for f in range(-6, 7)]
        with pytest.raises(OracleMismatch) as err:
            crosscheck_mcm(a1, degrees, 12)
        assert err.value.report.mismatches


class TestFaceTest:
    def test_everything_is_a_face_of_itself(self, ctx):
        n = len(ctx.weights.weights)
        assert face_test(ctx.weights, range(n))

    def test_a1_positive_pair_is_not_a_face(self, a1):
        assert not face_test(a1.weights, [0, 1])
        assert face_test(a1.weights, [0, 2])

    def test_z4_all_but_torsion_is_a_face(self, z4):
        assert face_test(z4.weights, [0, 1, 2, 3])

    def test_empty_set_is_a_face(self, ctx):
        assert face_test(ctx.weights, [])


class TestClassifySignVector:
    def test_seven_cases_on_z4(self, z4):
        ws = z4.weights
        assert classify_sign_vector(ws, (0, 0, -1, -1, 0)) == CONTRACTIBLE  # torsion >= 0
        assert classify_sign_vector(ws, (0, -1, -1, -1, -1)) == CONTRACTIBLE  # mixed pos
        assert classify_sign_vector(ws, (0, 0, 0, -1, -1)) == CONTRACTIBLE  # mixed neg
        assert classify_sign_vector(ws, (-1, -2, -1, -3, -1)) == EMPTY
        assert classify_sign_vector(ws, (0, 1, 2, 0, -1)) == CONTRACTIBLE  # both blocks
        assert classify_sign_vector(ws, (0, 0, -1, -1, -1)) == sphere(0)
        assert classify_sign_vector(ws, (-1, -1, 0, 0, -1)) == sphere(0)

    def test_a1_sphere(self, a1):
        assert classify_sign_vector(a1.weights, (0, 0, -1, -1)) == sphere(0)
        assert classify_sign_vector(a1.weights, (-2, -1, -1, -1)) == EMPTY

    def test_never_errors_on_random_vectors(self, ctx):
        rng = random.Random(f"exhaustive-{ctx.group}")
        n = len(ctx.weights.weights)
        for _ in range(2000):
            a = tuple(rng.randint(-3, 3) for _ in range(n))
            classify_sign_vector(ctx.weights, a)


class TestSupportComplex:
    def test_a1_two_points(self, a1):
        c = support_complex(a1.weights, (0, 0, -1, -1))
        assert c.facets == ((0,), (1,))

    def test_all_negative_is_empty(self, ctx):
        n = len(ctx.weights.weights)
        c = support_complex(ctx.weights, (-1,) * n)
        assert c.facets == ()

    def test_a1_full_simplex(self, a1):
        c = support_complex(a1.weights, (0, 0, 0, 0))
        assert c.facets == ((0, 1, 2, 3),)


class TestReducedHomology:
    def test_sphere_boundaries(self):
        for n, dim in [(2, 0), (3, 1), (4, 2)]:
            facets = tuple(combinations(range(n), n - 1))
            betti = betti_numbers(SimplicialComplex(n, facets))
            assert {k: v for k, v in betti.items() if v} == {dim: 1}

    def test_solid_simplex_contractible(self):
        betti = betti_numbers(SimplicialComplex(4, ((0, 1, 2, 3),)))
        assert not any(betti.values())

    def test_two_isolated_vertices(self):
        betti = betti_numbers(SimplicialComplex(2, ((0,), (1,))))
        assert {k: v for k, v in betti.items() if v} == {0: 1}

    def test_empty_complex(self):
        assert betti_numbers(SimplicialComplex(3, ())) == {-1: 1}

    def test_matches_classification_on_samples(self, ctx):
        rng = random.Random(f"homology-{ctx.group}")
        n = len(ctx.weights.weights)
        for _ in range(500):
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            expected = classify_sign_vector(ctx.weights, a).betti_profile()
            betti = betti_numbers(support_complex(ctx.weights, a))
            assert {k: v for k, v in betti.items() if v} == expected


class TestLocalCohomologyWindow:
    def test_a1_non_cm_degree(self, a1):
        G = a1.weights.group
        table = local_cohomology_window(a1.weights, G.element(2), 3)
        assert table.get(2, 0) > 0
        assert table.get(0, 0) == 0 and table.get(1, 0) == 0

    def test_a1_cm_degrees_vanish_below_top(self, a1):
        G = a1.weights.group
        for g in (0, 1):
            table = local_cohomology_window(a1.weights, G.element(g), 3)
            assert all(table.get(r, 0) == 0 for r in range(3))

    def test_vanishing_matches_mcm_in_window(self, z2):
        from toricnccr import is_mcm

        G = z2.weights.group
        for f in range(-3, 4):
            for t in G.torsion_residues():
                g = G.element(f, t)
                table = local_cohomology_window(z2.weights, g, 4)
                d = z2.weights.ring_dimension - 1
                vanishes = all(table.get(r, 0) == 0 for r in range(d + 1))
                if not vanishes:
                    assert not is_mcm(z2, g)
