"""Sign-pattern witnesses, the face complex, exact homology, crosschecks."""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricnccr.nccr
from toricnccr import (
    CONTRACTIBLE,
    EMPTY,
    FGGroup,
    MismatchedGroup,
    OracleMismatch,
    SearchBudgetExceeded,
    SimplicialComplex,
    betti_numbers,
    classify_sign_vector,
    crosscheck_mcm,
    face_test,
    grading_context,
    is_mcm,
    local_cohomology_window,
    sign_pattern_witness,
    sphere,
    sufficient_window,
    support_complex,
    validate,
)
import toricnccr.oracle
from toricnccr.oracle import (
    _mcm_sets,
    _rank,
    _witness,
    _witness_table,
    crosscheck_range,
    reduced_homology,
)
from toricnccr.poset import IntegerCodes
from conftest import (
    LADDER,
    SYSTEM_SPECS,
    build_context,
    build_system,
    classify_sign_vector_by_sets,
    crosscheck_by_elements,
    kernel_systems,
    ladder_context,
    matrix_rank_by_elimination,
    mcm_everywhere,
    mcm_sets_by_degrees,
    rank_one_systems,
    reduced_homology_by_dense_ranks,
    witness_bit,
    witness_table_by_coefficients,
)


def code_of(ws, key):
    """The code of the raw key ``(free, t...)`` in ``ws``'s group."""
    return IntegerCodes(ws.group).encode(key[0], key[1:])


def weighted_sum(ws, a):
    total = ws.group.zero()
    for c, x in zip(a, ws.weights):
        total = total + c * x
    return total


# ---------------------------------------------------------------------------
# Test oracles: the capped dict witness table, the uncapped two-table witness
# search, the exhaustive local-cohomology walk and the rank over Fraction, as
# the package once computed them


def plus(u, v, k, dims):
    """Raw ``u + k*v``; ``dims`` is 0 for the free coordinate, else the invariant factor."""
    return tuple((a + k * b) % d if d else a + k * b for a, b, d in zip(u, v, dims))


@lru_cache(maxsize=8)
def witness_table_by_dict(ws, pattern, window, cap):
    """Every raw sum ``(free, t...)`` with ``|free| <= cap`` of a vector matching
    the sign pattern, mapped to the first such vector built, stage by stage:
    each entry, in insertion order, times each coefficient in range order,
    keeping the first coefficient of each distinct step and the first vector
    to reach each key."""
    dims = (0,) + ws.group.torsion
    zero = (0,) * len(dims)
    nonneg, _ = pattern_blocks(ws, pattern)
    table = {zero: ()}
    for i, x in enumerate(w.key() for w in ws.weights):
        steps = {}
        for c in range(window + 1) if i in nonneg else range(-window, 0):
            steps.setdefault(plus(zero, x, c, dims), c)
        new = {}
        for value, a in table.items():
            for step, c in steps.items():
                if abs(value[0] + step[0]) <= cap:
                    new.setdefault(plus(value, step, 1, dims), a + (c,))
        table = new
    return table


def dict_witness(ws, key, window, cap):
    for pattern in (6, 7):
        a = witness_table_by_dict(ws, pattern, window, cap).get(key)
        if a is not None:
            return a
    return None


def matrix_rank_by_fractions(rows):
    """Rank over the rationals by Gaussian elimination on ``Fraction`` entries."""
    m = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    cols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < cols:
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def pattern_blocks(ws, pattern):
    """``(nonneg, negative)`` weight positions of sign pattern 6 or 7."""
    n, l, lp = len(ws.weights), ws.positives, ws.negatives
    if pattern == 6:
        return tuple(range(l)), tuple(range(l, n))
    return tuple(range(l, l + lp)), tuple(range(l)) + tuple(range(l + lp, n))


@lru_cache(maxsize=16)
def block_sums(ws, indices, lo, hi):
    """All values of ``sum c_i * x_i`` with ``c_i`` in [lo, hi], with one witness."""
    table = {ws.group.zero(): ()}
    for idx in indices:
        x = ws.weights[idx]
        new = {}
        for value, coeffs in table.items():
            for c in range(lo, hi + 1):
                key = value + c * x
                if key not in new:
                    new[key] = coeffs + (c,)
        table = new
    return table


def pattern_witness_by_blocks(ws, g, window, pattern):
    nonneg, negative = pattern_blocks(ws, pattern)
    pos_table = block_sums(ws, nonneg, 0, window)
    neg_table = block_sums(ws, negative, -window, -1)
    for value, pos_coeffs in pos_table.items():
        neg_coeffs = neg_table.get(g - value)
        if neg_coeffs is None:
            continue
        a = [0] * len(ws.weights)
        for j, i in enumerate(nonneg):
            a[i] = pos_coeffs[j]
        for j, i in enumerate(negative):
            a[i] = neg_coeffs[j]
        return tuple(a)
    return None


def sign_pattern_witness_by_blocks(ws, g, window):
    return pattern_witness_by_blocks(ws, g, window, 6) or pattern_witness_by_blocks(
        ws, g, window, 7
    )


def local_cohomology_by_dfs(ws, g, window):
    """Every vector in [-window, window]^n summing to g, classified one by one."""
    n = len(ws.weights)
    d = ws.ring_dimension - 1
    totals = {}
    vec = [0] * n

    def explore(i, partial):
        if i == n:
            if partial == g:
                for deg, cnt in classify_sign_vector(ws, vec).betti_profile().items():
                    totals[d - deg] = totals.get(d - deg, 0) + cnt
            return
        for c in range(-window, window + 1):
            vec[i] = c
            explore(i + 1, partial + c * ws.weights[i])
        vec[i] = 0

    explore(0, ws.group.zero())
    return totals


def facets_by_pairs(ws, a):
    """The support complex's facets by the rule the package once used: every
    member face compared with every other, members found by ``face_test``."""
    nonneg = [i for i, v in enumerate(a) if v >= 0]
    members = [
        set(subset)
        for size in range(1, len(nonneg) + 1)
        for subset in combinations(nonneg, size)
        if face_test(ws, subset)
    ]
    return tuple(sorted(tuple(sorted(m)) for m in members if not any(m < o for o in members)))


def pattern_ranges(ws, pattern, window):
    """Each weight's coefficient range in the sign pattern, in increasing order."""
    nonneg, _ = pattern_blocks(ws, pattern)
    return [range(window + 1) if i in nonneg else range(-window, 0) for i in range(len(ws.weights))]


def assert_is_witness(ws, g, a, window, pattern):
    """``a`` sums to g, matches the sign pattern and stays in the window."""
    nonneg, _ = pattern_blocks(ws, pattern)
    assert weighted_sum(ws, a) == g
    assert {i for i, c in enumerate(a) if c >= 0} == set(nonneg)
    assert all(abs(c) <= window for c in a)


def assert_witnesses_match_blocks(ws, free_range, window):
    """Witness existence agrees with the block oracle per degree and pattern,
    both in a crosscheck's tables (one cap for all degrees) and in the public
    call (cap a power of two above |free(g)|); every witness returned is the
    dict table's, and is one."""
    G = ws.group
    degrees = [G.element(f, t) for f in free_range for t in G.torsion_residues()]
    cap = max(abs(f) for f in free_range)
    for g in degrees:
        key = g.key()
        for pattern in (6, 7):
            expected = pattern_witness_by_blocks(ws, g, window, pattern)
            a = witness_table_by_dict(ws, pattern, window, cap).get(key)
            assert (a is None) == (expected is None), (g, pattern)
            if a is not None:
                assert_is_witness(ws, g, a, window, pattern)
        a = dict_witness(ws, key, window, cap)
        assert witness_bit(ws, key, window, cap) == (a is not None), g
        assert _witness(ws, code_of(ws, key), window, cap) == a, g
        assert sign_pattern_witness(ws, g, window) == a, g


def assert_cohomology_matches_dfs(ws, free_range, window):
    G = ws.group
    for f in free_range:
        for t in G.torsion_residues():
            g = G.element(f, t)
            assert local_cohomology_window(ws, g, window) == local_cohomology_by_dfs(
                ws, g, window
            ), (g, window)


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

    def test_foreign_degree_raises(self, z2, z3, a1):
        for g in (z3.weights.group.element(0, (1,)), a1.weights.group.element(2)):
            with pytest.raises(MismatchedGroup):
                sign_pattern_witness(z2.weights, g, 4)


class TestWitnessTable:
    def test_keys_are_the_capped_pattern_sums(self, ctx):
        ws = ctx.weights
        window, cap = 3, 4
        for pattern in (6, 7):
            sums = {weighted_sum(ws, a).key() for a in product(*pattern_ranges(ws, pattern, window))}
            table = witness_table_by_dict(ws, pattern, window, cap)
            assert set(table) == {key for key in sums if abs(key[0]) <= cap}
            for key, a in table.items():
                assert_is_witness(ws, ws.group.element(key[0], key[1:]), a, window, pattern)
            wider = witness_table_by_dict(ws, pattern, window, 2 * cap + 1)
            assert table == {key: a for key, a in wider.items() if abs(key[0]) <= cap}

    def test_suffix_tables_match_dict_tables(self, ctx):
        # every key out to past the cap, so a bit lost or kept at the cap shows
        ws = ctx.weights
        for window, cap in ((3, 4), (12, 12), (12, 30)):
            for f in range(-cap - 2, cap + 3):
                for t in ws.group.torsion_residues():
                    key = (f,) + t
                    a = dict_witness(ws, key, window, cap)
                    assert witness_bit(ws, key, window, cap) == (a is not None), key
                    assert _witness(ws, code_of(ws, key), window, cap) == a, key

    def test_lexicographically_first_witness(self, ctx):
        ws = ctx.weights
        window, cap = 3, 4
        for pattern in (6, 7):
            first = {}
            for a in product(*pattern_ranges(ws, pattern, window)):
                first.setdefault(weighted_sum(ws, a).key(), a)
            for key, a in first.items():
                if abs(key[0]) <= cap:
                    assert _witness(ws, code_of(ws, key), window, cap) == a, key


class TestBlockAndDfsOracles:
    """The capped tables against the uncapped block search, and the
    meet-in-the-middle count against the exhaustive walk."""

    def test_witnesses_fixtures(self, ctx):
        for window in (2, 12):
            assert_witnesses_match_blocks(ctx.weights, range(-8, 9), window)

    @pytest.mark.parametrize("key", ["w6", "w3535"])
    def test_witnesses_ladder(self, key):
        for window in (2, 12):
            assert_witnesses_match_blocks(ladder_context(key).weights, range(-8, 9), window)

    def test_cohomology_fixtures(self, ctx):
        for window in (0, 1, 2):
            assert_cohomology_matches_dfs(ctx.weights, range(-3, 4), window)
        assert_cohomology_matches_dfs(ctx.weights, range(1, 3), 3)

    @pytest.mark.parametrize("key,window", [("w6", 1), ("w6", 2), ("w3535", 2), ("w3535", 3)])
    def test_cohomology_ladder(self, key, window):
        free_range = range(-3, 4) if window == 1 else range(0, 3)
        assert_cohomology_matches_dfs(ladder_context(key).weights, free_range, window)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=3, torsions=((), (2,), (3,), (4,))))
    def test_random_systems(self, ws):
        assert_witnesses_match_blocks(ws, range(-5, 6), 4)
        assert_cohomology_matches_dfs(ws, range(-2, 3), 1)


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

    def test_cap_reached_in_last_step(self, a1):
        # (2)'s only witness is (0, 0, -1, -1), whose free part reaches the
        # cap 2 (the largest |free| checked) in its last term
        G = a1.weights.group
        degrees = [G.element(f) for f in (0, 1, 2)]
        assert not is_mcm(a1, degrees[-1])
        report = crosscheck_mcm(a1, degrees, 12)
        assert (report.checked, report.agreements) == (3, 3)
        assert witness_table_by_dict(a1.weights, 6, 12, 2)[(2,)] == (0, 0, -1, -1)
        assert _witness(a1.weights, code_of(a1.weights, (2,)), 12, 2) == (0, 0, -1, -1)

    def test_foreign_degree_raises(self, z2, z3):
        degrees = [z2.weights.group.element(0, (1,)), z3.weights.group.element(0, (1,))]
        with pytest.raises(MismatchedGroup):
            crosscheck_mcm(z2, degrees, 12)

    def test_mismatch_raises(self, a1, monkeypatch):
        monkeypatch.setattr(toricnccr.oracle, "_mcm_sets", mcm_everywhere)
        degrees = [a1.weights.group.element(f) for f in range(-6, 7)]
        with pytest.raises(OracleMismatch) as err:
            crosscheck_mcm(a1, degrees, 12)
        assert err.value.report.mismatches


class TestRandomCrosscheck:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(torsions=((), (2,), (3,), (4,))))
    def test_order_criterion_matches_witnesses(self, ws):
        ctx = grading_context(ws)
        G = ws.group
        degrees = [G.element(f, t) for f in range(-10, 11) for t in G.torsion_residues()]
        report = crosscheck_mcm(ctx, degrees, sufficient_window(ctx, degrees))
        assert report.agreements == report.checked == len(degrees)


def assert_routes_agree(ctx, lo, hi):
    """``crosscheck_mcm`` and ``crosscheck_range`` return the report of the
    crosscheck on elements, field for field, and raise the same report when
    ``is_mcm_code`` (which the crosscheck on elements calls) and the MCM
    bitsets are forced to say MCM everywhere."""
    G = ctx.weights.group
    degrees = [G.element(f, t) for f in range(lo, hi + 1) for t in G.torsion_residues()]
    window = sufficient_window(ctx, degrees)
    routes = (
        lambda: crosscheck_by_elements(ctx, degrees, window),
        lambda: crosscheck_mcm(ctx, degrees, window),
        lambda: crosscheck_range(ctx, lo, hi, window),
    )
    expected = routes[0]()
    assert expected.agreements == expected.checked == len(degrees)
    assert [route() for route in routes[1:]] == [expected, expected]
    forced = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toricnccr.nccr, "is_mcm_code", lambda ctx, c: True)
        patch.setattr(toricnccr.oracle, "_mcm_sets", mcm_everywhere)
        for route in routes:
            with pytest.raises(OracleMismatch) as err:
                route()
            forced.append(err.value.report)
    assert forced[0].mismatches  # p itself is in range and not MCM
    assert forced[1:] == [forced[0], forced[0]]


class TestCrosscheckRoutes:
    """The crosscheck on codes against the crosscheck on elements.  The kernel
    family has torsion weights whose order is below their invariant factor,
    where one residue map serves several coefficients."""

    def test_fixtures(self, ctx):
        assert_routes_agree(ctx, -ctx.p.free - 2, ctx.p.free + 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems(torsions=((), (2,), (3,), (4,))))
    def test_random_systems(self, ws):
        ctx = grading_context(ws)
        assert_routes_agree(ctx, -ctx.p.free - 2, ctx.p.free + 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_kernel_systems(self, ws):
        ctx = grading_context(ws)
        assert_routes_agree(ctx, -ctx.p.free - 2, ctx.p.free + 2)


def assert_bitsets_match_oracles(ctx):
    """``_mcm_sets`` equals ``is_mcm_code`` per degree, and the doubled witness
    tables the per-coefficient build, at caps below, at and above ``free(p)``
    and at windows below and above the caps."""
    ws, pf = ctx.weights, ctx.p.free
    for cap in sorted({0, 1, pf // 2, pf - 1, pf, pf + 1, 2 * pf + 3, 5 * pf + 7}):
        assert tuple(map(list, _mcm_sets(ctx, cap))) == mcm_sets_by_degrees(ctx, cap), cap
        for window in (1, 2, cap // 2 + 1, cap + 3):
            for pattern in (6, 7):
                expected = witness_table_by_coefficients(ws, pattern, window, cap)
                assert _witness_table(ws, pattern, window, cap)[1] == expected, (cap, window, pattern)


class TestBitsets:
    """The MCM bitsets and the doubled witness tables against the routes they
    replaced.  The kernel family has torsion weights whose order is below
    their invariant factor."""

    def test_fixtures(self, ctx):
        assert_bitsets_match_oracles(ctx)

    @pytest.mark.parametrize("key", sorted(LADDER))
    def test_ladder(self, key):
        assert_bitsets_match_oracles(ladder_context(key))

    # E, the comb period, exceeds free(p), so most caps tried are below E:
    # E = 7 with free(p) = 3, and E = 13 with free(p) = 2
    @pytest.mark.parametrize("torsion, vecs", [
        ((7,), [(1, 1), (2, 1), (-1, 3), (-2, 2)]),
        ((13,), [(1, 1), (1, 5), (-1, 6), (-1, 1)]),
    ])
    def test_period_above_the_cap(self, torsion, vecs):
        G = FGGroup(1, torsion)
        ctx = grading_context(validate(G, [G.from_vector(v) for v in vecs]))
        assert len(ctx.least) // ctx.codes.order > ctx.p.free
        assert_bitsets_match_oracles(ctx)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems(torsions=((), (2,), (3,), (4,))))
    def test_random_systems(self, ws):
        assert_bitsets_match_oracles(grading_context(ws))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_kernel_systems(self, ws):
        assert_bitsets_match_oracles(grading_context(ws))

    def test_wide_range_is_fast(self, z4):
        # every degree of free part -20000..20000: the per-degree MCM loop and
        # the per-coefficient tables took 1.6 s; the bitsets take about 2 ms
        start = time.perf_counter()
        report = crosscheck_range(z4, -20000, 20000, 20001)
        assert time.perf_counter() - start < 0.5
        assert report.agreements == report.checked == 40001 * 4


class TestWitnessBudget:
    """The cap charges the doubled build and the walk, not one shift per
    coefficient."""

    def test_wide_range_is_admitted(self, z4):
        report = crosscheck_range(z4, -100000, 100000, 100001)
        assert report.agreements == report.checked == 200001 * 4

    def test_oversized_table_is_refused(self, z4):
        start = time.perf_counter()
        with pytest.raises(SearchBudgetExceeded, match="witness table needs"):
            crosscheck_range(z4, -10**8, 10**8, 10**8 + 1)
        # the table for 10⁶ fits, but the walk tries 10⁶ coefficients per weight
        with pytest.raises(SearchBudgetExceeded):
            sign_pattern_witness(z4.weights, z4.weights.group.element(10**6, (0,)), 10**6)
        assert time.perf_counter() - start < 1


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

    def test_wrong_length_raises(self, ctx):
        ws = ctx.weights
        n = len(ws.weights)
        for length in (n - 1, n + 1):
            message = f"sign vector length {length}, expected {n}"
            for check in (support_complex, classify_sign_vector):
                with pytest.raises(ValueError, match=message):
                    check(ws, (0,) * length)

    def test_built_once_per_nonneg_mask(self, z4):
        ws = z4.weights
        assert support_complex(ws, (0, 3, -1, -2, 1)) is support_complex(ws, (5, 0, -4, -1, 0))
        assert support_complex(ws, (0, 3, -1, -2, 1)) is not support_complex(ws, (0, 3, 0, -2, 1))

    def test_caches_are_bounded(self):
        for name in ("_witness_table", "_face_masks", "_support_complex", "reduced_homology"):
            assert getattr(toricnccr.oracle, name).cache_info().maxsize is not None, name

    @pytest.mark.parametrize("key", [*sorted(SYSTEM_SPECS), "w6", "w3535"])
    def test_facets_match_pairwise_rule(self, key):
        ws = build_system(key) if key in SYSTEM_SPECS else ladder_context(key).weights
        for a in product((-1, 0), repeat=len(ws.weights)):
            assert support_complex(ws, a).facets == facets_by_pairs(ws, a), a


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


def assert_every_mask_classified(ws):
    """Homology equals the classification on all 2^n nonneg masks: both read
    only the signs, so the vectors with entries 0 (nonneg) and -1 cover every
    sign vector of the system."""
    for a in product((-1, 0), repeat=len(ws.weights)):
        betti = betti_numbers(support_complex(ws, a))
        expected = classify_sign_vector(ws, a).betti_profile()
        assert {k: v for k, v in betti.items() if v} == expected, a


class TestEveryMask:
    @pytest.mark.parametrize("key", [*sorted(SYSTEM_SPECS), "w6", "w3535"])
    def test_fixtures_and_ladder(self, key):
        ws = build_system(key) if key in SYSTEM_SPECS else ladder_context(key).weights
        assert_every_mask_classified(ws)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems())
    def test_random_systems(self, ws):
        assert_every_mask_classified(ws)


def dense_matrix(columns):
    """Sparse ``{row: entry}`` columns as dense rows, in sorted row order."""
    rows = sorted({r for column in columns for r in column})
    return [[column.get(r, 0) for column in columns] for r in rows]


class TestMatrixRank:
    """The sparse elimination, and the dense one it replaced, against
    elimination over ``Fraction``."""

    def test_random_matrices(self):
        rng = random.Random("matrix-rank")
        for _ in range(1000):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for r in range(1, rows):  # some rows dependent, so ranks vary
                if rng.random() < 0.3:
                    i, j, k = rng.randrange(r), rng.randrange(r), rng.randint(-2, 2)
                    m[r] = [a + k * b for a, b in zip(m[i], m[j])]
            columns = [{r: row[j] for r, row in enumerate(m) if row[j]} for j in range(cols)]
            assert len(_rank(columns)) == matrix_rank_by_fractions(m), m
            assert matrix_rank_by_elimination(m) == matrix_rank_by_fractions(m), m

    def test_random_sparse_columns(self):
        rng = random.Random("sparse-rank")
        for _ in range(1000):
            rows, cols = rng.randint(1, 10), rng.randint(1, 10)
            columns = []
            for j in range(cols):
                if j > 1 and rng.random() < 0.3:  # some columns dependent, so ranks vary
                    u, v, k = rng.choice(columns), rng.choice(columns), rng.randint(-2, 2)
                    column = {r: u.get(r, 0) + k * v.get(r, 0) for r in u.keys() | v.keys()}
                else:
                    support = rng.sample(range(rows), rng.randint(0, min(rows, 3)))
                    column = {r: rng.randint(-3, 3) for r in support}
                columns.append({r: e for r, e in column.items() if e})
            assert len(_rank(columns)) == matrix_rank_by_fractions(dense_matrix(columns)), columns

    def test_non_unit_pivot(self):
        # the first column has no entry ±1, so it is kept on a pivot of 2
        assert _rank([{1: 2, 2: 3}, {1: 1, 2: 1}]) == {1: {1: 2, 2: 3}, 2: {2: -1}}
        assert len(_rank([{1: 2, 2: 3}, {1: -4, 2: -6}, {0: 5}])) == 2

    @pytest.mark.parametrize("key", [*sorted(SYSTEM_SPECS), "w6"])
    def test_boundary_matrices(self, key, monkeypatch):
        ws = build_system(key) if key in SYSTEM_SPECS else ladder_context(key).weights
        seen = []

        def spy(columns):
            columns = list(columns)
            seen.append(columns)
            return _rank(columns)

        monkeypatch.setattr(toricnccr.oracle, "_rank", spy)
        for c in {support_complex(ws, a) for a in product((-1, 0), repeat=len(ws.weights))}:
            reduced_homology.__wrapped__(c)
        assert seen
        for columns in seen:
            assert len(_rank(columns)) == matrix_rank_by_fractions(dense_matrix(columns)), columns


# The 6-vertex real projective plane: over Q every reduced Betti number is 0,
# over GF(2) b_1 = b_2 = 1.
RP2 = SimplicialComplex(6, tuple(sorted(tuple(sorted(t)) for t in [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
])))


def disks_on_words(*words):
    """Disks glued along ``words`` onto a wedge of loops, one per letter, each
    three edges through vertex 0: per disk, its boundary cycle, a ring of
    fresh vertices inside it and a cone on the ring."""
    index = {}

    def vertex(name):
        return index.setdefault(name, len(index))

    triangles = []
    for j, word in enumerate(words):
        cycle = [name for letter in word for name in ("base", (letter, 1), (letter, 2))]
        for i, name in enumerate(cycle):
            v, w = vertex(name), vertex(cycle[(i + 1) % len(cycle)])
            r, s = vertex(("ring", j, i)), vertex(("ring", j, (i + 1) % len(cycle)))
            triangles += [(v, w, r), (w, r, s), (vertex(("centre", j)), r, s)]
    return SimplicialComplex(len(index), tuple(sorted(tuple(sorted(t)) for t in triangles)))


# a^3 b^5 and a^5 b^2 leave H_1 = Z^2 / <(3, 5), (5, 2)> = Z/19, so every
# reduced Betti number over Q is 0.  The elimination of its triangles keeps a
# column with no entry ±1 and reduces later ones against it: an elimination
# that took every pivot for a unit reads b_0 = b_1 = 1 here.
NINETEEN = disks_on_words("aaabbbbb", "aaaaabb")


@st.composite
def complexes(draw, max_vertices=7):
    """Complexes on up to ``max_vertices`` vertices, by up to ten facets each
    of any nonempty vertex set (not necessarily maximal)."""
    n = draw(st.integers(0, max_vertices))
    facet = st.frozensets(st.integers(0, n - 1), min_size=1)
    facets = draw(st.lists(facet, max_size=10)) if n else []
    return SimplicialComplex(n, tuple(sorted({tuple(sorted(f)) for f in facets})))


class TestHomologyRoutes:
    """The face-bitmask homology against the dense boundary matrices it
    replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(complexes())
    @example(RP2)
    @example(NINETEEN)
    def test_random_complexes(self, complex_):
        assert reduced_homology.__wrapped__(complex_) == reduced_homology_by_dense_ranks(complex_)

    def test_projective_plane_over_q(self):
        assert betti_numbers(RP2) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_non_unit_pivot(self):
        assert betti_numbers(NINETEEN) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert betti_numbers(disks_on_words("aaaaabb")) == {-1: 0, 0: 0, 1: 1, 2: 0}

    @pytest.mark.parametrize("key", [*sorted(SYSTEM_SPECS), "w6", "w3535"])
    def test_support_complexes(self, key):
        ws = build_system(key) if key in SYSTEM_SPECS else ladder_context(key).weights
        for a in product((-1, 0), repeat=len(ws.weights)):
            c = support_complex(ws, a)
            assert reduced_homology(c) == reduced_homology_by_dense_ranks(c), a


def assert_classification_matches_sets(ws):
    """The mask rule equals the set rule on every vector in {-1, 0, 1}^n."""
    for a in product((-1, 0, 1), repeat=len(ws.weights)):
        assert classify_sign_vector(ws, a) == classify_sign_vector_by_sets(ws, a), a


class TestClassificationRoutes:
    @pytest.mark.parametrize("key", [*sorted(SYSTEM_SPECS), "w6", "w3535"])
    def test_fixtures_and_ladder(self, key):
        ws = build_system(key) if key in SYSTEM_SPECS else ladder_context(key).weights
        assert_classification_matches_sets(ws)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rank_one_systems(torsions=((), (2,), (3,), (4,))))
    def test_random_systems(self, ws):
        assert_classification_matches_sets(ws)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_torsion_weights(self, ws):
        assert ws.torsion_weights
        assert_classification_matches_sets(ws)

    def test_shared_instances(self, z4):
        ws = z4.weights
        a, b = (0, 0, -1, -1, -1), (1, 2, -3, -1, -1)
        assert classify_sign_vector(ws, a) is classify_sign_vector(ws, b) == sphere(0)


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
        G = z2.weights.group
        for f in range(-3, 4):
            for t in G.torsion_residues():
                g = G.element(f, t)
                table = local_cohomology_window(z2.weights, g, 4)
                d = z2.weights.ring_dimension - 1
                vanishes = all(table.get(r, 0) == 0 for r in range(d + 1))
                if not vanishes:
                    assert not is_mcm(z2, g)

    def test_foreign_degree_raises(self, z2, z3, a1):
        for g in (z3.weights.group.element(0, (1,)), a1.weights.group.element(2)):
            with pytest.raises(MismatchedGroup):
                local_cohomology_window(z2.weights, g, 4)

    def test_negative_window_raises(self, a1):
        with pytest.raises(ValueError):
            local_cohomology_window(a1.weights, a1.weights.group.element(2), -1)
