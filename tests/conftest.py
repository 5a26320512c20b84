"""Shared fixtures: five worked singularities used as golden data throughout.

Keys: ``a1`` the 3-dimensional A_1 cone, ``ca4`` a cA_4 singularity with
class group Z, ``z2``/``z3`` torsion class groups Z + Z/2 and Z + Z/3, and
``z4`` a 4-dimensional example over Z + Z/4 whose graded quotient has a
two-element kernel.
"""

import random
from functools import cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from toricnccr import (
    CONTRACTIBLE,
    EMPTY,
    AxiomViolation,
    FGGroup,
    InputError,
    MismatchedGroup,
    NonTorsionGenerator,
    OracleMismatch,
    Rim,
    RimStatus,
    SummandSet,
    grading_context,
    minimal_elements,
    mutate,
    preimage_summands,
    rim_status,
    sign_pattern_witness,
    smith_normal_form,
    sphere,
    sufficient_window,
    translation_classes,
    validate,
)
import toricnccr.nccr
from toricnccr.groups import GroupElement
from toricnccr.oracle import CrosscheckReport, _witness_table
from toricnccr.poset import IntegerCodes
from toricnccr.quivers import Arrow
from toricnccr.uppersets import _least_shift

SYSTEM_SPECS = {
    "a1": (1, (), [[1], [1], [-1], [-1]]),
    "ca4": (1, (), [[2], [3], [-2], [-3]]),
    "z2": (1, (2,), [[1, 0], [1, 1], [-1, 0], [-1, 1]]),
    "z3": (1, (3,), [[1, 0], [1, 0], [-1, 1], [-1, 2]]),
    "z4": (1, (4,), [[1, 0], [1, 1], [-1, 0], [-1, 1], [0, 2]]),
}

EXPECTED_CLASS_COUNTS = {"a1": 1, "ca4": 2, "z2": 2, "z3": 3, "z4": 2}
EXPECTED_VERTEX_COUNTS = {
    "a1": [2],
    "ca4": [5, 5],
    "z2": [4, 4],
    "z3": [6, 6, 6],
    "z4": [8, 8],
}


# torsion-free rank-one systems beyond the fixtures, named after their weights
LADDER = {
    "w2357": (2, 5, -3, -4),
    "w2525": (2, 5, -2, -5),
    "w3535": (3, 5, -3, -5),
    "w4577": (4, 7, -5, -6),
    "w40": (40, 1, -40, -1),
    "w6": (1, 2, 3, -1, -2, -3),
}


@cache
def ladder_context(key):
    group = FGGroup(1, ())
    return grading_context(validate(group, [group.element(w) for w in LADDER[key]]))


# Z + Z/3 with 24 orbits and 146 classes, two of them with stabilizer order 3
TORSION_LADDER = {"group": {"free_rank": 1, "torsion": [3]},
                  "weights": [[3, 2], [3, 2], [2, 1], [-4, 2], [-4, 2]]}


@cache
def torsion_ladder_context():
    group = FGGroup(1, (3,))
    return grading_context(validate(group, [group.from_vector(v) for v in TORSION_LADDER["weights"]]))


@cache
def build_system(key):
    rank, torsion, vecs = SYSTEM_SPECS[key]
    group = FGGroup(rank, torsion)
    return validate(group, [group.from_vector(v) for v in vecs])


@cache
def build_context(key):
    return grading_context(build_system(key))


@cache
def build_class_quiver(key, class_index, bound=None):
    from toricnccr import endomorphism_quiver, nccr_classes

    ctx = build_context(key)
    return endomorphism_quiver(ctx, nccr_classes(ctx)[class_index], bound)


@cache
def huge_kernel_system(d):
    """Z + Z/d with (1;0), (1;1), (-1;0), (-1;-2), (0;1): the torsion weight
    (0;1) spans Z/d, so H = Z and the projection's kernel has order d."""
    group = FGGroup(1, (d,))
    return validate(group, [group.from_vector(v) for v in [(1, 0), (1, 1), (-1, 0), (-1, -2), (0, 1)]])


@st.composite
def rank_one_systems(draw, max_free=5, torsions=((), (2,), (3,))):
    """Valid rank-one systems: 4-6 weights, free parts in -max_free..max_free,
    torsion drawn from ``torsions`` (default none, Z/2 or Z/3); the last weight
    completes the zero sum."""
    torsion = draw(st.sampled_from(list(torsions)))
    n = draw(st.integers(4, 6))
    weight = st.tuples(st.integers(-max_free, max_free), *(st.integers(0, d - 1) for d in torsion))
    vecs = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    last = [-sum(v[i] for v in vecs) for i in range(1 + len(torsion))]
    assume(abs(last[0]) <= max_free)
    group = FGGroup(1, torsion)
    try:
        return validate(group, [group.from_vector(v) for v in vecs + [last]])
    except InputError:
        assume(False)


@st.composite
def kernel_systems(draw, max_free=4):
    """Valid rank-one systems with a nonzero torsion weight ``(0; t)``, so the
    projection to H has a nontrivial kernel: 5-6 weights over Z/2, Z/3, Z/4,
    Z/2+Z/2 or Z/2+Z/4."""
    torsion = draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 4)]))
    n = draw(st.integers(5, 6))
    weight = st.tuples(st.integers(-max_free, max_free), *(st.integers(0, d - 1) for d in torsion))
    kernel_weight = draw(st.tuples(st.just(0), *(st.integers(0, d - 1) for d in torsion)))
    assume(any(kernel_weight[1:]))
    vecs = [kernel_weight] + draw(st.lists(weight, min_size=n - 2, max_size=n - 2))
    last = [-sum(v[i] for v in vecs) for i in range(1 + len(torsion))]
    assume(abs(last[0]) <= max_free)
    group = FGGroup(1, torsion)
    try:
        return validate(group, [group.from_vector(v) for v in vecs + [last]])
    except InputError:
        assume(False)


# -- the order on elements and the sampled axiom check ----------------------


def leq(ctx, h1, h2):
    """The poset order: ``h1 <= h2`` iff ``h2 - h1`` is in the monoid."""
    return ctx.member(h2 - h1)


def sample_elements(ctx, count, rng, span=None):
    """``count`` random elements of H, free parts in ``-span..span``."""
    span = span if span is not None else 3 * ctx.p.free + ctx.max_conductor + 2
    out = []
    for _ in range(count):
        f = rng.randint(-span, span)
        t = tuple(rng.randrange(d) for d in ctx.group.torsion)
        out.append(ctx.element(f, t))
    return out


def check_axioms_by_sampling(ctx, sample_size, seed):
    """Oracle for ``check_axioms``: test A1-A3 on sampled elements and raise
    ``AxiomViolation`` on any failure; returns ``(translation pairs, reach
    witnesses)`` checked.

    (A1) adding p strictly increases, (A2) adding a multiple of p preserves
    the order, (A3) any element overtakes any other after finitely many p
    steps; the witness step count comes from the conductor.
    """
    if ctx.p.is_zero() or not ctx.member(ctx.p):
        raise AxiomViolation(f"p = {ctx.p} is not a strictly positive period")
    if ctx.member(-ctx.p):
        raise AxiomViolation(f"-p = {-ctx.p} lies in the monoid")

    rng = random.Random(seed)
    elements = sample_elements(ctx, sample_size, rng)
    pair_checks = 0
    witness_checks = 0
    for x in elements:
        if not leq(ctx, x, x + ctx.p) or leq(ctx, x + ctx.p, x):
            raise AxiomViolation(f"x < x + p fails at x = {x}")
    for _ in range(sample_size):
        x, y = rng.choice(elements), rng.choice(elements)
        n = rng.randint(-3, 3)
        if leq(ctx, x, y) != leq(ctx, x + n * ctx.p, y + n * ctx.p):
            raise AxiomViolation(f"translation by {n}p broke {x} <= {y}")
        pair_checks += 1
        delta = x - y
        need = ctx.max_conductor - delta.free
        n_wit = max(0, -(-need // ctx.p.free))
        if not leq(ctx, y, x + n_wit * ctx.p):
            raise AxiomViolation(f"no finite p-step takes {x} above {y}")
        witness_checks += 1
    return pair_checks, witness_checks


# -- the quotient on the full Smith basis, oracle for quotient_by_subgroup ---


def quotient_by_full_snf(g, gens):
    """``quotient_by_subgroup`` as it was before the projection kept the free
    coordinate by construction: the full (1+k) x (1+k) Smith basis, a separate
    identity map when every generator is zero, a re-check of the free rank
    and a sign flip of the free line when needed.  Returns the quotient and
    the projection as a function on elements."""
    gens = list(gens)
    n, rank = g.coordinate_count, g.free_rank

    def lift(x):
        return x.key()[1 - rank:]

    rels = [[d * (i == rank + j) for i in range(n)] for j, d in enumerate(g.torsion)]
    rels += [list(lift(x)) for x in gens]
    for x in gens:
        if not x.is_torsion():
            raise NonTorsionGenerator(f"{x} has infinite order")
    if all(x.is_zero() for x in gens):
        target, fwd = g, [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        diag, basis = smith_normal_form(rels, n)
        free_idx = [i for i, d in enumerate(diag) if d == 0]
        tors_idx = [i for i, d in enumerate(diag) if d >= 2]
        if len(free_idx) != rank:
            raise NonTorsionGenerator("quotient changed the free rank")
        target = FGGroup(rank, tuple(diag[i] for i in tors_idx))
        fwd = [list(basis[i]) for i in free_idx + tors_idx]
        if rank == 1:
            # the composite Z -> G -> H -> Z is multiplication by +-1; fix it to +1
            lam = fwd[0][0]
            if abs(lam) != 1:
                raise NonTorsionGenerator("quotient does not preserve the free line")
            if lam == -1:
                fwd[0] = [-v for v in fwd[0]]

    def image(x):
        y = [sum(a * b for a, b in zip(row, lift(x))) for row in fwd]
        return target.element(y[0], y[1:]) if rank else target.element(0, y)

    return target, image


# -- element routes through the quotient, oracles for the code routes ------


def fiber(q, h):
    """The full preimage of ``h``, sorted: every source element of the same
    free part (``q`` keeps it) whose image is ``h``."""
    source = q.source
    return tuple(g for t in source.torsion_residues() if q(g := source.element(h.free, t)) == h)


def preimage_by_fibers(ctx, rim):
    """``preimage_summands`` on elements: the union of the fibers of the rim."""
    return SummandSet.of(g for h in rim for g in fiber(ctx.q, h))


def nccr_classes_by_rims(ctx):
    """``nccr_classes`` as it was built: ``preimage_summands`` of each
    ``translation_classes`` rim, one source element per summand entry."""
    return tuple(preimage_summands(ctx, c.rim) for c in translation_classes(ctx))


def rim_status_by_elements(ctx, elements):
    """``rim_status`` on elements: INVALID at the first ``x >= y + p`` in
    sorted order, COMPLETE with one element per orbit, else PARTIAL."""
    elems = sorted(set(elements), key=GroupElement.key)
    for x in elems:
        for y in elems:
            if leq(ctx, y + ctx.p, x):
                return RimStatus.INVALID, (x, y)
    if len(elems) == ctx.orbit_count:
        return RimStatus.COMPLETE, None
    return RimStatus.PARTIAL, None


# -- class reports on elements, oracle for the class reports on codes -----


def classify_classes_by_elements(ctx):
    """The ``classes`` of a ``classify`` report as they were built on elements:
    a ``translation_classes`` value per class, its ``preimage_summands``, and
    ``str`` of every rim and summand entry."""
    report = []
    for i, cls in enumerate(translation_classes(ctx)):
        summands = preimage_summands(ctx, cls.rim)
        report.append({
            "index": i,
            "rim": [str(h) for h in cls.rim],
            "summand_degrees": [str(g) for g in summands],
            "vertex_count": len(summands),
        })
    return report


# -- the crosscheck on elements, oracle for the crosscheck on codes --------


def count_element_constructions(monkeypatch) -> list[str]:
    """From now on, log each ``FGGroup.element`` call and ``GroupElement``
    construction to the returned list."""
    built = []
    make, init = FGGroup.element, GroupElement.__init__

    def counted_make(*args, **kwargs):
        built.append("FGGroup.element")
        return make(*args, **kwargs)

    def counted_init(*args, **kwargs):
        built.append("GroupElement")
        init(*args, **kwargs)

    monkeypatch.setattr(FGGroup, "element", counted_make)
    monkeypatch.setattr(GroupElement, "__init__", counted_init)
    return built


def witness_bit(ws, key, window, cap):
    """Is there a witness summing to the raw key ``(free, t...)``?  Its bit in
    the first suffix table of the sign pattern its free part picks, the
    residue's index found through a dict over ``torsion_residues``."""
    index = {t: r for r, t in enumerate(ws.group.torsion_residues())}
    _, suffix = _witness_table(ws, 6 if key[0] >= 0 else 7, window, cap)
    return bool(suffix[0][index[key[1:]]] >> abs(key[0]) & 1)


def witness_table_by_coefficients(ws, pattern, window, cap):
    """``_witness_table`` built one shift-OR per coefficient and residue, as the
    crosscheck once built it: ``suffix[i + 1]`` shifted by each step of weight
    ``i``, with shift ``|c * free|`` and residue map ``r -> r - c * tors``,
    ORed and masked to the cap.  A weight's residue maps are built once per
    class of ``c`` mod the order of its torsion part."""
    codes = IntegerCodes(ws.group)
    order = codes.order
    l, lp = ws.positives, ws.negatives
    nonneg = range(l) if pattern == 6 else range(l, l + lp)
    steps = []
    for i, x in enumerate(ws.weights):
        lo, hi = (0, window) if i in nonneg else (-window, -1)
        if x.free:
            k = cap // abs(x.free)
            coefficients = range(max(lo, -k), min(hi, k) + 1)
        else:
            coefficients = range(lo, hi + 1)[: x.order()]
        period = ws.group.element(0, x.tors).order()
        maps = {}
        for j in {c % period for c in coefficients}:
            jt = codes.encode(0, [j * t for t in x.tors])
            maps[j] = tuple(codes.sub(r, jt) for r in range(order))
        steps.append([(abs(c * x.free), maps[c % period]) for c in coefficients])
    mask = (1 << cap + 1) - 1
    suffix = [[1] + [0] * (order - 1)]  # the empty sum: only 0
    for options in reversed(steps):
        table = [0] * order
        for shift, back in options:
            for r, s in enumerate(back):
                table[r] |= suffix[-1][s] << shift
        suffix.append([bits & mask for bits in table])
    return tuple(reversed(suffix))


def mcm_sets_by_degrees(ctx, cap):
    """``_mcm_sets`` one degree at a time, as the crosscheck once read it:
    ``is_mcm_code`` on the code ``f·|T| + r`` of every ``(f; r)`` with ``|f|
    <= cap``, one bit each; bit ``u`` of the second list is ``f = -u``."""
    order = ctx.source_codes.order
    halves = ([0] * order, [0] * order)
    for u in range(cap + 1):
        for r in range(order):
            for half, f in zip(halves, (u, -u)):
                half[r] |= toricnccr.nccr.is_mcm_code(ctx, f * order + r) << u
    return halves


def mcm_everywhere(ctx, cap):
    """A stand-in for ``oracle._mcm_sets`` that calls every degree MCM."""
    return ([(1 << cap + 1) - 1] * ctx.source_codes.order,) * 2


def crosscheck_by_elements(ctx, degrees, window):
    """``crosscheck_mcm`` as it ran on elements: ``is_mcm`` on each degree, then
    a lookup of its raw key; a mismatch carries ``sign_pattern_witness``."""
    ws, degrees = ctx.weights, list(degrees)
    for g in degrees:
        if g.group != ws.group:
            raise MismatchedGroup(f"degree {g!r} does not lie in {ws.group}")
    need = sufficient_window(ctx, degrees)
    if window < need:
        raise InputError(f"window {window} below the sufficiency bound {need}")
    cap = max((abs(g.free) for g in degrees), default=0)
    mismatches = []
    for g in degrees:
        mcm = toricnccr.nccr.is_mcm(ctx, g)
        if mcm == witness_bit(ws, g.key(), window, cap):
            mismatches.append((g, mcm, sign_pattern_witness(ws, g, window)))
    report = CrosscheckReport(len(degrees), len(degrees) - len(mismatches), tuple(mismatches), window)
    if mismatches:
        raise OracleMismatch(report)
    return report


# -- homology on dense matrices and classification on sets, oracles for the
# -- face-bitmask engine ----------------------------------------------------


def faces_by_dim(complex_):
    """``{k: sorted k-faces as vertex tuples}``, every subset of a facet."""
    seen = set()
    for facet in complex_.facets:
        for k in range(1, len(facet) + 1):
            seen.update(combinations(facet, k))
    out = {}
    for face in seen:
        out.setdefault(len(face) - 1, []).append(face)
    for k in out:
        out[k].sort()
    return out


def matrix_rank_by_elimination(rows) -> int:
    """Rank over the rationals by fraction-free elimination: a row below the
    pivot becomes ``pv*row - row[col]*pivot_row`` over the gcd of its entries."""
    m = [list(row) for row in rows if any(row)]
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
            if factor := m[r][col]:
                row = [pv * a - factor * b for a, b in zip(m[r], m[rank])]
                d = gcd(*row) or 1
                m[r] = [a // d for a in row]
        rank += 1
        col += 1
    return rank


def reduced_homology_by_dense_ranks(complex_):
    """``oracle.reduced_homology`` as the package once computed it: faces as
    sorted vertex tuples, one dense boundary matrix per dimension, each
    ranked by :func:`matrix_rank_by_elimination`."""
    faces = faces_by_dim(complex_)
    top = max(faces, default=-1)
    dims = {-1: 1}
    for k in range(top + 1):
        dims[k] = len(faces[k])

    ranks = {}  # rank of boundary C_k -> C_{k-1}
    if 0 in faces:
        ranks[0] = matrix_rank_by_elimination([[1] * len(faces[0])])
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(faces[k - 1])}
        rows = [[0] * len(faces[k]) for _ in range(len(faces[k - 1]))]
        for j, face in enumerate(faces[k]):
            for omit in range(len(face)):
                sub = face[:omit] + face[omit + 1 :]
                rows[lower[sub]][j] = (-1) ** omit
        ranks[k] = matrix_rank_by_elimination(rows)

    return tuple((k, dims[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)) for k in range(-1, top + 1))


def classify_sign_vector_by_sets(ws, a):
    """``oracle.classify_sign_vector`` by the rule the package once used: the
    sets of signs seen on the positive and the negative block."""
    n = len(ws.weights)
    a = tuple(a)
    if len(a) != n:
        raise InputError(f"sign vector length {len(a)}, expected {n}")
    l, lp = ws.positives, ws.negatives
    pos, neg = {c >= 0 for c in a[:l]}, {c >= 0 for c in a[l:l + lp]}
    if any(c >= 0 for c in a[l + lp:]) or len(pos) > 1 or len(neg) > 1 or pos == neg == {True}:
        return CONTRACTIBLE
    if pos == neg:  # every coordinate negative
        return EMPTY
    return sphere(l - 2 if True in pos else lp - 2)


# -- the arrow search before dead coordinates, oracle for _arrow_set -------


def minimal_hits_without_dead_coordinates(steps, order, vertex_codes, source: int, bound: int):
    """Minimal nonzero exponent vectors whose degree lands ``source`` in the set.

    Degrees are integer codes ``free·|T| + r`` (:class:`~.poset.IntegerCodes`),
    with ``0 <= r < |T|`` the index of the torsion part and ``order`` =
    ``|T|``, so ``q // order`` is the free part of code ``q`` and adding
    weight ``i`` adds ``steps[i][q % order]``.  The search raises the
    coordinates in turn, depth first, to total degree ``bound``, and maps
    each hit to its target.

    Sub-vector prune.  Alongside the degree of the current prefix vector the
    search carries the set of degrees of its proper sub-vectors (the zero
    vector among them once some coordinate is positive).  Raising coordinate
    ``i`` to ``c`` creates exactly the new sub-vectors that use exponent
    ``c`` at ``i``: the full vector, and the proper ones ``{q + c·w_i}`` over
    that set.  If any of them lands on a vertex, coordinate ``i`` stops rising
    and the branch is cut: every extension contains that vector, so none is
    minimal.  By induction no proper nonzero sub-vector of a vector reached
    lands on a vertex, so each hit is minimal when it is recorded.

    Free-range prune.  Let ``hi[i]``, ``lo[i]`` be the largest and smallest
    free part among weights ``i..n-1``, clamped through 0.  With free part
    ``f`` and ``r`` degrees of budget left, every extension that raises only
    coordinates ``>= i`` has free part in ``[f + r·lo[i], f + r·hi[i]]``; if
    that misses the vertex free parts, no hit lies below.  The test runs on
    entering a coordinate and after each raise of it; the next raise's range
    ``f + f_i + (r-1)·[lo[i], hi[i]]`` lies inside this one, so a cut there
    ends the coordinate.  Neither prune depends on the order of the weights.
    """
    n = len(steps)
    hi = [0] * (n + 1)
    lo = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        free = steps[i][0] // order  # the step from residue 0 is the weight's own code
        hi[i] = max(hi[i + 1], free)
        lo[i] = min(lo[i + 1], free)
    vmin = min(vertex_codes) // order
    vmax = max(vertex_codes) // order
    hits = {}
    vec = [0] * n

    def in_reach(i, q, r):
        f = q // order
        return f + r * lo[i] <= vmax and f + r * hi[i] >= vmin

    def explore(i, used, acc, proper):
        if i == n or not in_reach(i, acc, bound - used):
            return
        explore(i + 1, used, acc, proper)
        step = steps[i]
        cur = acc
        shifted = proper
        below = set(proper)  # degrees of the proper sub-vectors once i is raised
        for c in range(1, bound - used + 1):
            below.add(cur)
            cur += step[cur % order]
            shifted = {q + step[q % order] for q in shifted}
            vec[i] = c
            if not shifted.isdisjoint(vertex_codes):
                break  # a proper sub-vector lands
            if cur in vertex_codes:
                hits[tuple(vec)] = cur
                break
            if not in_reach(i, cur, bound - used - c):
                break
            below |= shifted
            explore(i + 1, used + c, cur, below)
        vec[i] = 0

    explore(0, 0, source, set())
    return hits


def arrow_set_without_dead_coordinates(ws, vertices, bound):
    """``quivers._arrow_set`` on the search above: the same arrows, found
    with the sub-vector and free-range prunes alone."""
    codes = IntegerCodes(ws.group)
    steps = [codes.steps(w) for w in ws.weights]
    vertex_index = {codes.code(v): s for s, v in enumerate(vertices)}
    arrows = []
    for s, src in enumerate(vertices):
        found = minimal_hits_without_dead_coordinates(
            steps, codes.order, vertex_index, codes.code(src), bound
        )
        for exps, target in found.items():
            arrows.append(Arrow(s, vertex_index[target], exps))
    return tuple(sorted(arrows, key=lambda a: (a.source, a.target, a.exponents)))


# -- rims and orbits on elements, for the tests only -----------------------


def sorted_unique(elements):
    return tuple(sorted(set(elements), key=GroupElement.key))


def translate(rim, t):
    """The rim translated by the element ``t``."""
    return Rim(sorted_unique(e + t for e in rim))


def orbit_reps(ctx):
    """One representative per orbit of ``h -> h + p``: free part in [0, free(p)).

    They are the elements of codes ``0 .. orbit_count - 1``, in that order."""
    return tuple(ctx.codes.element(c) for c in range(ctx.orbit_count))


def orbit_of(ctx, h):
    """The unique ``(rep, n)`` with ``h = rep + n*p``."""
    n = h.free // ctx.p.free
    return h - n * ctx.p, n


def tau_table(ctx):
    """``tau(a, b)``: the least ``m`` with ``r_a - r_b + m*p`` in the monoid,
    for the orbit representatives ``r`` in code order."""
    reps = orbit_reps(ctx)

    def least_shift(delta):
        rep, n = orbit_of(ctx, delta)  # rep + (n + m)*p is in the monoid iff n + m >= phi(rep)
        return _least_shift(ctx, ctx.codes.code(rep)) - n

    return [[least_shift(ra - rb) for rb in reps] for ra in reps]


def minimal_by_tau(ctx, tau, codes):
    """Oracle for ``_minimal_codes`` on a complete rim of codes, by offsets:
    write the rim element in orbit ``a`` as ``x_a = r_a + n_a*p``.  Returns the
    minimal codes, sorted."""
    n, xs = [None] * ctx.orbit_count, [None] * ctx.orbit_count
    for c in codes:
        rep, m = orbit_of(ctx, ctx.codes.element(c))
        a = ctx.codes.code(rep)
        n[a], xs[a] = m, c
    # x_a lies above x_b iff n_a - n_b >= tau(a, b); minimal: above itself only
    minimal = [
        a for a, row in enumerate(tau) if sum(n[a] - nb >= t for nb, t in zip(n, row)) == 1
    ]
    return sorted(xs[a] for a in minimal)


def make_rim(ctx, elements):
    check = rim_status(ctx, elements)
    if check.status is RimStatus.INVALID:
        x, y = check.witness
        raise ValueError(f"{x} >= {y} + p: not a rim")
    return Rim(sorted_unique(elements))


def in_upper_set(ctx, rim, h):
    """Does ``h`` belong to the upper set with the given rim?"""
    return any(leq(ctx, y, h) for y in rim)


def entry_index(ctx, rim, x):
    """The unique ``n0`` such that ``x + n*p`` is in the upper set iff ``n >= n0``."""
    shifts = (orbit_of(ctx, x - y) for y in rim)  # rep + n*p needs phi(rep) - n more p
    return min(_least_shift(ctx, ctx.codes.code(rep)) - n for rep, n in shifts)


def rim_of_upper_closure(ctx, generators):
    """The complete rim of the upper set generated by the given elements."""
    gens = sorted_unique(generators)
    if not gens:
        raise ValueError("need at least one generator")
    seed = Rim(gens)
    out = [rep + entry_index(ctx, seed, rep) * ctx.p for rep in orbit_reps(ctx)]
    return Rim(sorted_unique(out))


def is_mutation_step(ctx, rim_a, rim_b):
    """Is ``rim_b`` literally a mutation of ``rim_a`` (no translation allowed)?"""
    return any(
        mutate(ctx, rim_a, m).elements == rim_b.elements for m in minimal_elements(ctx, rim_a)
    )


@pytest.fixture(params=sorted(SYSTEM_SPECS))
def system_key(request):
    return request.param


@pytest.fixture
def ctx(system_key):
    return build_context(system_key)


@pytest.fixture
def a1():
    return build_context("a1")


@pytest.fixture
def ca4():
    return build_context("ca4")


@pytest.fixture
def z2():
    return build_context("z2")


@pytest.fixture
def z3():
    return build_context("z3")


@pytest.fixture
def z4():
    return build_context("z4")
