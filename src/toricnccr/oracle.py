"""Independent brute-force verification of the Cohen-Macaulay criterion.

A degree fails to be maximal Cohen-Macaulay exactly when some integer vector
``a`` with ``sum a_i * x_i = g`` matches one of two sign patterns: nonnegative
on the positive block and negative everywhere else, or nonnegative on the
negative block and negative everywhere else.  The oracle searches for such
witnesses inside a finite window and cross-checks the order criterion on
bitsets, one int per torsion residue (in :class:`~.poset.IntegerCodes` order)
with bit ``|free|`` per degree: witness tables of the sums of the remaining
weights, per sign pattern and weight, built by doubling over each weight's
coefficients, and MCM sets per sign of the free part, read off the least-code
table as combs.  A range of degrees is checked one XOR per residue and sign,
and only a mismatch builds an element and its lexicographically first witness.

The topological side: a sign vector's nonneg mask selects a subcomplex of the
weight polytope's face complex, empty, a cone or a sphere.  An exact homology
engine on face bitmasks checks which: a vertex shared by all facets proves a
cone, and the rest are ranked over Q by sparse fraction-free elimination.
Windowed local cohomology counts three sign boxes, each met in the middle.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from math import gcd
from operator import and_

from .errors import InputError, OracleMismatch, SearchBudgetExceeded
from .groups import GroupElement, Value, as_items, exact_int
from .poset import GradedContext, IntegerCodes
from .weights import WeightSystem


# ---------------------------------------------------------------------------
# Sign-pattern witnesses


# Work in 64-bit words of a (cap+1)-bit set, refused above this fixed cap
# before it starts: a witness table's build, at most two shift-ORs per
# residue and bit of each weight's coefficient count plus its n + 1 tables,
# or a witness walk, one shift per coefficient.  inputs/z4.json with --range
# -N..N needs about N·log₂N/2, so the cap admits N up to 10,631,103.
WITNESS_WORK_CAP = 1 << 27


def _ranges(ws: WeightSystem, pattern: int, window: int, cap: int, walk=False):
    """Each weight's coefficients in the sign pattern (see :func:`_witness_table`)
    whose term stays within the cap, in increasing order; refused if the table
    on them, or with ``walk`` a witness walk through them, is over the cap."""
    l, lp = ws.positives, ws.negatives
    nonneg = range(l) if pattern == 6 else range(l, l + lp)
    ranges = []
    for i, x in enumerate(ws.weights):
        lo, hi = (0, window) if i in nonneg else (-window, -1)
        if x.free:
            k = cap // abs(x.free)
            ranges.append(range(max(lo, -k), min(hi, k) + 1))
        else:
            ranges.append(range(lo, hi + 1)[: x.order()])
    doublings = sum(2 * len(c).bit_length() for c in ranges) + len(ranges) + 1
    steps = sum(map(len, ranges)) if walk else IntegerCodes(ws.group).order * doublings
    work = steps * (cap // 64 + 1)
    SearchBudgetExceeded.check(
        work, WITNESS_WORK_CAP, f"the witness table needs {work} word operations")
    return tuple(ranges)


# Each cache holds one job's working set and is bounded so that it cannot grow
# for the life of the process: a crosscheck reads the suffix tables of two
# sign patterns at one cap, a system has one face list, and the sign vectors
# of a system with n weights select at most 2^n nonneg masks and distinct
# complexes (64 for six).
@lru_cache(maxsize=4)
def _witness_table(ws: WeightSystem, pattern: int, window: int, cap: int):
    """Suffix reachability tables of one sign pattern, as ``(coefficients, suffix)``.

    A vector matches the pattern when ``a_i`` is in [0, window] on its nonneg
    block and in [-window, -1] elsewhere.  In pattern 6 every term ``a_i x_i``
    has free part >= 0 (``a_i >= 0`` on positive weights, ``a_i < 0`` on
    negative ones, torsion weights add 0), in pattern 7 <= 0.  So partial sums
    from either end are monotone in free part, and within the cap if the sum
    is: ``coefficients[i]`` keeps weight ``i``'s ``c`` with ``|c * free| <=
    cap`` (one period of a torsion weight).  ``suffix[i][r]``, ``r`` a residue
    in code order, has bit ``|f|`` set iff ``(f; r)`` is a sum of weights
    ``i..n-1``: the OR over those ``c`` of ``suffix[i + 1][back_c(r)] << |c *
    free|``, masked to the cap, where ``back_c(r) = r - c * tors``.

    Doubling: walk the range away from 0, ``c_t = c_0 + σt``, so the shift is
    ``|c_0 * free| + t·|free|``; let ``A_m[r] = OR_{t<m} suffix[i +
    1][back_{σt}(r)] << t·|free|``.  As ``back_a ∘ back_b = back_{a+b}``,
    ``A_{2m}[r] = A_m[r] | A_m[back_{σm}(r)] << m·|free|`` (the terms ``t = m
    .. 2m-1``) and ``A_{m+1}[r] = A_1[r] | A_m[back_σ(r)] << |free|``.  From
    ``A_0 = 0``, ``n``'s bits, top down, give ``A_n`` in O(log n) shift-ORs
    per residue; ``suffix[i][r] = A_n[back_{c_0}(r)] << |c_0 * free|``.
    Masking each step drops nothing: shifts only move bits up.
    """
    codes = IntegerCodes(ws.group)
    order, ranges = codes.order, _ranges(ws, pattern, window, cap)

    def back(x, c):  # the residue map r -> r - c * tors
        ct = codes.encode(0, [c * t for t in x.tors])
        return [codes.sub(r, ct) for r in range(order)]

    mask = (1 << cap + 1) - 1
    suffix = [[1] + [0] * (order - 1)]  # the empty sum: only 0
    for x, coefficients in zip(reversed(ws.weights), reversed(ranges)):
        if coefficients.start < 0:
            coefficients = coefficients[::-1]
        f, one, base = abs(x.free), back(x, coefficients.step), suffix[-1]
        a, move, m = [0] * order, list(range(order)), 0  # A_m and back_{σm}
        for bit in bin(len(coefficients))[2:]:
            a = [(t | a[s] << m * f) & mask for t, s in zip(a, move)]
            move, m = [move[s] for s in move], 2 * m
            if bit == "1":
                a = [(t | a[s] << f) & mask for t, s in zip(base, one)]
                move, m = [move[s] for s in one], m + 1
        c = coefficients.start  # c_0, or any c when there is none and A_0 is empty
        suffix.append([a[s] << abs(c * x.free) & mask for s in back(x, c)])
    return ranges, tuple(reversed(suffix))


def _witness(ws: WeightSystem, code: int, window: int, cap: int):
    """The lexicographically first witness summing to the source ``code``, or
    ``None``: front to back, each coordinate takes the first coefficient whose
    remainder lies in the next suffix table, that is, has a completion.

    The sign of the free part picks the pattern: a sum of free part 0 has all
    terms 0, impossible in a rank-one system, and without free weights the two
    patterns coincide."""
    codes = IntegerCodes(ws.group)
    free, r = divmod(code, codes.order)
    ranges, suffix = _witness_table(ws, 6 if free >= 0 else 7, window, cap)
    u = abs(free)
    if not suffix[0][r] >> u & 1:
        return None
    a = []
    for x, coefficients, after in zip(ws.weights, ranges, suffix[1:]):
        for c in coefficients:
            shift, s = abs(c * x.free), codes.sub(r, codes.encode(0, [c * t for t in x.tors]))
            if shift <= u and after[s] >> u - shift & 1:
                break
        a.append(c)
        u, r = u - shift, s
    return tuple(a)


def sign_pattern_witness(ws: WeightSystem, g: GroupElement, window: int):
    """A vector ``a`` with ``|a_i| <= window`` and ``sum a_i x_i = g`` matching
    one of the two non-Cohen-Macaulay sign patterns, or ``None``; the
    lexicographically first one.

    >>> from toricnccr import FGGroup, validate
    >>> Z = FGGroup(1, ())
    >>> a1 = validate(Z, [Z.element(w) for w in (1, 1, -1, -1)])
    >>> sign_pattern_witness(a1, Z.element(2), 12)
    (0, 0, -1, -1)
    """
    if exact_int(window, "window") < 1:
        raise InputError("window must be at least 1")
    # any cap >= |free(g)| is exact; a power of two lets calls share tables
    code, cap = IntegerCodes(ws.group).code(g), 1 << abs(g.free).bit_length()
    _ranges(ws, 6 if g.free >= 0 else 7, window, cap, walk=True)
    return _witness(ws, code, window, cap)


def _window_bound(ctx: GradedContext, max_free: int) -> int:
    """:func:`sufficient_window` for degrees of largest ``|free|`` ``max_free``."""
    block = max(0, max_free - ctx.p.free) // min(g.free for g in ctx.generators) + 1
    return max([block, *(x.order() for x in ctx.weights.torsion_weights)])


def sufficient_window(ctx: GradedContext, degrees) -> int:
    """A window size provably large enough for the crosscheck on these degrees.

    Whenever an (unbounded) witness exists, one exists with positive/negative
    block entries at most ``(max |free(g)| - free(p)) / min generator free
    part + 1`` and torsion-weight entries at most the weight's order.
    """
    codes = ctx.source_codes.codes_of(degrees, "degrees")  # refuses a degree outside G
    return _window_bound(ctx, max((abs(c // ctx.source_codes.order) for c in codes), default=0))


class CrosscheckReport(Value, fields=("checked", "agreements", "mismatches", "window")):
    def summary(self) -> str:
        return f"agree: {self.agreements}/{self.checked}, mismatches: {len(self.mismatches)}"


def _mcm_sets(ctx: GradedContext, cap: int):
    """Per torsion residue ``r`` of G, bit ``u <= cap`` set iff ``(u; r)`` is
    MCM, and in a second list iff ``(-u; r)`` is.  For ``h = q(f; r) = (f;
    s)`` that is iff neither ``h - p`` nor ``-p - h`` is in the monoid, whose
    members have free part >= 0: for ``f = u`` only ``h - p``, coded ``u·|T|
    + k``, can be, and for ``f = -u`` only ``-p - h``, coded ``u·|T| + k'``.
    Adding ``E`` to ``u`` adds ``N = E·|T|`` to such a code, so the members
    with ``u ≡ j (mod E)`` are those from the least code of their class mod
    ``N`` up (:class:`~.poset.GradedContext`): a comb of period ``E`` cut
    below a threshold, and at most ``min(E, cap + 1)`` combs per set."""
    least, n, order, sub = ctx.least, len(ctx.least), ctx.codes.order, ctx.codes.sub
    e, full = n // order, (1 << cap + 1) - 1
    top = cap // e
    comb = ((1 << e * (top + 1)) - 1) // ((1 << e) - 1)  # bits 0, E, ..., E·top

    def mcm(k):  # bit u set iff k + u·|T| is not in the monoid
        members = 0
        for j in range(min(e, cap + 1)):
            c = k + j * order
            m = max((least[c % n] - c) // n, 0)  # the threshold is u = j + E·m
            if m <= top:
                members |= comb >> e * m << j + e * m
        return full & ~members

    above = [mcm(sub(s, ctx.p_code)) for s in range(order)]  # h - p
    below = [mcm(sub(0, s + ctx.plus_p[s])) for s in range(order)]  # -p - h
    return tuple([half[s] for s in ctx._torsion_image] for half in (above, below))


def _crosscheck(ctx: GradedContext, codes, cap: int, window: int) -> CrosscheckReport:
    """:func:`crosscheck_mcm` on source codes of largest ``|free|`` ``cap``.

    A code's free part is ``c // |T|`` and its residue ``c % |T|``; its MCM
    test and its witness test are one bit each, of :func:`_mcm_sets` and of
    the first suffix table of its sign pattern, compared first one XOR per
    residue and sign.  An element, and its witness, is built only for a
    mismatch."""
    need = _window_bound(ctx, cap)
    if exact_int(window, "window") < need:
        raise InputError(f"window {window} below the sufficiency bound {need}")
    ws, order, element = ctx.weights, ctx.source_codes.order, ctx.source_codes.element
    # one cap for all degrees, so both patterns' tables are built once; the
    # sign of the free part picks the pattern, as in _witness
    first = [_witness_table(ws, pattern, window, cap)[1][0] for pattern in (6, 7)]
    mcm, full, mismatches = _mcm_sets(ctx, cap), (1 << cap + 1) - 1, []
    # MCM iff no witness: the codes are walked only if a bit of -cap..cap disagrees
    if any(~(m ^ w) & full for half, wits in zip(mcm, first) for m, w in zip(half, wits)):
        for c in codes:
            free, r = divmod(c, order)
            is_mcm = mcm[free < 0][r] >> abs(free) & 1
            if is_mcm == first[free < 0][r] >> abs(free) & 1:
                mismatches.append((element(c), bool(is_mcm), _witness(ws, c, window, cap)))
    report = CrosscheckReport(len(codes), len(codes) - len(mismatches), tuple(mismatches), window)
    if mismatches:
        raise OracleMismatch(report)
    return report


def crosscheck_mcm(ctx: GradedContext, degrees, window: int) -> CrosscheckReport:
    """Assert ``is_mcm(g) <=> no sign-pattern witness`` for every degree.

    Raises :class:`OracleMismatch`, which carries the report, on any
    disagreement (a bug: the equivalence is a theorem).
    """
    codes = ctx.source_codes.codes_of(degrees, "degrees")
    cap = max((abs(c // ctx.source_codes.order) for c in codes), default=0)
    return _crosscheck(ctx, codes, cap, window)


def crosscheck_range(ctx: GradedContext, lo: int, hi: int, window: int) -> CrosscheckReport:
    """:func:`crosscheck_mcm` on every degree of free part ``lo..hi``, in code
    order: by free part, then by torsion residue, lexicographically."""
    order = ctx.source_codes.order
    return _crosscheck(ctx, range(lo * order, (hi + 1) * order), max(-lo, hi, 0), window)


# ---------------------------------------------------------------------------
# The face complex of a sign vector


def _is_face(ws: WeightSystem, mask: int) -> bool:
    """Is the vertex mask a face?  Iff some ``sum s_i x_i = 0`` has ``s`` zero
    on it and positive off it: iff its complement is empty, holds a positive
    and a negative weight, or holds only torsion weights (killed by order)."""
    rest, l = ~mask & (1 << len(ws.weights)) - 1, ws.positives
    return bool(rest & (1 << l) - 1) == bool(rest >> l & (1 << ws.negatives) - 1)


def face_test(ws: WeightSystem, indices) -> bool:
    """Is the vertex subset (0-based weight positions) a face of the polytope?"""
    n, indices = len(ws.weights), as_items(indices, "vertex indices")
    if bad := [i for i in indices if not 0 <= exact_int(i, "vertex index") < n]:
        raise InputError(f"vertex index {bad[0]} outside 0..{n - 1}")
    return _is_face(ws, sum({1 << i for i in indices}))


class HomotopyType(Value, fields=("kind", "dim")):
    dim = None  # kind is "empty", "contractible" or "sphere"; a sphere has a dim

    def betti_profile(self) -> dict[int, int]:
        if self.kind == "empty":
            return {-1: 1}
        return {} if self.dim is None else {self.dim: 1}

    def __str__(self):
        return f"S^{self.dim}" if self.kind == "sphere" else self.kind


EMPTY = HomotopyType("empty")
CONTRACTIBLE = HomotopyType("contractible")


@lru_cache(maxsize=16)
def sphere(dim: int) -> HomotopyType:
    return HomotopyType("sphere", dim)


def _nonneg_mask(ws: WeightSystem, a) -> int:
    """The sign vector's nonnegative positions, bit ``i`` for weight ``i``."""
    try:
        a, mask = tuple(a), 0
        if len(a) != len(ws.weights):
            raise InputError(f"sign vector length {len(a)}, expected {len(ws.weights)}")
        for i, v in enumerate(a):
            if v >= 0:
                mask |= 1 << i
    except TypeError:  # no tuple, or an entry that has no order against 0
        raise InputError(f"a sign vector is a sequence of numbers, got {a!r}") from None
    return mask


def classify_sign_vector(ws: WeightSystem, a) -> HomotopyType:
    """Homotopy type of the support subcomplex selected by the sign vector:
    empty if no coordinate is nonnegative, else ``S^{l-2}`` (``S^{l'-2}``) if
    exactly the positive (negative) block ``P`` (``N``) is, else contractible.

    Apex lemma: a nonneg mask ``m`` other than ∅, ``P``, ``N`` holds an apex
    ``v``: a face inside ``m`` plus ``v`` is a face, as its complement loses
    ``v`` yet meets the same blocks if ``v`` is torsion or another weight of
    ``v``'s sign lies outside ``m``.  Else ``m`` has no torsion and each block
    whole or not at all, so ``m = P ∪ N``, a face.  Either way the complex is
    a cone.  Inside ``P`` every complement meets ``N``, so the faces are the
    proper subsets, a sphere; likewise ``N`` (both ∅ on rank-zero systems)."""
    mask, l, lp = _nonneg_mask(ws, a), ws.positives, ws.negatives
    if not mask:
        return EMPTY
    if mask == (1 << l) - 1:
        return sphere(l - 2)
    return sphere(lp - 2) if mask == (1 << lp) - 1 << l else CONTRACTIBLE


class SimplicialComplex(Value, fields=("vertex_count", "facets")):
    """Finite abstract complex given by its facets (downward closure implied)."""

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertex_count, self.facets))

    def __hash__(self):  # hashed once, not on every lookup in the homology cache
        return self._hash


@lru_cache(maxsize=8)
def _face_masks(ws: WeightSystem) -> tuple[int, ...]:
    """The nonempty faces as vertex masks, largest first."""
    faces = [m for m in range(1, 1 << len(ws.weights)) if _is_face(ws, m)]
    return tuple(sorted(faces, key=int.bit_count, reverse=True))


def support_complex(ws: WeightSystem, a) -> SimplicialComplex:
    """The complex of faces whose vertices all have nonnegative sign."""
    return _support_complex(ws, _nonneg_mask(ws, a))


@lru_cache(maxsize=64)
def _support_complex(ws: WeightSystem, nonneg_mask: int) -> SimplicialComplex:
    """:func:`support_complex` by its mask of nonnegative positions.  Its
    facets: the member faces, largest first, each kept unless inside one kept
    (exact, as a member inside a larger one lies inside a maximal one).  A
    nonempty mask that is a face holds every member, so it is the one facet."""
    faces = [nonneg_mask] if nonneg_mask and _is_face(ws, nonneg_mask) else _face_masks(ws)
    kept, n, outside = [], len(ws.weights), ~nonneg_mask
    for mask in faces:  # mask & other == mask: inside a kept facet
        if not mask & outside and mask not in map(mask.__and__, kept):
            kept.append(mask)
    facets = sorted(tuple(v for v in range(n) if m >> v & 1) for m in kept)
    return SimplicialComplex(n, tuple(facets))


# ---------------------------------------------------------------------------
# Exact simplicial homology


def _rank(columns) -> dict[int, dict[int, int]]:
    """Sparse exact elimination over Q of columns ``{row: nonzero entry}``:
    the kept columns by pivot row, as many as the rank.  A column ``v`` with
    ``a`` in the pivot row of a kept ``p`` holding ``b`` there becomes ``b·v -
    a·p`` over its content, against the kept columns in the order kept; each
    is zero in earlier pivot rows, so one pass clears them all.  What is
    left, if anything, is kept, pivoting on a ±1 entry if it has one."""
    pivots = {}
    for v in columns:
        for row, p in pivots.items():
            if a := v.get(row):
                b = p[row]
                v = {r: b * e for r, e in v.items()}
                for r, e in p.items():
                    v[r] = v.get(r, 0) - a * e
                d = gcd(*v.values()) or 1
                v = {r: e // d for r, e in v.items() if e}
        if v:
            pivots[next((r for r, e in v.items() if e in (1, -1)), next(iter(v)))] = v
    return pivots


def _boundary(s: int) -> dict[int, int]:  # (-1)^(bits of s below v) on s ^ v, per bit v of s
    column, rest = {}, s
    while rest:
        v = rest & -rest
        column[s ^ v] = -1 if (s & v - 1).bit_count() & 1 else 1
        rest ^= v
    return column


@lru_cache(maxsize=128)
def reduced_homology(complex_: SimplicialComplex) -> tuple[tuple[int, int], ...]:
    """Reduced Betti numbers over Q as ``((degree, rank), ...)`` for degrees
    -1 .. dim, the empty face included (the empty complex has a unit in -1).
    If the facet masks AND to nonzero, a vertex ``v`` lies in every facet, so
    in one beside each face: the complex is a cone on ``v``, contractible to
    it along straight lines, and every number is 0."""
    masks = [sum(1 << v for v in facet) for facet in complex_.facets]
    if masks and reduce(and_, masks):
        return tuple((k, 0) for k in range(-1, max(map(len, complex_.facets))))
    return _eliminate(masks)


def _eliminate(masks) -> tuple[tuple[int, int], ...]:
    """:func:`reduced_homology` of the facet masks: ``faces[k + 1]`` holds the
    ``k``-faces as bitmasks, the nonempty submasks of the facets; ranks of
    ``C_k -> C_{k-1}`` are taken top down, leaving out of ``C_k`` the pivot
    rows of ``C_{k+1} -> C_k``, on which its kept columns are invertible:
    every chain is a boundary plus one zero on them."""
    faces = [{0}] + [set() for _ in range(max((m.bit_count() for m in masks), default=0))]
    for top in masks:
        s = top
        while s:
            faces[s.bit_count()].add(s)
            s = s - 1 & top
    ranks, pivots = [0] * (len(faces) + 1), {}
    for k in range(len(faces) - 1, 0, -1):
        pivots = _rank(_boundary(s) for s in faces[k] if s not in pivots)
        ranks[k] = len(pivots)
    return tuple((k - 1, len(layer) - ranks[k] - ranks[k + 1]) for k, layer in enumerate(faces))


def betti_numbers(complex_: SimplicialComplex) -> dict[int, int]:
    return dict(reduced_homology(complex_))


# ---------------------------------------------------------------------------
# Windowed local cohomology


def _box_count(ws: WeightSystem, boxes, target: int, codes: IntegerCodes) -> int:
    """The number of vectors with ``a_i`` in ``boxes[i]`` and ``sum a_i x_i``
    coded ``target``, met in the middle: each half of the weights is tabulated
    by the code of its sum, where adding ``c * x`` to a code ``v`` adds
    ``steps(c * x)[v % |T|]``, and the halves are joined on ``target - sum``."""
    def half(indices):
        counts = {0: 1}
        for i in indices:
            moves = [codes.steps(c * ws.weights[i]) for c in boxes[i]]
            new: dict = {}
            for value, cnt in counts.items():
                for steps in moves:
                    key = value + steps[value % codes.order]
                    new[key] = new.get(key, 0) + cnt
            counts = new
        return counts

    n = len(boxes)
    right = half(range(n // 2, n))
    return sum(cnt * right.get(codes.sub(target, v), 0) for v, cnt in half(range(n // 2)).items())


def local_cohomology_window(ws: WeightSystem, g: GroupElement, window: int) -> dict[int, int]:
    """Per cohomological degree, the number of windowed sign vectors whose
    support complex contributes there; a lower bound for the true dimensions.

    By the apex lemma (:func:`classify_sign_vector`) only the nonneg masks ∅,
    ``P`` and ``N`` have reduced homology, one unit in degree -1, ``l - 2``
    and ``l' - 2``, and every other mask selects a cone.  So each mask counts
    the vectors of one box: [0, window] on the mask, [-window, -1] off it.
    """
    if exact_int(window, "window") < 0:
        raise InputError("window must be nonnegative")
    codes, n, l, lp = IntegerCodes(ws.group), len(ws.weights), ws.positives, ws.negatives
    target, d = codes.code(g), ws.ring_dimension - 1
    spheres = [(l - 2, range(l)), (lp - 2, range(l, l + lp))] if l else []  # P = N = ∅ in rank 0
    totals: dict[int, int] = {}
    for deg, mask in [(-1, range(0)), *spheres]:
        boxes = [range(window + 1) if i in mask else range(-window, 0) for i in range(n)]
        if count := _box_count(ws, boxes, target, codes):
            totals[d - deg] = totals.get(d - deg, 0) + count
    return totals
