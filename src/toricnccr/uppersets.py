"""Non-trivial upper sets in H, their finite rims, enumeration and mutation.

A non-trivial upper set ``I`` in H is encoded by its *rim*: the elements of
``I`` that leave ``I`` when ``p`` is subtracted.  A finite set ``J`` is a
valid rim fragment iff no element dominates another shifted by ``p``
(``x >= y + p`` never holds for ``x, y`` in ``J``); it is *complete* iff it
moreover meets every orbit of the ``+p`` action, which pins down ``I`` as the
set of elements above some rim member.  Mutation removes a minimal element
``m`` of ``I``, which on rims swaps ``m`` for ``m + p``.

A complete rim is an integer vector ``n``, one entry per orbit: its element
in orbit ``a`` is ``r_a + n_a*p``.  The rim condition becomes the difference
constraints ``n_a - n_b <= tau(a, b)`` of a per-orbit-pair threshold table,
which :func:`translation_classes` solves in closed form (the proof is there).

Translation classes quotient by translating rims by arbitrary elements of H.
A rim's *zero translates* are the translates ``rim - x`` by its elements
``x`` of least free part; the canonical representative is the one with the
smallest serialized form.  The enumerator reaches exactly the rims that are
their own zero translate and keeps the canonical ones, so each class is
found once, and the zero translates equal to it count its stabilizer.

All of this runs on the integer codes of H (see :mod:`.poset`): rims are
sorted code tuples, which compare as their serializations.
"""

from __future__ import annotations

import enum

from .errors import DisconnectedGraph, InternalInconsistency, NotMinimal, SearchBudgetExceeded
from .groups import GroupElement, Value
from .poset import LEAST_CODES_CAP, GradedContext


class RimStatus(enum.Enum):
    INVALID = "invalid"
    PARTIAL = "partial"
    COMPLETE = "complete"


class RimCheck(Value, fields=("status", "witness")):
    witness = None


class Rim(Value, fields=("elements",)):
    """A finite rim, held by its elements alone: it is complete iff it has
    one element per p-orbit, ``ctx.orbit_count`` of them."""

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def serialized(self) -> tuple[tuple, ...]:
        return tuple(e.key() for e in self.elements)

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


def _rim_witness(ctx: GradedContext, codes) -> tuple[int, int] | None:
    """The first pair ``(x, y)`` of the sorted codes with ``x >= y + p``, or None."""
    order, sub, member = ctx.codes.order, ctx.codes.sub, ctx.member_code
    y_plus_p = [(y, y + ctx.plus_p[y % order]) for y in codes]
    for x in codes:
        for y, yp in y_plus_p:
            if member(sub(x, yp)):
                return x, y
    return None


def rim_status(ctx: GradedContext, elements) -> RimCheck:
    """Classify a finite set as invalid / valid-but-partial / complete rim."""
    codes = sorted(set(ctx.codes.codes_of(elements, "elements")))
    witness = _rim_witness(ctx, codes)
    if witness is not None:
        return RimCheck(RimStatus.INVALID, tuple(map(ctx.codes.element, witness)))
    if len(codes) == ctx.orbit_count:
        return RimCheck(RimStatus.COMPLETE)
    return RimCheck(RimStatus.PARTIAL)


def _least_shift(ctx: GradedContext, c: int) -> int:
    """``phi(c)``: the least ``m`` with ``c + m*p`` in the monoid, for the code
    ``c`` of an orbit representative (free part in ``[0, free(p))``, so no
    ``m < 0`` qualifies).  Membership is monotone in ``m`` because ``p`` is in
    the monoid, and holds once the free part reaches the conductor."""
    order, plus_p = ctx.codes.order, ctx.plus_p
    top = ctx.max_conductor * order
    m = 0
    while c < top and not ctx.member_code(c):
        c += plus_p[c % order]
        m += 1
    return m


def _minimal_codes(ctx: GradedContext, codes) -> list[int]:
    """The codes lying above no other code of the list, in list order."""
    sub, member = ctx.codes.sub, ctx.member_code
    return [c for c in codes if not any(d != c and member(sub(c, d)) for d in codes)]


def minimal_elements(ctx: GradedContext, rim: Rim) -> tuple[GroupElement, ...]:
    """Minimal elements of the upper set; they all lie on the rim."""
    codes = ctx.codes.codes_of(rim, "rim")
    return tuple(map(ctx.codes.element, _minimal_codes(ctx, codes)))


def _swap_up(ctx: GradedContext, codes, c: int) -> tuple[int, ...]:
    """One mutation step on codes: the sorted codes with ``c`` swapped for ``c + p``."""
    cp = c + ctx.plus_p[c % ctx.codes.order]
    return tuple(sorted({cp if y == c else y for y in codes}))


def mutate(ctx: GradedContext, rim: Rim, m: GroupElement) -> Rim:
    """Remove the minimal element ``m`` from the upper set of a complete rim:
    swap m for m + p."""
    codes, mc = sorted(set(ctx.codes.codes_of(rim, "rim"))), ctx.codes.code(m)
    if len(codes) != ctx.orbit_count:
        raise NotMinimal("mutation needs a complete rim")
    if (witness := _rim_witness(ctx, codes)) is not None:
        x, y = map(ctx.codes.element, witness)
        raise NotMinimal(f"{x} >= {y} + p: not a rim")
    if mc not in _minimal_codes(ctx, codes):  # so m lies on the rim
        raise NotMinimal(f"{m} is not a minimal element")
    return Rim(tuple(map(ctx.codes.element, _swap_up(ctx, codes, mc))))


# ---------------------------------------------------------------------------
# Translation classes


class TranslationClass(Value, fields=("rim", "stabilizer_order")):
    """A translation class of complete rims, held by its canonical member."""

    stabilizer_order = 1

    def __str__(self):
        return str(self.rim)


def _zero_translates(ctx: GradedContext, rim: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The translates ``rim - x`` by the elements ``x`` of least free part, on
    a sorted code tuple; each comes out sorted."""
    order, sub = ctx.codes.order, ctx.codes.sub
    low = rim[0] // order
    return [tuple(sorted(sub(y, x) for y in rim)) for x in rim if x // order == low]


def normalize(ctx: GradedContext, rim: Rim) -> Rim:
    """Canonical translate: the smallest serialization among the translates
    with minimum free part 0.

    The least first key such a translate can have is the zero element's,
    and the translates that start with it are exactly the zero translates,
    so the winner is one of them.
    """
    codes = tuple(sorted(ctx.codes.codes_of(rim, "rim")))
    if not codes:
        raise NotMinimal("a canonical form needs a nonempty rim")
    best = min(_zero_translates(ctx, codes))
    return Rim(tuple(map(ctx.codes.element, best)))


def _classes(ctx: GradedContext) -> list[tuple[tuple[int, ...], int]]:
    """The classes of :func:`translation_classes` on codes: ``(canonical
    rim, stabilizer order)`` pairs, sorted by the rim, a sorted code tuple."""
    k, order, sub, plus_p = ctx.orbit_count, ctx.codes.order, ctx.codes.sub, ctx.plus_p
    SearchBudgetExceeded.check(
        k * k, LEAST_CODES_CAP, f"the difference and tau tables need k^2 = {k}^2 = {k * k} entries")
    phi = [_least_shift(ctx, c) for c in range(k)]
    # r_a - r_b is r_c (code c >= 0) or r_c - p (c < 0): tau is phi(c) or phi(c) + 1
    diffs = [[sub(a, b) for b in range(k)] for a in range(k)]
    tau = [[phi[c] if c >= 0 else phi[c + plus_p[c % order]] + 1 for c in row] for row in diffs]
    d = [[min(t, row[0]) for t in row] for row in tau]  # step 3
    ladders = [[a] for a in range(k)]  # ladders[a][m]: code of r_a + m*p, 0 <= m <= d(a, 0)
    for a, ladder in enumerate(ladders):
        while len(ladder) <= d[a][0]:
            ladder.append(ladder[-1] + plus_p[ladder[-1] % order])

    classes = []
    stack = [(0,)]  # offset vectors n, assigned in orbit order
    while stack:
        n = stack.pop()
        c = len(n)
        if c == k:
            rim = tuple(sorted(ladder[m] for ladder, m in zip(ladders, n)))
            translates = _zero_translates(ctx, rim)
            if min(translates) == rim:
                classes.append((rim, translates.count(rim)))
            continue
        lo = max(n[b] - d[b][c] for b in range(c))
        hi = min(n[b] + d[c][b] for b in range(c))
        stack.extend(n + (m,) for m in range(lo, hi + 1))
    return sorted(classes)


def _class_nodes(ctx: GradedContext, classes):
    """The classes as values, and the element of each code they share, by code."""
    element = ctx.codes.elements(c for rim, _ in classes for c in rim).__getitem__
    nodes = tuple(TranslationClass(Rim(tuple(map(element, rim))), stab) for rim, stab in classes)
    return nodes, element


def translation_classes(ctx: GradedContext) -> tuple[TranslationClass, ...]:
    """All translation classes of complete rims, canonically ordered.

    Write the rim element in orbit ``a`` as ``x_a = r_a + n_a*p``, with
    ``r_a`` the orbit representative, and let ``tau(a, b)`` be the least
    ``m`` with ``r_a - r_b + m*p`` in the monoid.

    1. ``tau`` is finite: a free part below 0 is never in the monoid, one at
       or above the conductor always is.  Membership of ``r_a - r_b + m*p``
       is monotone in ``m`` because ``p`` is in the monoid.
    2. So ``x_a >= x_b + p``, i.e. ``r_a - r_b + (n_a - n_b - 1)*p`` in the
       monoid, holds iff ``n_a - n_b > tau(a, b)``: the complete rims are
       exactly the integer vectors with ``n_a - n_b <= tau(a, b)`` for all
       ``a, b``.
    3. ``tau >= 0`` (``r_a - r_b - p`` has negative free part) and ``tau`` obeys
       the triangle inequality (the monoid is closed under addition), so the
       shortest-path bounds under step 4's extra ``n_0 - n_a <= 0`` are
       ``d(a, b) = min(tau(a, b), tau(a, 0))``.  By ``d``'s own triangle
       inequality, an assignment meeting the bounds among its variables
       extends to any further ``c``: ``max_b (n_b - d(b, c)) <= min_b (n_b +
       d(c, b))``.
    4. Pin ``n = 0`` at the orbit of zero and add the constraints
       ``n_0 - n_a <= 0``.  As ``0 <= free(r_a) < free(p)``, ``n >= 0`` says
       exactly that every free part is ``>= 0``, so backtracking over plain
       integers reaches, once each and with no dead ends, the rims through
       zero with minimum free part 0.  Each class has exactly one canonical
       leaf: its canonical rim contains 0 and has minimum free part 0, and
       every other leaf of the class has the canonical rim among its zero
       translates.  A leaf is kept iff it is the smallest of its zero
       translates.
    5. Since ``0`` is in a kept rim ``R`` and translations keep the minimum
       free part, ``Stab(R) = {-x : x in R, free(x) = 0, R - x = R}``: the
       stabilizer order is the number of zero translates equal to ``R``.

    The work runs on integer codes, where rims sort as their serializations;
    elements are built once per distinct code of the classes returned.
    """
    return _class_nodes(ctx, _classes(ctx))[0]


# ---------------------------------------------------------------------------
# Exchange graph


class ExchangeGraph(Value, fields=("nodes", "edges")):
    """Mutation moves between translation classes, connected by theorem;
    ``edges`` holds (from, to, minimal element) triples."""

    @property
    def connected(self) -> bool:
        if not self.nodes:
            return True
        seen = {0}
        frontier = [0]
        adj = {i: set() for i in range(len(self.nodes))}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self.nodes)


def _class_of(ctx: GradedContext, index: dict[tuple[int, ...], int], rim: tuple[int, ...]) -> int:
    """The number in ``index`` of the class of ``rim``, a sorted code tuple, by canonical form."""
    j = index.get(min(_zero_translates(ctx, rim)))
    if j is None:
        rim_text = ", ".join(str(ctx.codes.element(y)) for y in rim)
        raise InternalInconsistency(f"mutation left the class list: {{{rim_text}}}")
    return j


def exchange_graph(ctx: GradedContext) -> ExchangeGraph:
    """Classes with one edge per (class, minimal element); self-loops kept.

    Each class's minimal elements come from the same test as :func:`mutate`'s,
    in rim order; mutating one swaps it for itself plus ``p``, and the result
    is looked up by :func:`_class_of`.
    """
    classes = _classes(ctx)
    index = {rim: i for i, (rim, _) in enumerate(classes)}
    nodes, element = _class_nodes(ctx, classes)
    edges = [
        (i, _class_of(ctx, index, _swap_up(ctx, rim, c)), element(c))
        for i, (rim, _) in enumerate(classes) for c in _minimal_codes(ctx, rim)
    ]
    graph = ExchangeGraph(nodes, tuple(edges))
    if not graph.connected:
        raise DisconnectedGraph(f"{len(nodes)} classes fell apart: {graph.edges}")
    return graph
