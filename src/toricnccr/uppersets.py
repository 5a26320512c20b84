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
from dataclasses import dataclass

from .errors import DisconnectedGraph, InternalInconsistency, NotMinimal
from .groups import GroupElement
from .poset import GradedContext


class RimStatus(enum.Enum):
    INVALID = "invalid"
    PARTIAL = "partial"
    COMPLETE = "complete"


@dataclass(frozen=True)
class RimCheck:
    status: RimStatus
    witness: tuple[GroupElement, GroupElement] | None = None


@dataclass(frozen=True)
class Rim:
    """A finite rim; ``complete`` means one element per p-orbit."""

    elements: tuple[GroupElement, ...]
    complete: bool

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def serialized(self) -> tuple[tuple, ...]:
        return tuple(e.key() for e in self.elements)

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.elements) + "}"

    def translate(self, t: GroupElement) -> "Rim":
        return Rim(
            tuple(sorted((e + t for e in self.elements), key=GroupElement.key)),
            self.complete,
        )


def _sorted_unique(elements):
    return tuple(sorted(set(elements), key=GroupElement.key))


def rim_status(ctx: GradedContext, elements) -> RimCheck:
    """Classify a finite set as invalid / valid-but-partial / complete rim."""
    elems = _sorted_unique(elements)
    codes, sub = [ctx.codes.code(e) for e in elems], ctx.codes.sub
    for x, cx in zip(elems, codes):
        for y, cy in zip(elems, codes):
            if ctx.member_code(sub(sub(cx, cy), ctx.p_code)):  # x >= y + p
                return RimCheck(RimStatus.INVALID, (x, y))
    if len(elems) == ctx.orbit_count:
        return RimCheck(RimStatus.COMPLETE)
    return RimCheck(RimStatus.PARTIAL)


def make_rim(ctx: GradedContext, elements) -> Rim:
    check = rim_status(ctx, elements)
    if check.status is RimStatus.INVALID:
        x, y = check.witness
        raise ValueError(f"{x} >= {y} + p: not a rim")
    return Rim(_sorted_unique(elements), check.status is RimStatus.COMPLETE)


def in_upper_set(ctx: GradedContext, rim: Rim, h: GroupElement) -> bool:
    """Does ``h`` belong to the upper set with the given rim?"""
    return any(ctx.leq(y, h) for y in rim)


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


def entry_index(ctx: GradedContext, rim: Rim, x: GroupElement) -> int:
    """The unique ``n0`` such that ``x + n*p`` is in the upper set iff ``n >= n0``."""
    shifts = (ctx.orbit_of(x - y) for y in rim)  # rep + n*p needs phi(rep) - n more p
    return min(_least_shift(ctx, ctx.codes.code(rep)) - n for rep, n in shifts)


def rim_of_upper_closure(ctx: GradedContext, generators) -> Rim:
    """The complete rim of the upper set generated by the given elements."""
    gens = _sorted_unique(generators)
    if not gens:
        raise ValueError("need at least one generator")
    seed = Rim(gens, complete=False)
    out = []
    for rep in ctx.orbit_reps():
        n0 = entry_index(ctx, seed, rep)
        out.append(rep + n0 * ctx.p)
    return Rim(_sorted_unique(out), complete=True)


def minimal_elements(ctx: GradedContext, rim: Rim) -> tuple[GroupElement, ...]:
    """Minimal elements of the upper set; they all lie on the rim."""
    codes, sub, member = [ctx.codes.code(e) for e in rim], ctx.codes.sub, ctx.member_code
    return tuple(
        m for m, c in zip(rim, codes) if not any(d != c and member(sub(c, d)) for d in codes)
    )


def mutate(ctx: GradedContext, rim: Rim, m: GroupElement) -> Rim:
    """Remove the minimal element ``m`` from the upper set: swap m for m + p."""
    if not rim.complete:
        raise NotMinimal("mutation needs a complete rim")
    if m not in rim.elements or m not in minimal_elements(ctx, rim):
        raise NotMinimal(f"{m} is not a minimal element")
    swapped = [e for e in rim if e != m] + [m + ctx.p]
    return Rim(_sorted_unique(swapped), complete=True)


def is_mutation_step(ctx: GradedContext, rim_a: Rim, rim_b: Rim) -> bool:
    """Is ``rim_b`` literally a mutation of ``rim_a`` (no translation allowed)?"""
    return any(
        mutate(ctx, rim_a, m).elements == rim_b.elements
        for m in minimal_elements(ctx, rim_a)
    )


# ---------------------------------------------------------------------------
# Translation classes


@dataclass(frozen=True)
class TranslationClass:
    """A translation class of complete rims, held by its canonical member."""

    rim: Rim
    stabilizer_order: int = 1

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
    best = min(_zero_translates(ctx, tuple(sorted(ctx.codes.code(e) for e in rim))))
    return Rim(tuple(ctx.codes.element(c) for c in best), rim.complete)


def _classes(ctx: GradedContext):
    """``(tau, classes)`` for :func:`translation_classes`, on codes: each
    class is ``(canonical rim, stabilizer order, offsets n, rim codes by
    orbit)``, sorted by the rim, a sorted code tuple."""
    k, order, sub, plus_p = ctx.orbit_count, ctx.codes.order, ctx.codes.sub, ctx.plus_p
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
            xs = tuple(ladder[m] for ladder, m in zip(ladders, n))
            rim = tuple(sorted(xs))
            translates = _zero_translates(ctx, rim)
            if min(translates) == rim:
                classes.append((rim, translates.count(rim), n, xs))
            continue
        lo = max(n[b] - d[b][c] for b in range(c))
        hi = min(n[b] + d[c][b] for b in range(c))
        stack.extend(n + (m,) for m in range(lo, hi + 1))
    return tau, sorted(classes)


def _class_nodes(ctx: GradedContext, classes) -> tuple[TranslationClass, ...]:
    element = ctx.codes.element
    return tuple(
        TranslationClass(Rim(tuple(map(element, rim)), True), stab) for rim, stab, *_ in classes
    )


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
    elements are built only for the classes returned.
    """
    return _class_nodes(ctx, _classes(ctx)[1])


# ---------------------------------------------------------------------------
# Exchange graph


@dataclass(frozen=True)
class ExchangeGraph:
    """Mutation moves between translation classes; connected by theorem."""

    nodes: tuple[TranslationClass, ...]
    edges: tuple[tuple[int, int, GroupElement], ...]  # (from, to, minimal element)

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


def exchange_graph(ctx: GradedContext) -> ExchangeGraph:
    """Classes with one edge per (class, minimal element); self-loops kept.

    On a class with offsets ``n``, ``x_a`` is minimal iff ``n_a - n_b <
    tau(a, b)`` for every other orbit ``b``, and mutating it raises ``n_a`` by
    one; the result is looked up by its canonical zero translate.
    """
    tau, classes = _classes(ctx)
    order, plus_p, element = ctx.codes.order, ctx.plus_p, ctx.codes.element
    index = {rim: i for i, (rim, *_) in enumerate(classes)}
    nodes = _class_nodes(ctx, classes)
    edges = []
    for i, (rim, _, n, xs) in enumerate(classes):
        # x_a lies above x_b iff n_a - n_b >= tau(a, b); minimal: above itself only
        minimal = [
            a for a, row in enumerate(tau) if sum(n[a] - nb >= t for nb, t in zip(n, row)) == 1
        ]
        for c in sorted(xs[a] for a in minimal):
            mutated = tuple(sorted(y if y != c else c + plus_p[c % order] for y in rim))
            j = index.get(min(_zero_translates(ctx, mutated)))
            if j is None:
                rim_text = ", ".join(str(element(y)) for y in mutated)
                raise InternalInconsistency(f"mutation left the class list: {{{rim_text}}}")
            edges.append((i, j, element(c)))
    graph = ExchangeGraph(nodes, tuple(edges))
    if not graph.connected:
        raise DisconnectedGraph(f"{len(nodes)} classes fell apart: {graph.edges}")
    return graph
