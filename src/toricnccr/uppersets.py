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
which :func:`translation_classes` solves exactly (the proof is there).

Translation classes quotient by translating rims by arbitrary elements of H.
A rim's *zero translates* are the translates ``rim - x`` by its elements
``x`` of least free part; the canonical representative is the one with the
smallest serialized form.  The enumerator reaches exactly the rims that are
their own zero translate and keeps the canonical ones, so each class is
found once, and the zero translates equal to it count its stabilizer.
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
    for x in elems:
        for y in elems:
            if ctx.leq(y + ctx.p, x):
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


def _least_shift(ctx: GradedContext, delta: GroupElement) -> int:
    """The least ``m`` with ``delta + m*p`` in the monoid.

    Membership is monotone in ``m`` because ``p`` is in the monoid; it fails
    while the free part is negative and holds once it reaches the conductor.
    """
    m = -(delta.free // ctx.p.free)  # first m with free part >= 0
    h = delta + m * ctx.p
    while h.free < ctx.max_conductor and not ctx.member(h):
        h += ctx.p
        m += 1
    return m


def entry_index(ctx: GradedContext, rim: Rim, x: GroupElement) -> int:
    """The unique ``n0`` such that ``x + n*p`` is in the upper set iff ``n >= n0``."""
    return min(_least_shift(ctx, x - y) for y in rim)


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
    out = []
    for m in rim:
        if not any(j != m and ctx.leq(j, m) for j in rim):
            out.append(m)
    return tuple(out)


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


def _zero_translates(rim: Rim) -> list[Rim]:
    """The translates ``rim - x`` by the rim elements ``x`` of least free part."""
    low = min(e.free for e in rim)
    return [rim.translate(-x) for x in rim if x.free == low]


def normalize(ctx: GradedContext, rim: Rim) -> Rim:
    """Canonical translate: the smallest serialization among the translates
    with minimum free part 0.

    The least first key such a translate can have is the zero element's,
    and the translates that start with it are exactly the zero translates,
    so the winner is one of them.  ``ctx`` is unused and kept for callers.
    """
    return min(_zero_translates(rim), key=Rim.serialized)


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
    3. Floyd-Warshall tightens the table to shortest-path bounds ``d``.  A
       negative diagonal entry would mean no rim at all, which the theorem
       rules out.  After the closure, an assignment meeting the bounds among
       its variables extends by any further variable ``c``: the interval
       ``max_b (n_b - d(b, c)) .. min_b (n_b + d(c, b))`` is nonempty since
       ``n_b - n_b' <= d(b, b') <= d(b, c) + d(c, b')``.
    4. Pin ``n = 0`` at the orbit of zero and add the constraints
       ``n_0 - n_a <= 0`` before the closure.  As ``0 <= free(r_a) <
       free(p)``, ``n >= 0`` says exactly that every free part is ``>= 0``,
       so backtracking over plain integers reaches, once each and with no
       dead ends, the rims through zero with minimum free part 0.  Each
       class has exactly one canonical leaf: its canonical rim contains 0
       and has minimum free part 0, and every other leaf of the class has
       the canonical rim among its zero translates.  A leaf is kept iff it
       is the smallest of its zero translates.
    5. Since ``0`` is in a kept rim ``R`` and translations keep the minimum
       free part, ``Stab(R) = {-x : x in R, free(x) = 0, R - x = R}``: the
       stabilizer order is the number of zero translates equal to ``R``.
    """
    reps = ctx.orbit_reps()  # reps[0] is zero
    k = len(reps)
    d = [[_least_shift(ctx, ra - rb) for rb in reps] for ra in reps]
    d[0] = [min(x, 0) for x in d[0]]  # n_a >= n_0 = 0 (step 4)
    for c in range(k):
        row_c = d[c]
        for a in range(k):
            via = d[a][c]
            d[a] = [min(x, via + y) for x, y in zip(d[a], row_c)]
    if any(d[a][a] < 0 for a in range(k)):
        raise InternalInconsistency("the rim constraints admit no complete rim")

    classes = []
    stack = [(0,)]  # offset vectors n, assigned in orbit order
    while stack:
        n = stack.pop()
        c = len(n)
        if c == k:
            rim = Rim(_sorted_unique(r + m * ctx.p for r, m in zip(reps, n)), complete=True)
            key = rim.serialized()
            keys = [t.serialized() for t in _zero_translates(rim)]
            if min(keys) == key:
                classes.append(TranslationClass(rim, keys.count(key)))
            continue
        lo = max(n[b] - d[b][c] for b in range(c))
        hi = min(n[b] + d[c][b] for b in range(c))
        stack.extend(n + (m,) for m in range(lo, hi + 1))
    return tuple(sorted(classes, key=lambda cls: cls.rim.serialized()))


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
    """Classes with one edge per (class, minimal element); self-loops kept."""
    nodes = translation_classes(ctx)
    index = {node.rim.serialized(): i for i, node in enumerate(nodes)}
    edges = []
    for i, node in enumerate(nodes):
        for m in minimal_elements(ctx, node.rim):
            target = normalize(ctx, mutate(ctx, node.rim, m))
            j = index.get(target.serialized())
            if j is None:
                raise InternalInconsistency(f"mutation left the class list: {target}")
            edges.append((i, j, m))
    graph = ExchangeGraph(nodes, tuple(edges))
    if not graph.connected:
        raise DisconnectedGraph(f"{len(nodes)} classes fell apart: {graph.edges}")
    return graph
