"""Quivers of endomorphism algebras of summand sets, and DOT output.

Morphisms between divisorial modules of degrees ``u`` and ``v`` are spanned
by the monomials of degree ``v - u``, so the quiver of the endomorphism
algebra of a summand set has one arrow per irreducible monomial: an exponent
vector none of whose proper nonzero sub-vectors lands on a summand degree.
Equivalently, the arrows out of ``u`` are the minimal nonzero exponent
vectors (componentwise order) whose degree shifts ``u`` back into the set.

Irreducible monomials have bounded total degree: :func:`degree_bound` proves
``(span + 2M)·|T|`` from the vertex free parts, the weights and the torsion
order, so one depth-first search to that bound finds every arrow.  A caller
may cap the search lower; a :class:`BoundTooSmall` warning then says that
arrows may be missing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import BoundTooSmall, InfiniteGroup, InternalInconsistency
from .groups import GroupElement
from .poset import GradedContext
from .weights import WeightSystem


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    exponents: tuple[int, ...]

    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class Quiver:
    """Vertices labeled by degrees, arrows labeled by exponent vectors."""

    vertices: tuple[GroupElement, ...]
    arrows: tuple[Arrow, ...]

    def loops(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.is_loop())


def monomial_label(exponents) -> str:
    """Render an exponent vector: ``x1*x3^2`` style, ``1`` for the constant."""
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def hom_monomial_count(ws: WeightSystem, g: GroupElement, h: GroupElement, bound: int) -> int:
    """Number of monomials of total degree <= bound mapping degree g to h."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    target = h - g
    n = len(ws.weights)

    def count(i, budget, partial):
        if i == n:
            return int(partial == target)
        total = 0
        cur = partial
        for c in range(budget + 1):
            if c:
                cur = cur + ws.weights[i]
            total += count(i + 1, budget - c, cur)
        return total

    return count(0, bound, ws.group.zero())


def default_search_bound(ctx: GradedContext) -> int:
    """The conductor-derived heuristic bound the arrow search once used.

    The search no longer calls it (see :func:`degree_bound`);
    ``perfbench/spans.py`` still reports it as ``quivers.search_bound``.
    """
    ws = ctx.weights
    return (ws.positives + ws.negatives) * (1 + ctx.max_conductor + ctx.p.free)


def _minimal_hits(weights_raw, dims, vertex_index, source_raw, bound: int):
    """Minimal nonzero exponent vectors whose degree lands ``source`` in the set.

    Depth-first over exponent vectors with total degree <= bound; once a
    partial vector hits the vertex set, every extension or higher exponent is
    dominated and the branch is cut.  A final componentwise filter removes
    non-minimal leftovers (the search only prunes prefix domination).
    Coordinates are raw ``(free, t_1, ...)`` tuples for speed.
    """
    n = len(weights_raw)
    hits = []
    vec = [0] * n

    def explore(i, used, acc):
        if i == n:
            return
        explore(i + 1, used, acc)
        w = weights_raw[i]
        c = 0
        cur = acc
        while used + c + 1 <= bound:
            c += 1
            cur = tuple((a + b) % d if d else a + b for a, b, d in zip(cur, w, dims))
            vec[i] = c
            if cur in vertex_index:
                hits.append((tuple(vec), cur))
                break
            explore(i + 1, used + c, cur)
        vec[i] = 0

    explore(0, 0, source_raw)

    minimal = {}
    for a, target in hits:
        if not any(b != a and all(x <= y for x, y in zip(b, a)) for b, _ in hits):
            minimal[a] = target
    return minimal


def _arrow_set(ws: WeightSystem, vertices, bound: int) -> tuple[Arrow, ...]:
    dims = (0,) + ws.group.torsion  # free coordinate has no modulus
    weights_raw = [w.key() for w in ws.weights]
    vertex_index = {v.key(): i for i, v in enumerate(vertices)}
    arrows = []
    for s, src in enumerate(vertices):
        found = _minimal_hits(weights_raw, dims, vertex_index, src.key(), bound)
        for exps, target in found.items():
            arrows.append(Arrow(s, vertex_index[target], exps))
    return tuple(sorted(arrows, key=lambda a: (a.source, a.target, a.exponents)))


def degree_bound(ws: WeightSystem, vertices) -> int:
    """A proven bound on the total degree of every arrow between ``vertices``.

    The bound is ``(span + 2M)·|T|``: ``span`` is the largest minus the
    smallest free part over the vertex set (0 if it is empty), ``M`` the
    largest absolute free part of a weight (at least 1, since a rank-one
    system has positive weights) and ``|T|`` the torsion order of the grading
    group.

    Proof.  Let ``a`` be an irreducible exponent vector from ``u`` to ``v`` of
    total degree ``L``, and ``D = free(v) - free(u)``, so ``|D| <= span``.
    Write ``a`` as ``L`` unit steps (one weight each) and order them greedily:
    take a step of nonnegative free part while the running free sum is at or
    below ``D``, and a negative one while it is above ``D``.  While steps
    remain, one of the preferred kind is left: the remaining steps sum to
    ``D - s`` for the running sum ``s``, so they are not all negative when
    ``s <= D`` and not all nonnegative when ``s > D``.  So a running sum at
    or below ``D`` only rises, to at most ``D + M``, and one above ``D``
    only falls, to at least ``D - M + 1``: every prefix free sum lies in
    ``[min(0, D - M + 1), max(0, D + M)]``, an interval of at most
    ``|D| + 2M`` integers.  Now let two prefix
    degrees ``g_i = g_j`` (``i < j``) be equal, other than the pair
    (first prefix, last prefix).  The segment of steps ``i+1..j`` is a
    nonzero sub-vector ``c != a`` of degree 0, so ``a - c`` is a proper
    nonzero sub-vector of ``a`` that lands on ``v`` as well: ``a`` is not
    irreducible.  Hence the ``L + 1`` prefix degrees take at least ``L``
    distinct values in (interval) x T, and ``L <= (|D| + 2M)·|T|``.
    """
    frees = [v.free for v in vertices]
    span = max(frees) - min(frees) if frees else 0
    m = max(abs(w.free) for w in ws.weights)
    return (span + 2 * m) * ws.group.torsion_order()


def endomorphism_quiver(ctx: GradedContext, summands, search_bound: int | None = None) -> Quiver:
    """The quiver presenting the endomorphism algebra of the summand set.

    Works for any degree set; meaningful when the set is modifying.  The
    arrow search runs once, to :func:`degree_bound`.  ``search_bound`` caps
    it: a cap at or above the proven bound changes nothing, and a cap below
    it emits :class:`BoundTooSmall`, since arrows may then be missing.
    """
    vertices = tuple(sorted(set(summands), key=GroupElement.key))
    if search_bound is not None and search_bound < 1:
        raise ValueError("search bound must be at least 1")
    proven = degree_bound(ctx.weights, vertices)
    bound = proven if search_bound is None else min(search_bound, proven)
    if bound < proven:
        warnings.warn(
            f"search bound {bound} is below the proven degree bound {proven}; "
            "arrows may be missing",
            BoundTooSmall,
        )
    quiver = Quiver(vertices, _arrow_set(ctx.weights, vertices, bound))
    _check_degree_coherence(ctx.weights, quiver)
    return quiver


def mckay_quiver(ws: WeightSystem) -> Quiver:
    """For finite grading groups: all group elements as vertices, one arrow
    per (element, weight) labeled by the unit exponent vector."""
    if ws.group.free_rank:
        raise InfiniteGroup(f"{ws.group} is infinite")
    vertices = tuple(sorted(ws.group.elements(), key=GroupElement.key))
    index = {v: i for i, v in enumerate(vertices)}
    n = len(ws.weights)
    arrows = []
    for s, g in enumerate(vertices):
        for i, x in enumerate(ws.weights):
            exps = tuple(int(j == i) for j in range(n))
            arrows.append(Arrow(s, index[g + x], exps))
    quiver = Quiver(
        vertices, tuple(sorted(arrows, key=lambda a: (a.source, a.target, a.exponents)))
    )
    _check_degree_coherence(ws, quiver)
    return quiver


def _check_degree_coherence(ws: WeightSystem, quiver: Quiver) -> None:
    for arrow in quiver.arrows:
        total = sum((e * x for e, x in zip(arrow.exponents, ws.weights)), ws.group.zero())
        expected = quiver.vertices[arrow.target] - quiver.vertices[arrow.source]
        if total != expected:
            raise InternalInconsistency(
                f"arrow {arrow} has degree {total}, expected {expected}"
            )


def emit_dot(quiver: Quiver) -> str:
    """Deterministic DOT text; vertex names are the serialized degree labels."""
    lines = ["digraph quiver {"]
    for v in quiver.vertices:
        lines.append(f'  "{v}";')
    for a in quiver.arrows:
        src = quiver.vertices[a.source]
        tgt = quiver.vertices[a.target]
        lines.append(f'  "{src}" -> "{tgt}" [label="{monomial_label(a.exponents)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
