"""Quivers of endomorphism algebras of summand sets, and DOT output.

Morphisms between divisorial modules of degrees ``u`` and ``v`` are spanned
by the monomials of degree ``v - u``, so the quiver of the endomorphism
algebra of a summand set has one arrow per irreducible monomial: an exponent
vector none of whose proper nonzero sub-vectors lands on a summand degree.
Equivalently, the arrows out of ``u`` are the minimal nonzero exponent
vectors (componentwise order) whose degree shifts ``u`` back into the set.

No a priori degree bound for the irreducible monomials is available, so the
search runs to a conductor-derived default bound and re-runs at twice that
bound; a :class:`BoundTooSmall` warning is emitted if the two disagree.
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


def endomorphism_quiver(ctx: GradedContext, summands, search_bound: int | None = None) -> Quiver:
    """The quiver presenting the endomorphism algebra of the summand set.

    Works for any degree set; meaningful when the set is modifying.  Emits
    :class:`BoundTooSmall` if doubling the search bound changes the arrows.
    """
    vertices = tuple(sorted(set(summands), key=GroupElement.key))
    bound = search_bound if search_bound is not None else default_search_bound(ctx)
    if bound < 1:
        raise ValueError("search bound must be at least 1")
    arrows = _arrow_set(ctx.weights, vertices, bound)
    stabilized = _arrow_set(ctx.weights, vertices, 2 * bound)
    if arrows != stabilized:
        warnings.warn(
            f"arrow set changed between bounds {bound} and {2 * bound}", BoundTooSmall
        )
    quiver = Quiver(vertices, arrows)
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
