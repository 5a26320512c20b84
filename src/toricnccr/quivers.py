"""Quivers of endomorphism algebras of summand sets, and their JSON and DOT texts.

Morphisms between divisorial modules of degrees ``u`` and ``v`` are spanned
by the monomials of degree ``v - u``, so the quiver of the endomorphism
algebra of a summand set has one arrow per irreducible monomial: an exponent
vector none of whose proper nonzero sub-vectors lands on a summand degree.
Equivalently, the arrows out of ``u`` are the minimal nonzero exponent
vectors (componentwise order) whose degree shifts ``u`` back into the set.

Irreducible monomials have bounded total degree: :func:`degree_bound` proves
``(span + 2M)·|T|`` from the vertex free parts, the weights and the torsion
order, so one depth-first search to that bound finds every arrow.  Three
exact prunes keep it small (see :func:`_minimal_hits`): no branch goes past
a vector with a sub-vector that lands on a vertex, so every hit is minimal
as found; a coordinate is dead, and never raised again below a node, once
some sub-vector plus one unit of it lands, that unit step being the one hit
it can still give; and a branch stops once its free part can no longer
reach the vertex free parts within the remaining degree, counting live
coordinates only.  A caller may cap the search lower; a
:class:`BoundTooSmall` warning then says that arrows may be missing.
"""

from __future__ import annotations

import warnings
from operator import mul

from .errors import (BoundTooSmall, InfiniteGroup, InputError, InternalInconsistency,
                     SearchBudgetExceeded)
from .groups import GroupElement, Value, exact_int
from .poset import GradedContext, IntegerCodes
from .weights import WeightSystem

# The arrow search runs from each vertex to the search bound, over degrees
# whose torsion part takes |T| values, so its work grows with bound x
# vertices x |T|.  ``endomorphism_quiver`` refuses a search above this fixed
# cap before it starts, and ``mckay_quiver`` an arrow count |G| x weights.  On
# Z + Z/d with (1;0), (1;1), (-1;0), (-1;-1), the quiver of (0;0), (1;0) has
# bound 3d, so the product is 6d^2.  On a 2-vCPU
# VM the whole command takes about 3 s at d = 211 (267,126) and 7.6 s at
# d = 307 (565,362, over the cap); at d = 100003 it ran for 90 s unfinished.
QUIVER_WORK_CAP = 1 << 19


class Arrow(Value, fields=("source", "target", "exponents")):
    def is_loop(self) -> bool:
        return self.source == self.target


class Quiver(Value, fields=("vertices", "arrows")):
    """Vertices labeled by degrees, arrows labeled by exponent vectors."""

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


def default_search_bound(ctx: GradedContext) -> int:
    """The conductor-derived heuristic bound the arrow search once used.

    The search no longer calls it (see :func:`degree_bound`);
    ``perfbench/spans.py`` still reports it as ``quivers.search_bound``.
    """
    ws = ctx.weights
    return (ws.positives + ws.negatives) * (1 + ctx.max_conductor + ctx.p.free)


def _minimal_hits(steps, order, pred, vmin: int, vmax: int, source: int, bound: int):
    """Minimal nonzero exponent vectors whose degree lands ``source`` in the set.

    Degrees are integer codes ``free·|T| + r`` (:class:`~.poset.IntegerCodes`),
    with ``0 <= r < |T|`` the index of the torsion part and ``order`` =
    ``|T|``, so ``q // order`` is the free part of code ``q`` and adding
    weight ``j`` adds ``steps[j][q % order]``; ``pred[j]`` holds the codes
    ``q`` with ``q + w_j`` a vertex, and vertex free parts span ``vmin..vmax``.
    The search raises the coordinates in turn, depth first, to total degree
    ``bound``, and maps each hit to its target.

    Dead coordinates.  Alongside the degree of the current prefix vector
    ``a`` the search carries the set of degrees of its proper sub-vectors.
    Coordinate ``j`` (not yet fixed) is dead once the degree of some
    sub-vector ``b <= a`` lies in ``pred[j]``: every ``a'`` below with
    ``a'_j >= 1`` contains ``b + e_j``, which lands.  If ``b`` is proper,
    ``b + e_j`` is a proper sub-vector of ``a + e_j`` and of every such
    ``a'``, so none is minimal.  If only ``b = a`` qualifies, ``a + e_j`` is
    minimal: its proper nonzero sub-vectors are those of ``a``, which do not
    land, and ``b' + e_j`` for proper ``b' < a``, which do not either; every
    other ``a'`` contains it.  So the search records ``a + e_j`` as a hit,
    if it fits the bound, and never raises ``j`` below ``a``.  Raising
    coordinate ``i`` to ``c`` creates exactly the new sub-vectors that use
    exponent ``c`` at ``i``: ``a`` itself and the proper ones ``{q + c·w_i}``
    over the old set, so each raise tests only those, against the ``pred``
    of each live coordinate from ``i`` on.  By induction no nonzero
    sub-vector of a vector reached lands, and every minimal hit ``h`` is
    recorded from ``h - e_m``, ``m`` its last nonzero coordinate, which the
    search reaches with ``m`` live.  At the root this records the unit hits.

    Free-range prune.  Let ``hi``, ``lo`` be the largest and smallest free
    part among the live coordinates, clamped through 0.  With free part
    ``f`` and ``r`` degrees of budget left, every extension that raises only
    live coordinates has free part in ``[f + r·lo, f + r·hi]``; if that
    misses the vertex free parts, no hit lies below.  The test runs on
    entering a coordinate and after each raise of it; the next raise's range
    lies inside this one, since coordinates only die, so a cut there ends
    the coordinate.  Neither rule depends on the order of the weights.
    """
    free = [step[0] // order for step in steps]  # the step from residue 0 is the weight's own code
    hits = {}
    vec = [0] * len(steps)

    def in_reach(live, q, r):
        f = q // order
        reach = [0] + [free[j] for j in live]
        return f + r * min(reach) <= vmax and f + r * max(reach) >= vmin

    def settle(live, shifted, cur, room):
        """The coordinates of ``live`` still live once ``a`` (degree ``cur``)
        and its proper sub-vectors of degrees ``shifted`` exist."""
        keep = []
        for j in live:
            if not pred[j].isdisjoint(shifted):
                continue
            if cur in pred[j]:
                if room:
                    vec[j] += 1
                    hits[tuple(vec)] = cur + steps[j][cur % order]
                    vec[j] -= 1
                continue
            keep.append(j)
        return keep

    def explore(live, used, acc, proper):
        if not live or not in_reach(live, acc, bound - used):
            return
        i = live[0]
        explore(live[1:], used, acc, proper)
        step = steps[i]
        cur = acc
        shifted = proper
        below = set(proper)  # degrees of the proper sub-vectors once i is raised
        for c in range(1, bound - used + 1):
            below.add(cur)
            cur += step[cur % order]
            shifted = {q + step[q % order] for q in shifted}
            vec[i] = c
            live = settle(live, shifted, cur, used + c < bound)
            if not in_reach(live, cur, bound - used - c):
                break
            below |= shifted
            if live and live[0] == i:
                explore(live[1:], used + c, cur, below)
            else:
                explore(live, used + c, cur, below)
                break
        vec[i] = 0

    explore(settle(range(len(steps)), (), source, True), 0, source, set())
    return hits


def _arrow_set(ws: WeightSystem, vertices, bound: int) -> tuple[Arrow, ...]:
    codes = IntegerCodes(ws.group)
    steps = [codes.steps(w) for w in ws.weights]
    vertex_index = {codes.code(v): s for s, v in enumerate(vertices)}
    pred = [{codes.sub(v, codes.code(w)) for v in vertex_index} for w in ws.weights]
    frees = [v.free for v in vertices]  # the free range of the set, once for every source
    vmin, vmax = min(frees, default=0), max(frees, default=0)
    arrows = []
    for s, src in enumerate(vertices):
        found = _minimal_hits(steps, codes.order, pred, vmin, vmax, codes.code(src), bound)
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
    it emits :class:`BoundTooSmall`, since arrows may then be missing.  A
    search whose bound x vertices x |T| exceeds :data:`QUIVER_WORK_CAP`
    raises :class:`SearchBudgetExceeded` before it starts.  A degree outside
    the grading group raises :class:`MismatchedGroup`.
    """
    vertices = tuple(sorted(set(summands), key=ctx.source_codes.code))  # codes sort as keys
    if search_bound is not None and exact_int(search_bound, "search bound") < 1:
        raise InputError("search bound must be at least 1")
    proven = degree_bound(ctx.weights, vertices)
    bound = proven if search_bound is None else min(search_bound, proven)
    order = ctx.weights.group.torsion_order()
    work = bound * len(vertices) * order
    SearchBudgetExceeded.check(work, QUIVER_WORK_CAP, "the quiver search needs bound x vertices "
                               f"x |T| = {bound} x {len(vertices)} x {order} = {work}")
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
    per (element, weight) labeled by the unit exponent vector.

    These are exactly the arrows of the search at bound 1.  The vertex set
    is all of G, so every unit vector lands on a vertex, and every longer
    exponent vector has a unit sub-vector that lands, so it is not
    irreducible.  Over :data:`QUIVER_WORK_CAP` arrows it builds no element.
    """
    if ws.group.free_rank:
        raise InfiniteGroup(f"{ws.group} is infinite")
    order, n = ws.group.torsion_order(), len(ws.weights)
    SearchBudgetExceeded.check(order * n, QUIVER_WORK_CAP, "the McKay quiver has |G| x weights "
                               f"= {order} x {n} = {order * n} arrows")
    vertices = tuple(sorted(ws.group.elements(), key=GroupElement.key))
    quiver = Quiver(vertices, _arrow_set(ws, vertices, 1))
    _check_degree_coherence(ws, quiver)
    return quiver


def _check_degree_coherence(ws: WeightSystem, quiver: Quiver) -> None:
    """Recompute each arrow's degree on raw ``(free, t…)`` coordinates, apart
    from the codes and step tables the search ran on."""
    columns = list(zip(*(w.key() for w in ws.weights)))
    moduli = (0, *ws.group.torsion)  # the free coordinate is compared exactly
    for arrow in quiver.arrows:
        total = [sum(map(mul, arrow.exponents, col)) for col in columns]
        source, target = quiver.vertices[arrow.source].key(), quiver.vertices[arrow.target].key()
        expected = [t - s for t, s in zip(target, source)]
        if any((a - b) % d if d else a != b for a, b, d in zip(total, expected, moduli)):
            raise InternalInconsistency(
                f"arrow {arrow} has degree {tuple(total)}, expected {tuple(expected)}"
            )


def quiver_payload(quiver: Quiver) -> dict:
    """The ``quiver`` entry of a JSON report: one text per vertex, indexed per arrow."""
    names = [str(v) for v in quiver.vertices]
    return {
        "vertices": names,
        "arrows": [
            {
                "source": names[a.source],
                "target": names[a.target],
                "monomial": monomial_label(a.exponents),
                "exponents": list(a.exponents),
            }
            for a in quiver.arrows
        ],
        "arrow_count": len(quiver.arrows),
        "loop_count": len(quiver.loops()),
    }


def dot_text(name: str, nodes, edges) -> str:
    """The DOT text of a directed graph: ``digraph name {``, one line per node
    statement and per ``(source, target, label)`` edge, then ``}`` and a newline."""
    lines = [f"digraph {name} {{", *(f"  {node};" for node in nodes)]
    lines += (f'  {a} -> {b} [label="{label}"];' for a, b, label in edges)
    lines.append("}\n")
    return "\n".join(lines)


def emit_dot(quiver: Quiver) -> str:
    """Deterministic DOT text; vertex names are the serialized degree labels."""
    names = [f'"{v}"' for v in quiver.vertices]  # one text per vertex, indexed per arrow
    return dot_text("quiver", names, ((names[a.source], names[a.target],
                                       monomial_label(a.exponents)) for a in quiver.arrows))
