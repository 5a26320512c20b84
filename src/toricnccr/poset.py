"""The partial order on the graded quotient H and its finiteness data.

``H`` is the quotient of the grading group by the torsion weights.  The
positive cone ``H>=0`` is the monoid spanned by the positive weights and the
negated negative weights; ``h1 <= h2`` means ``h2 - h1`` lies in that monoid.
The element ``p`` (sum of the positive block, equivalently of the negated
negative block) generates a Z-action ``h -> h + n*p`` with finitely many
orbits, and every search downstream is made finite by the conductor: for each
torsion coset of H, the free-part threshold above which membership in the
monoid is automatic.  Membership is one comparison against a table of least
codes, and the conductor is read off that table (see :class:`GradedContext`).

The hot paths work on the integer codes of H (:class:`IntegerCodes`),
where the orbit representatives are the codes ``0 .. orbit_count - 1``.
Code arithmetic is digit-wise over the invariant factors and builds no
element; the projection ``q: G -> H`` runs on codes as well
(:meth:`GradedContext.image_code`, :meth:`GradedContext.preimage_codes`).
"""

from __future__ import annotations

import math
from functools import cached_property
from heapq import heappop, heappush
from operator import mul

from .errors import (
    AxiomViolation,
    InternalInconsistency,
    MismatchedGroup,
    RankZeroGroup,
    SearchBudgetExceeded,
)
from .groups import GroupElement, Value, _matvec, _setattr, quotient_by_subgroup
from .weights import WeightSystem


# The least-code table has N = E·|T| entries, quadratic in |T| when every
# generator of least E has torsion of full order (Z/10007 then needs about
# 10^8); the context is refused above this fixed cap before it builds a table,
# classification refuses k x k orbit tables above it, and the quotient on
# codes refuses its |T_G| tables above it.
LEAST_CODES_CAP = 1 << 24


class IntegerCodes:
    """Elements of a rank-one group as the integers ``free·|T| + r``.

    The torsion part ``(t_1, ..., t_k)`` is the mixed-radix number ``r =
    sum t_j·stride_j`` over the invariant factors ``d_j`` (``stride_j`` the
    product of the later factors), which is its index in ``torsion_residues``
    order: codes sort as :meth:`GroupElement.key` does, and ``c // |T|`` is
    the free part.  Sums and differences run digit by digit on the codes
    themselves: a digit difference below 0 borrows ``d_j·stride_j`` from the
    free part, and translation by ``x`` is ``c + steps(x)[c % |T|]``, where a
    digit sum that reaches ``d_j`` carries it back.  No element is built.

    >>> from toricnccr import FGGroup
    >>> codes = IntegerCodes(FGGroup(1, (3,)))
    >>> codes.code(codes.group.element(2, (1,))), str(codes.element(codes.sub(7, 9)))
    (7, '(-1;1)')
    """

    def __init__(self, group: FGGroup):
        self.group = group
        self.order = group.torsion_order()
        strides = [math.prod(group.torsion[j + 1:]) for j in range(len(group.torsion))]
        self.strides = tuple(strides)
        # (d_j, stride_j, d_j·stride_j) per digit, most significant first
        self.radix = tuple((d, s, d * s) for d, s in zip(group.torsion, strides))

    def encode(self, free: int, tors) -> int:
        """The code of ``(free; tors)``, each torsion coordinate taken mod its factor."""
        return free * self.order + sum((t % d) * s for t, (d, s, _) in zip(tors, self.radix))

    def code(self, g: GroupElement) -> int:
        if g.group is not self.group and g.group != self.group:
            raise MismatchedGroup(f"{g.group} is not {self.group}")
        return g.free * self.order + sum(map(mul, g.tors, self.strides))

    def element(self, c: int) -> GroupElement:
        free, r = divmod(c, self.order)
        return GroupElement(self.group, free, self._residues[r])

    def elements(self, codes) -> dict[int, GroupElement]:
        """One element per distinct code of the batch ``codes``, by code."""
        return {c: self.element(c) for c in set(codes)}

    @cached_property
    def _residues(self) -> tuple[tuple[int, ...], ...]:  # for element(), on its first call
        return tuple(self.group.torsion_residues())

    def sub(self, c1: int, c2: int) -> int:
        """The code of the difference of the elements coded ``c1`` and ``c2``."""
        diff = c1 - c2
        for d, s, borrow in self.radix:
            if c1 // s % d < c2 // s % d:
                diff += borrow
        return diff

    def steps(self, x: GroupElement) -> list[int]:
        """``steps(x)[r]``: the code of ``(0; t_r) + x`` minus ``r``, built digit
        by digit: digit ``j`` adds ``x_j·stride_j``, less the carry for the
        ``x_j`` largest digit values."""
        c = self.code(x)
        steps = [c // self.order * self.order]
        for d, s, carry in self.radix:
            x_j = c // s % d
            column = [x_j * s] * (d - x_j) + [x_j * s - carry] * x_j
            steps = [a + b for a in steps for b in column]
        return steps


class GradedContext:
    """Immutable bundle of H, the projection q, p, and the monoid's least codes.

    Built from a validated rank-one :class:`WeightSystem`; all methods are
    pure.  Let ``g = (f; t)`` be the generator of least ``E = f·ord(t)``.
    Then ``ord(t)·g = (E; 0)`` lies in the monoid, and adding it to a code
    adds exactly ``N = E·|T|``.  So the monoid meets the class of codes
    ``k`` mod ``N`` in the ray ``least[k] + N·j`` (``j >= 0``), ``least[k]``
    being its least member; the weights generate H, so no class misses it.
    ``least`` is a shortest-path table (Nijenhuis, *Amer. Math. Monthly* 86, 1979).

    Like a :class:`~.groups.Value` it refuses assignment, so ``p`` cannot drift
    from ``p_code`` and ``plus_p``; ``cached_property`` writes ``__dict__``.
    """

    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    def __init__(self, ws: WeightSystem):
        if ws.group.free_rank != 1:
            raise RankZeroGroup(
                "the graded poset needs a rank-one system; for a finite group use the McKay quiver"
            )
        group, q = quotient_by_subgroup(ws.group, ws.torsion_weights)
        _setattr(self, "weights", ws)
        _setattr(self, "group", group)
        _setattr(self, "q", q)
        pos_gens = [q(x) for x in ws.positive_block()]
        neg_gens = [-q(x) for x in ws.negative_block()]
        p_from_pos = sum(pos_gens, group.zero())
        p_from_neg = sum(neg_gens, group.zero())
        if p_from_pos != p_from_neg:
            raise InternalInconsistency(f"period mismatch: {p_from_pos} vs {p_from_neg}")
        _setattr(self, "p", p_from_pos)
        _setattr(self, "generators", tuple(pos_gens + neg_gens))
        for g in self.generators:
            if g.free_part() <= 0:
                raise InternalInconsistency(f"generator {g} has nonpositive free part")

        _setattr(self, "codes", IntegerCodes(self.group))
        _setattr(self, "source_codes", IntegerCodes(ws.group))
        order = self.codes.order
        e = min(g.free * self.element(0, g.tors).order() for g in self.generators)
        if e * order > LEAST_CODES_CAP:  # N >= |T|, so this covers plus_p too
            raise SearchBudgetExceeded(
                f"the least-code table needs N = E * |T| = {e} * {order} = {e * order} "
                f"entries, over the cap of {LEAST_CODES_CAP}"
            )
        _setattr(self, "p_code", self.codes.code(self.p))
        _setattr(self, "plus_p", self.codes.steps(self.p))  # translation by p on codes
        _setattr(self, "least", self._least_codes(e * order))
        # a residue's last gap sits one step of N below its largest least code;
        # floor division is monotone, so the largest code gives the maximum
        _setattr(self, "max_conductor", max(self.least) // order - e + 1)

    # -- basic data ------------------------------------------------------

    @property
    def orbit_count(self) -> int:
        return self.p.free * self.codes.order

    def element(self, free, tors=()) -> GroupElement:
        return self.group.element(free, tors)

    @cached_property
    def conductor(self) -> dict[tuple[int, ...], int]:
        """Per torsion residue of H, the free part from which on its coset lies in the monoid."""
        order, e = self.codes.order, len(self.least) // self.codes.order
        residues = enumerate(self.group.torsion_residues())
        return {t: max(self.least[r::order]) // order - e + 1 for r, t in residues}

    # -- the quotient q: G -> H on codes ----------------------------------

    def image_code(self, c: int) -> int:
        """The code of ``q(g)`` for the source code ``c`` of ``g = (f; t)``: ``q``
        keeps the free part and maps ``t`` by its torsion block, so ``q(f; t) =
        (f; 0) + q(0; t)``."""
        free, r = divmod(c, self.source_codes.order)
        return free * self.codes.order + self._torsion_image[r]

    def preimage_codes(self, hs) -> list[int]:
        """The source codes of the full preimage of the codes ``hs``, ascending:
        over ``(f; s)`` lie ``(f; 0)`` plus the torsion elements over ``(0; s)``,
        and adding ``(f; 0)`` adds ``f·|T_G|`` to a source code."""
        order, source_order, fibers = self.codes.order, self.source_codes.order, self._fibers
        pairs = (divmod(h, order) for h in set(hs))
        return sorted(free * source_order + r for free, s in pairs for r in fibers[s])

    @cached_property
    def _torsion_image(self) -> list[int]:
        """Per torsion residue ``t`` of G, in code order, the code of ``q(0; t)``.

        This table and :attr:`_fibers` have ``|T_G|`` entries each, so ``|T_G|``
        is checked against the cap before either is built."""
        if self.source_codes.order > LEAST_CODES_CAP:
            raise SearchBudgetExceeded(
                f"the quotient tables need |T_G| = {self.source_codes.order} entries, "
                f"over the cap of {LEAST_CODES_CAP}"
            )
        matrix, residues = self.q.matrix, self.weights.group.torsion_residues()
        return [self.codes.encode(0, _matvec(matrix, t)) for t in residues]

    @cached_property
    def _fibers(self) -> list[list[int]]:
        """Per torsion residue ``s`` of H, the torsion residues of G over it."""
        fibers = [[] for _ in range(self.codes.order)]
        for r, s in enumerate(self._torsion_image):
            fibers[s].append(r)
        return fibers

    # -- monoid membership (least-code table) -----------------------------

    def member(self, h: GroupElement) -> bool:
        """Is ``h`` a nonnegative integer combination of the generators?"""
        return self.member_code(self.codes.code(h))

    def member_code(self, c: int) -> bool:
        """:meth:`member` on a code: is ``c`` on its class's ray?

        >>> from toricnccr import FGGroup, validate
        >>> z = FGGroup(1, ())
        >>> ca4 = grading_context(validate(z, [z.element(w) for w in (2, 3, -2, -3)]))
        >>> [c for c in range(-1, 6) if ca4.member_code(c)]
        [0, 2, 3, 4, 5]
        """
        return c >= self.least[c % len(self.least)]

    def _least_codes(self, n: int) -> list[int]:
        """Per class mod ``n``, the least code in the monoid: Dijkstra from code
        0, where a generator's step is positive and depends only on the class."""
        order = self.codes.order
        steps = [self.codes.steps(g) for g in set(self.generators)]
        least = [-1] * n
        heap = [0]
        while heap:
            c = heappop(heap)
            if least[c % n] < 0:
                least[c % n] = c
                for s in steps:
                    heappush(heap, c + s[c % order])
        return least


def grading_context(ws: WeightSystem) -> GradedContext:
    """Build the graded poset data for a validated rank-one weight system."""
    return GradedContext(ws)


class AxiomReport(Value, fields=("period", "conductor")):
    """The certificate of the order/action axioms: the period ``p`` and the
    conductor that witnesses (A3)."""


def check_axioms(ctx: GradedContext) -> AxiomReport:
    """Certify the three action axioms from the least-code table; raise on a violation.

    (A1) ``p`` is strictly positive: ``p`` is in the monoid and ``-p`` is not.
    Two lookups; they rule out ``p = 0``, and as every generator has positive
    free part, a monoid element of free part 0 is 0, so ``free(p) > 0``.

    (A2) adding ``n*p`` preserves the order.  It holds by definition: ``h1 <=
    h2`` asks whether ``h2 - h1`` is in the monoid, and translating both by
    ``n*p`` leaves the difference unchanged.

    (A3) any ``x`` overtakes any ``y`` after finitely many p-steps: ``x + n*p
    >= y`` once the free part of ``x - y + n*p`` reaches ``max_conductor``,
    which the report carries as the witness.  Proof: a free part ``f`` means a
    code ``c >= f·|T|``, and for ``c >= max_conductor·|T| = (max(least) //
    |T| + 1)·|T| - N`` we get ``c > max(least) - N >= least[c mod N] - N``;
    as ``c ≡ least[c mod N] (mod N)``, ``c`` lies on its class's ray.
    """
    if not ctx.member_code(ctx.p_code):
        raise AxiomViolation(f"p = {ctx.p} is not in the monoid")
    if ctx.member_code(ctx.codes.sub(0, ctx.p_code)):
        raise AxiomViolation(f"-p = {-ctx.p} lies in the monoid")
    return AxiomReport(ctx.p, ctx.max_conductor)
