"""The partial order on the graded quotient H and its finiteness data.

``H`` is the quotient of the grading group by the torsion weights.  The
positive cone ``H>=0`` is the monoid spanned by the positive weights and the
negated negative weights; ``h1 <= h2`` means ``h2 - h1`` lies in that monoid.
The element ``p`` (sum of the positive block, equivalently of the negated
negative block) generates a Z-action ``h -> h + n*p`` with finitely many
orbits, and every search downstream is made finite by the conductor: for each
torsion coset of H, the free-part threshold above which membership in the
monoid is automatic.  Below it, the reachability table that proves the
conductor holds the exact answer, so membership is a table lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import AxiomViolation, InternalInconsistency, RankZeroGroup
from .groups import GroupElement
from .weights import WeightSystem

# free-part cap for the conductor computation; far beyond any sane input,
# only here to turn a logic error into a loud failure
_CONDUCTOR_CAP = 100_000


def _tadd(a, b, dims):
    return tuple((x + y) % d for x, y, d in zip(a, b, dims))


class GradedContext:
    """Immutable bundle of H, the projection q, p, and the conductor table.

    Built from a validated rank-one :class:`WeightSystem`; all methods are
    pure.  The reachability table grown for the conductor also answers every
    membership query.
    """

    def __init__(self, ws: WeightSystem):
        if ws.group.free_rank != 1:
            raise RankZeroGroup("the graded poset needs a rank-one system")
        from .groups import quotient_by_subgroup

        self.weights = ws
        self.group, self.q = quotient_by_subgroup(ws.group, ws.torsion_weights)
        pos_gens = [self.q(x) for x in ws.positive_block()]
        neg_gens = [-self.q(x) for x in ws.negative_block()]
        p_from_pos = sum(pos_gens, self.group.zero())
        p_from_neg = sum(neg_gens, self.group.zero())
        if p_from_pos != p_from_neg:
            raise InternalInconsistency(
                f"period mismatch: {p_from_pos} vs {p_from_neg}"
            )
        self.p = p_from_pos
        self.minus_p = -self.p
        self.generators = tuple(pos_gens + neg_gens)
        for g in self.generators:
            if g.free_part() <= 0:
                raise InternalInconsistency(f"generator {g} has nonpositive free part")

        self._dims = self.group.torsion
        self._gen_raw = [(g.free, g.tors) for g in self.generators]
        self._reach: list[set] = [{(0,) * len(self._dims)}]
        self.conductor = self._compute_conductor()

    # -- basic data ------------------------------------------------------

    @property
    def orbit_count(self) -> int:
        return self.p.free * self.group.torsion_order()

    @property
    def max_conductor(self) -> int:
        return max(self.conductor.values())

    def element(self, free, tors=()) -> GroupElement:
        return self.group.element(free, tors)

    # -- monoid membership (reachability table) ---------------------------

    def member(self, h: GroupElement) -> bool:
        """Is ``h`` a nonnegative integer combination of the generators?

        At or above its coset's conductor the answer is yes; below it, the
        reachability table grown for the conductor already holds the answer.
        """
        if h.free >= self.conductor[h.tors]:
            return True
        return h.free >= 0 and h.tors in self._reach[h.free]

    def leq(self, h1: GroupElement, h2: GroupElement) -> bool:
        """The poset order: ``h1 <= h2`` iff ``h2 - h1`` is in the monoid."""
        return self.member(h2 - h1)

    def reachable_residues(self, free: int) -> set:
        """Torsion cosets hit by the monoid at the given free part.

        Grown bottom-up one free-part level at a time by dynamic programming;
        the engine behind the conductor and behind :meth:`member`.
        """
        if free < 0:
            return set()
        while len(self._reach) <= free:
            f = len(self._reach)
            level = set()
            for gf, gt in self._gen_raw:
                if gf <= f:
                    for t in self._reach[f - gf]:
                        level.add(_tadd(t, gt, self._dims))
            self._reach.append(level)
        return self._reach[free]

    def _compute_conductor(self) -> dict:
        """Per torsion coset, the least c with everything at free part >= c reachable.

        A coset is saturated once a run of ``e * free(g*)`` consecutive free
        parts is fully reachable, where ``g*`` is a generator of minimal free
        part and ``e`` the order of its torsion component: adding ``e * g*``
        then pushes reachability upward forever.
        """
        gstar = min(self.generators, key=lambda g: g.free)
        run_needed = self.element(0, gstar.tors).order() * gstar.free

        cosets = list(self.group.torsion_residues())
        runs = {t: 0 for t in cosets}
        saturated_at = {}
        last_missing = {t: -1 for t in cosets}
        f = 0
        while len(saturated_at) < len(cosets):
            if f > _CONDUCTOR_CAP:
                raise InternalInconsistency("conductor did not stabilize")
            level = self.reachable_residues(f)
            for t in cosets:
                if t in saturated_at:
                    continue
                if t in level:
                    runs[t] += 1
                    if runs[t] >= run_needed:
                        saturated_at[t] = f
                else:
                    runs[t] = 0
                    last_missing[t] = f
            f += 1
        return {t: last_missing[t] + 1 for t in cosets}

    # -- Z-action orbits ---------------------------------------------------

    def orbit_reps(self) -> tuple[GroupElement, ...]:
        """One representative per orbit of ``h -> h + p``: free part in [0, free(p))."""
        reps = []
        for f in range(self.p.free):
            for t in self.group.torsion_residues():
                reps.append(self.element(f, t))
        return tuple(reps)

    def orbit_of(self, h: GroupElement) -> tuple[GroupElement, int]:
        """The unique ``(rep, n)`` with ``h = rep + n*p``."""
        n = h.free // self.p.free
        rep = h - n * self.p
        return rep, n

    # -- sampling ----------------------------------------------------------

    def sample_elements(self, count: int, rng: random.Random, span: int | None = None):
        span = span if span is not None else 3 * self.p.free + self.max_conductor + 2
        out = []
        for _ in range(count):
            f = rng.randint(-span, span)
            t = tuple(rng.randrange(d) for d in self._dims)
            out.append(self.element(f, t))
        return out


def grading_context(ws: WeightSystem) -> GradedContext:
    """Build the graded poset data for a validated rank-one weight system."""
    return GradedContext(ws)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the sampled order/action axiom checks."""

    samples: int
    seed: int
    translation_pairs: int
    reach_witnesses: int


def check_axioms(ctx: GradedContext, sample_size: int, seed: int) -> AxiomReport:
    """Sample H and verify the three action axioms; raise on any violation.

    (A1) adding p strictly increases, (A2) adding a multiple of p preserves
    the order, (A3) any element overtakes any other after finitely many p
    steps; the witness step count comes from the conductor.
    """
    if ctx.p.is_zero() or not ctx.member(ctx.p):
        raise AxiomViolation(f"p = {ctx.p} is not a strictly positive period")
    if ctx.member(-ctx.p):
        raise AxiomViolation(f"-p = {-ctx.p} lies in the monoid")

    rng = random.Random(seed)
    elements = ctx.sample_elements(sample_size, rng)
    pair_checks = 0
    witness_checks = 0
    for x in elements:
        if not ctx.leq(x, x + ctx.p) or ctx.leq(x + ctx.p, x):
            raise AxiomViolation(f"x < x + p fails at x = {x}")
    for _ in range(sample_size):
        x, y = rng.choice(elements), rng.choice(elements)
        n = rng.randint(-3, 3)
        if ctx.leq(x, y) != ctx.leq(x + n * ctx.p, y + n * ctx.p):
            raise AxiomViolation(f"translation by {n}p broke {x} <= {y}")
        pair_checks += 1
        delta = x - y
        need = ctx.max_conductor - delta.free
        n_wit = max(0, -(-need // ctx.p.free))
        if not ctx.leq(y, x + n_wit * ctx.p):
            raise AxiomViolation(f"no finite p-step takes {x} above {y}")
        witness_checks += 1
    return AxiomReport(sample_size, seed, pair_checks, witness_checks)
