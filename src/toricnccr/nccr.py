"""Cohen-Macaulay and NCCR tests for sums of divisorial modules, and mutation.

A degree ``g`` gives a maximal Cohen-Macaulay divisorial module iff its image
in H is neither ``>= p`` nor ``<= -p``.  A finite degree set is *modifying*
(its endomorphism ring is Cohen-Macaulay) iff its image is a valid rim
fragment, and it gives a toric NCCR iff the image is a complete rim and the
set is saturated under the projection's kernel.  The Iyama-Wemyss mutation of
an NCCR at a minimal orbit ``m`` is, on the combinatorial side, exactly the
rim mutation; the module-side iteration counts are recorded in a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotMinimal, NotNCCR
from .groups import GroupElement
from .poset import GradedContext
from .uppersets import (
    Rim,
    RimStatus,
    minimal_elements,
    mutate,
    rim_status,
    translation_classes,
)


@dataclass(frozen=True)
class SummandSet:
    """Degrees of the direct summands of a candidate module, sorted."""

    degrees: tuple[GroupElement, ...]

    @staticmethod
    def of(degrees) -> "SummandSet":
        return SummandSet(tuple(sorted(set(degrees), key=GroupElement.key)))

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.degrees) + "}"


@dataclass(frozen=True)
class MutationCertificate:
    """Bookkeeping for one Iyama-Wemyss mutation.

    ``fixed_part`` is the summand left untouched; the full mutation is
    ``plus_steps`` right mutations at it (equivalently ``minus_steps`` left
    mutations), with ``plus_steps = negatives - 1`` and
    ``minus_steps = positives - 1`` for the ambient weight system.
    """

    fixed_part: SummandSet
    removed_orbit: GroupElement
    plus_steps: int
    minus_steps: int


def is_mcm(ctx: GradedContext, g: GroupElement) -> bool:
    """Is the divisorial module of degree ``g`` maximal Cohen-Macaulay?"""
    h, sub = ctx.image_code(g), ctx.codes.sub
    h_minus_p = sub(h, ctx.p_code)
    minus_p_minus_h = sub(0, h + ctx.plus_p[h % ctx.codes.order])
    return not ctx.member_code(h_minus_p) and not ctx.member_code(minus_p_minus_h)


def is_modifying(ctx: GradedContext, summands) -> bool:
    """Is the direct sum over the degree set a modifying module?"""
    degrees = list(summands)
    image = {ctx.q(g) for g in degrees}
    return rim_status(ctx, image).status is not RimStatus.INVALID


def is_nccr(ctx: GradedContext, summands) -> bool:
    """Does the degree set give a toric NCCR?

    Requires the image in H to be a complete rim and the set to be the full
    preimage of its image.
    """
    degrees = set(summands)
    image = {ctx.q(g) for g in degrees}
    if rim_status(ctx, image).status is not RimStatus.COMPLETE:
        return False
    full = set()
    for h in image:
        full.update(ctx.q.fiber(h))
    return degrees == full


def rim_of(ctx: GradedContext, summands) -> Rim:
    """The image rim of an NCCR summand set."""
    if not is_nccr(ctx, summands):
        raise NotNCCR(f"{SummandSet.of(summands)} does not give a toric NCCR")
    image = {ctx.q(g) for g in summands}
    return Rim(tuple(sorted(image, key=GroupElement.key)), complete=True)


def preimage_summands(ctx: GradedContext, rim: Rim) -> SummandSet:
    """Full preimage of a complete rim: the NCCR's summand degrees."""
    degrees = []
    for h in rim:
        degrees.extend(ctx.q.fiber(h))
    return SummandSet.of(degrees)


def nccr_classes(ctx: GradedContext) -> tuple[SummandSet, ...]:
    """One summand set per translation class, in canonical class order."""
    return tuple(preimage_summands(ctx, c.rim) for c in translation_classes(ctx))


def mutate_nccr(
    ctx: GradedContext, summands, m: GroupElement
) -> tuple[SummandSet, MutationCertificate]:
    """Iyama-Wemyss mutation of an NCCR at the minimal orbit element ``m``."""
    rim = rim_of(ctx, summands)
    if m not in minimal_elements(ctx, rim):
        raise NotMinimal(f"{m} is not minimal in the upper set of {rim}")
    mutated = mutate(ctx, rim, m)
    fixed = SummandSet.of(
        g for g in summands if ctx.q(g) != m
    )
    cert = MutationCertificate(
        fixed_part=fixed,
        removed_orbit=m,
        plus_steps=ctx.weights.negatives - 1,
        minus_steps=ctx.weights.positives - 1,
    )
    return preimage_summands(ctx, mutated), cert
