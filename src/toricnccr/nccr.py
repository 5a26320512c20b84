"""Cohen-Macaulay and NCCR tests for sums of divisorial modules, and mutation.

A degree ``g`` gives a maximal Cohen-Macaulay divisorial module iff its image
in H is neither ``>= p`` nor ``<= -p``.  A finite degree set is *modifying*
(its endomorphism ring is Cohen-Macaulay) iff its image is a valid rim
fragment, and it gives a toric NCCR iff the image is a complete rim and the
set is saturated under the projection's kernel.  The Iyama-Wemyss mutation of
an NCCR at a minimal orbit ``m`` is, on the combinatorial side, exactly the
rim mutation; the module-side iteration counts are recorded in a certificate.

Every test runs on codes: degrees become codes of G, their images codes of H
(:meth:`~.poset.GradedContext.image_code`), and preimages come back as codes
of G (:meth:`~.poset.GradedContext.preimage_codes`).  Elements are built only
for the summand sets and rims returned.
"""

from __future__ import annotations

from itertools import chain

from .errors import NotMinimal, NotNCCR
from .groups import GroupElement, Value
from .poset import GradedContext
from .uppersets import Rim, _classes, _minimal_codes, _rim_witness, _swap_up


class SummandSet(Value, fields=("degrees",)):
    """Degrees of the direct summands of a candidate module, sorted."""

    @staticmethod
    def of(degrees) -> "SummandSet":
        return SummandSet(tuple(sorted(set(degrees), key=GroupElement.key)))

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.degrees) + "}"


class MutationCertificate(Value,
                          fields=("fixed_part", "removed_orbit", "plus_steps", "minus_steps")):
    """Bookkeeping for one Iyama-Wemyss mutation.

    ``fixed_part`` is the summand left untouched; the full mutation is
    ``plus_steps`` right mutations at it (equivalently ``minus_steps`` left
    mutations), with ``plus_steps = negatives - 1`` and
    ``minus_steps = positives - 1`` for the ambient weight system.
    """


def is_mcm(ctx: GradedContext, g: GroupElement) -> bool:
    """Is the divisorial module of degree ``g`` maximal Cohen-Macaulay?"""
    return is_mcm_code(ctx, ctx.source_codes.code(g))


def is_mcm_code(ctx: GradedContext, c: int) -> bool:
    """:func:`is_mcm` on the source code ``c`` of the degree."""
    h, sub = ctx.image_code(c), ctx.codes.sub
    h_minus_p = sub(h, ctx.p_code)
    minus_p_minus_h = sub(0, h + ctx.plus_p[h % ctx.codes.order])
    return not ctx.member_code(h_minus_p) and not ctx.member_code(minus_p_minus_h)


def _images(ctx: GradedContext, summands) -> tuple[dict[int, int], list[int]]:
    """The code of each degree's image in H, by the degree's source code, and
    the sorted image."""
    images = {c: ctx.image_code(c) for c in ctx.source_codes.codes_of(summands, "summands")}
    return images, sorted(set(images.values()))


def _is_nccr(ctx: GradedContext, images: dict[int, int], image: list[int]) -> bool:
    """The image is a complete rim, and the degrees fill its preimage: as the
    degrees lie over the image, that is ``|degrees| = |image|·|kernel|``."""
    return (
        len(image) == ctx.orbit_count
        and len(images) == len(image) * ctx.q.kernel_order
        and _rim_witness(ctx, image) is None
    )


def _summand_set(ctx: GradedContext, codes) -> SummandSet:
    return SummandSet(tuple(map(ctx.source_codes.element, sorted(codes))))


def is_modifying(ctx: GradedContext, summands) -> bool:
    """Is the direct sum over the degree set a modifying module?"""
    return _rim_witness(ctx, _images(ctx, summands)[1]) is None


def is_nccr(ctx: GradedContext, summands) -> bool:
    """Does the degree set give a toric NCCR?

    Requires the image in H to be a complete rim and the set to be the full
    preimage of its image.
    """
    return _is_nccr(ctx, *_images(ctx, summands))


def _nccr_images(ctx: GradedContext, summands) -> tuple[dict[int, int], list[int]]:
    """:func:`_images` of an NCCR summand set; raise :class:`NotNCCR` otherwise."""
    images, image = _images(ctx, summands)
    if not _is_nccr(ctx, images, image):
        raise NotNCCR(f"{_summand_set(ctx, images)} does not give a toric NCCR")
    return images, image


def rim_of(ctx: GradedContext, summands) -> Rim:
    """The image rim of an NCCR summand set."""
    return Rim(tuple(map(ctx.codes.element, _nccr_images(ctx, summands)[1])))


def preimage_summands(ctx: GradedContext, rim: Rim) -> SummandSet:
    """Full preimage of a complete rim: the NCCR's summand degrees."""
    return _summand_set(ctx, ctx.preimage_codes(ctx.codes.codes_of(rim, "rim")))


def nccr_classes(ctx: GradedContext) -> tuple[SummandSet, ...]:
    """One summand set per class, in canonical class order; equal degrees share one element."""
    summands = [ctx.preimage_codes(rim) for rim, _ in _classes(ctx)]
    element = ctx.source_codes.elements(chain.from_iterable(summands)).__getitem__
    return tuple(SummandSet(tuple(map(element, codes))) for codes in summands)


def mutate_nccr(
    ctx: GradedContext, summands, m: GroupElement
) -> tuple[SummandSet, MutationCertificate]:
    """Iyama-Wemyss mutation of an NCCR at the minimal orbit element ``m``:
    on the image rim, ``m`` is swapped for ``m + p``."""
    images, rim = _nccr_images(ctx, summands)
    mc = ctx.codes.code(m)
    if mc not in _minimal_codes(ctx, rim):
        rim_text = Rim(tuple(map(ctx.codes.element, rim)))
        raise NotMinimal(f"{m} is not minimal in the upper set of {rim_text}")
    cert = MutationCertificate(
        fixed_part=_summand_set(ctx, [c for c, h in images.items() if h != mc]),
        removed_orbit=m,
        plus_steps=ctx.weights.negatives - 1,
        minus_steps=ctx.weights.positives - 1,
    )
    return _summand_set(ctx, ctx.preimage_codes(_swap_up(ctx, rim, mc))), cert
