"""Validation of weight data for Gorenstein toric singularities of class rank <= 1.

A rank-one system is a group ``G`` of free rank one together with weights
``x_1, ..., x_n`` such that the weights sum to zero, every proper subfamily
(dropping any single weight) still generates ``G``, and at least two weights
have positive free part and two have negative free part.  Validation reorders
the weights so that positives come first, then negatives, then torsion
weights, preserving the input order within each block.

Rank-zero groups are accepted too (the McKay route): there the requirements
are just that the weights sum to zero and generate ``G``.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotGorenstein, GenerationFailure, SignCountFailure
from .groups import FGGroup, GroupElement, Value, as_tuple, of_type, subgroup_is_whole


class WeightSystem(Value, fields=("group", "weights", "positives", "negatives", "permutation")):
    """Validated weight data with its sign partition.

    ``weights[:positives]`` have positive free part, the next ``negatives``
    entries have negative free part, and the rest are torsion.
    ``permutation[i]`` is the index the ``i``-th stored weight had in the raw
    input.
    """

    @cached_property
    def _hash(self) -> int:
        return hash((self.group, self.weights, self.positives, self.negatives, self.permutation))

    def __hash__(self):  # hashed once, not on every lookup in the oracle's caches
        return self._hash

    @property
    def ring_dimension(self) -> int:
        """Krull dimension of the invariant ring: #weights - rank of the group."""
        return len(self.weights) - self.group.free_rank

    @property
    def torsion_weights(self) -> tuple[GroupElement, ...]:
        return self.weights[self.positives + self.negatives :]

    @property
    def is_finite(self) -> bool:
        return self.group.free_rank == 0

    def positive_block(self) -> tuple[GroupElement, ...]:
        return self.weights[: self.positives]

    def negative_block(self) -> tuple[GroupElement, ...]:
        return self.weights[self.positives : self.positives + self.negatives]


def validate(group: FGGroup, raw_weights) -> WeightSystem:
    """Check the weight data and return it with the canonical sign ordering.

    Raises :class:`MismatchedGroup` for a weight that is no element of
    ``group``, then :class:`SignCountFailure`, :class:`NotGorenstein` or
    :class:`GenerationFailure` (with a witness index into the raw list).
    """
    of_type(group, FGGroup)
    raw = as_tuple(raw_weights, "weights")
    if not raw:
        raise NotGorenstein("no weights given")
    for w in raw:
        group.owns(w)

    if group.free_rank == 1:
        pos = [i for i, w in enumerate(raw) if w.free > 0]
        neg = [i for i, w in enumerate(raw) if w.free < 0]
        if len(pos) < 2 or len(neg) < 2:
            raise SignCountFailure(len(pos), len(neg))

    if any(group.sum_key(raw)):  # the sum element is built for the message only
        raise NotGorenstein(f"weights sum to {sum(raw, group.zero())}, not zero")

    # the weights sum to zero, so dropping any one leaves a family whose span
    # still holds it: every proper subfamily generates G iff all weights do
    if not subgroup_is_whole(group, raw):
        raise GenerationFailure(0 if group.free_rank else None, group)
    if group.free_rank == 0:
        return WeightSystem(group, raw, 0, 0, tuple(range(len(raw))))

    tors = [i for i, w in enumerate(raw) if w.free == 0]
    perm = tuple(pos + neg + tors)
    ordered = tuple(raw[i] for i in perm)
    return WeightSystem(group, ordered, len(pos), len(neg), perm)
