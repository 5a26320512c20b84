"""Exact arithmetic in finitely generated abelian groups of rank at most one.

Groups are kept in invariant-factor form ``Z^r x Z/d_1 x ... x Z/d_k`` with
``r <= 1``, every ``d_j >= 2`` and ``d_j | d_{j+1}``.  Elements carry their
group, store the free coordinate as a plain integer and torsion coordinates
as reduced residues, and support ``+``, ``-`` and integer scaling.

Quotients by finite subgroups are computed through the Smith normal form of
the relation matrix, which also yields the projection and a section as
explicit integer matrices.

>>> G = FGGroup(1, (4,))
>>> str(G.element(3, (5,)))
'(3;1)'
>>> str(G.element(1, (1,)) + G.element(1, (3,)))
'(2;0)'
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator

from .errors import (
    InfiniteGroup,
    MismatchedGroup,
    NonTorsionGenerator,
    ParseError,
    RankZeroGroup,
)


# ---------------------------------------------------------------------------
# Smith normal form over the integers


def smith_normal_form(relations: list[list[int]], n: int):
    """Diagonalize the subgroup of Z^n spanned by the given relation vectors.

    Returns ``(diag, basis, basis_inv)``: ``diag`` is a length-``n`` list with
    ``diag[0] | diag[1] | ...`` (zeros last, meaning a free coordinate), and
    ``basis``/``basis_inv`` are mutually inverse unimodular n x n matrices such
    that in the coordinates ``y = basis @ x`` the subgroup is exactly
    ``diag[0]*Z x diag[1]*Z x ...``.
    """
    m = len(relations)
    # columns of a are the relations
    a = [[relations[j][i] for j in range(m)] for i in range(n)]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    basis_inv = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        basis[i], basis[j] = basis[j], basis[i]
        for row in basis_inv:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-v for v in a[i]]
        basis[i] = [-v for v in basis[i]]
        for row in basis_inv:
            row[i] = -row[i]

    def row_add(i, j, k):
        # row_i += k * row_j ; inverse op on basis_inv columns
        a[i] = [u + k * v for u, v in zip(a[i], a[j])]
        basis[i] = [u + k * v for u, v in zip(basis[i], basis[j])]
        for row in basis_inv:
            row[j] -= k * row[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, k):
        for row in a:
            row[i] += k * row[j]

    def pivot_at(t):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    t = 0
    while t < min(n, m):
        found = pivot_at(t)
        if found is None:
            break
        _, pi, pj = found
        row_swap(t, pi)
        col_swap(t, pj)
        # clear the pivot row and column
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
        if a[t][t] < 0:
            row_neg(t)
        # divisibility: pivot must divide the remaining submatrix
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    diag = [a[i][i] if i < min(n, m) else 0 for i in range(n)]
    diag = [abs(d) for d in diag]
    return diag, basis, basis_inv


def _matvec(matrix, vec):
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in matrix)


# ---------------------------------------------------------------------------
# Groups and elements


@dataclass(frozen=True, slots=True)
class FGGroup:
    """``Z^free_rank x Z/d_1 x ... x Z/d_k`` in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank not in (0, 1):
            raise ValueError(f"free rank must be 0 or 1, got {self.free_rank}")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError(f"invariant chain broken: {self.torsion}")

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    @property
    def coordinate_count(self) -> int:
        return self.free_rank + len(self.torsion)

    def element(self, free: int = 0, tors: Iterable[int] = ()) -> "GroupElement":
        tors = tuple(tors)
        if len(tors) != len(self.torsion):
            raise MismatchedGroup(
                f"expected {len(self.torsion)} torsion coordinates, got {len(tors)}"
            )
        if self.free_rank == 0 and free:
            raise MismatchedGroup("nonzero free coordinate in a rank-zero group")
        reduced = tuple(t % d for t, d in zip(tors, self.torsion))
        return GroupElement(self, int(free), reduced)

    def from_vector(self, vec: Iterable[int]) -> "GroupElement":
        """Build an element from raw coordinates ``(free, t_1, ..., t_k)``.

        The leading free coordinate is always present, and must be zero for
        rank-zero groups.
        """
        vec = [int(v) for v in vec]
        if len(vec) != 1 + len(self.torsion):
            raise ParseError(
                f"weight vector {vec} has length {len(vec)}, expected {1 + len(self.torsion)}"
            )
        return self.element(vec[0], vec[1:])

    def zero(self) -> "GroupElement":
        return self.element(0, (0,) * len(self.torsion))

    def order(self):
        if self.free_rank:
            return math.inf
        return math.prod(self.torsion)

    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    def torsion_residues(self) -> Iterator[tuple[int, ...]]:
        """All torsion coordinate tuples, lexicographically."""
        return product(*(range(d) for d in self.torsion))

    def elements(self) -> list["GroupElement"]:
        if self.free_rank:
            raise InfiniteGroup(f"cannot enumerate {self}")
        return [self.element(0, t) for t in self.torsion_residues()]


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of an :class:`FGGroup`; construct via ``group.element``."""

    group: FGGroup
    free: int
    tors: tuple[int, ...]

    def _check(self, other):
        if self.group != other.group:
            raise MismatchedGroup(f"{self.group} vs {other.group}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.group.element(
            self.free + other.free, tuple(a + b for a, b in zip(self.tors, other.tors))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.group.element(
            self.free - other.free, tuple(a - b for a, b in zip(self.tors, other.tors))
        )

    def __neg__(self) -> "GroupElement":
        return self.group.element(-self.free, tuple(-t for t in self.tors))

    def __mul__(self, n: int) -> "GroupElement":
        return self.group.element(n * self.free, tuple(n * t for t in self.tors))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.free == 0 and not any(self.tors)

    def is_torsion(self) -> bool:
        return self.free == 0

    def free_part(self) -> int:
        """The image in ``G/G_tors = Z`` (the fixed orientation)."""
        if self.group.free_rank == 0:
            raise RankZeroGroup(f"{self.group} has no free part")
        return self.free

    def order(self):
        """Smallest n >= 1 with n*g = 0, or ``math.inf``.

        >>> FGGroup(1, (4,)).element(0, (2,)).order()
        2
        """
        if self.free:
            return math.inf
        n = 1
        for t, d in zip(self.tors, self.torsion_moduli()):
            n = math.lcm(n, d // math.gcd(d, t))
        return n

    def torsion_moduli(self) -> tuple[int, ...]:
        return self.group.torsion

    def key(self) -> tuple:
        """Raw coordinates ``(free, t_1, ..., t_k)`` (free kept for rank 0 too),
        which also serve as the sort key."""
        return (self.free,) + self.tors

    def __str__(self):
        tors = ",".join(str(t) for t in self.tors)
        if self.group.free_rank == 0:
            return f"({tors})"
        if not self.tors:
            return f"({self.free})"
        return f"({self.free};{tors})"

    def __repr__(self):
        return f"<{self} in {self.group}>"


def parse_element(group: FGGroup, text: str) -> GroupElement:
    """Parse the element text form, inverse to ``str``.

    Accepts ``(n;t1,...,tk)``, ``(n)``, ``(t1,...,tk)`` for rank-zero groups,
    and a bare integer for torsion-free rank-one groups.  Whitespace is
    ignored.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty element text")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if group.free_rank == 1:
        if ";" in s:
            head, _, tail = s.partition(";")
        elif group.torsion:
            raise ParseError(f"element of {group} needs '(free;t1,...)': {text!r}")
        else:
            head, tail = s, ""
    else:
        head, tail = "0", s
    try:
        free = int(head) if head else 0
        tors = tuple(int(t) for t in tail.split(",")) if tail else ()
    except ValueError as exc:
        raise ParseError(f"bad element text {text!r}") from exc
    if len(tors) != len(group.torsion):
        raise ParseError(
            f"element text {text!r} has {len(tors)} torsion coordinates, "
            f"expected {len(group.torsion)} for {group}"
        )
    if group.free_rank == 0:
        return group.element(0, tors)
    return group.element(free, tors)


# ---------------------------------------------------------------------------
# Quotients


@dataclass(frozen=True)
class QuotientMap:
    """A surjection ``source -> target`` given by an integer matrix on lifts.

    ``matrix`` maps raw source coordinates to raw target coordinates;
    ``section_matrix`` goes the other way and satisfies ``q(section(h)) = h``.
    ``kernel`` lists the finitely many elements with image zero.
    """

    source: FGGroup
    target: FGGroup
    matrix: tuple[tuple[int, ...], ...]
    section_matrix: tuple[tuple[int, ...], ...]
    kernel: tuple[GroupElement, ...] = field(compare=False)

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.group != self.source:
            raise MismatchedGroup(f"{g.group} is not the source {self.source}")
        y = _matvec(self.matrix, self._lift(g, self.source))
        return self._assemble(self.target, y)

    def section(self, h: GroupElement) -> GroupElement:
        """A preimage of ``h`` (one fixed choice)."""
        if h.group != self.target:
            raise MismatchedGroup(f"{h.group} is not the target {self.target}")
        x = _matvec(self.section_matrix, self._lift(h, self.target))
        return self._assemble(self.source, x)

    def fiber(self, h: GroupElement) -> tuple[GroupElement, ...]:
        """The full preimage of ``h``, sorted."""
        base = self.section(h)
        return tuple(sorted((base + k for k in self.kernel), key=GroupElement.key))

    @staticmethod
    def _lift(g: GroupElement, group: FGGroup) -> tuple[int, ...]:
        return ((g.free,) if group.free_rank else ()) + g.tors

    @staticmethod
    def _assemble(group: FGGroup, coords) -> GroupElement:
        if group.free_rank:
            return group.element(coords[0], coords[1:])
        return group.element(0, coords)


def _identity_quotient(g: FGGroup) -> QuotientMap:
    n = g.coordinate_count
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return QuotientMap(g, g, ident, ident, (g.zero(),))


def _group_relations(g: FGGroup) -> list[list[int]]:
    n = g.coordinate_count
    rels = []
    for j, d in enumerate(g.torsion):
        row = [0] * n
        row[g.free_rank + j] = d
        rels.append(row)
    return rels


def _span_closure(gens: Iterable[GroupElement], group: FGGroup) -> tuple[GroupElement, ...]:
    """The (finite) subgroup generated by torsion elements."""
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen, key=GroupElement.key))


def quotient_by_subgroup(
    g: FGGroup, gens: Iterable[GroupElement]
) -> tuple[FGGroup, QuotientMap]:
    """Quotient of ``g`` by the subgroup generated by torsion elements.

    The quotient comes out in invariant-factor form; when ``g`` has rank one
    the free coordinate of the quotient is oriented so that the projection to
    ``Z`` commutes with the one on ``g`` (same sign on every element).
    """
    gens = list(gens)
    for x in gens:
        if x.group != g:
            raise MismatchedGroup(f"generator {x!r} not in {g}")
        if not x.is_torsion():
            raise NonTorsionGenerator(f"{x} has infinite order")
    if all(x.is_zero() for x in gens):
        return g, _identity_quotient(g)

    n = g.coordinate_count
    rels = _group_relations(g)
    for x in gens:
        rels.append(list(QuotientMap._lift(x, g)))
    diag, basis, basis_inv = smith_normal_form(rels, n)

    free_idx = [i for i, d in enumerate(diag) if d == 0]
    tors_idx = [i for i, d in enumerate(diag) if d >= 2]
    if len(free_idx) != g.free_rank:
        raise NonTorsionGenerator("quotient changed the free rank")
    target = FGGroup(len(free_idx), tuple(diag[i] for i in tors_idx))

    order = free_idx + tors_idx
    fwd = [list(basis[i]) for i in order]
    sec = [[basis_inv[i][j] for j in order] for i in range(n)]

    if g.free_rank == 1:
        # the composite Z -> G -> H -> Z is multiplication by +-1; fix it to +1
        lam = fwd[0][0]
        if abs(lam) != 1:
            raise NonTorsionGenerator("quotient does not preserve the free line")
        if lam == -1:
            fwd[0] = [-v for v in fwd[0]]
            for row in sec:
                row[0] = -row[0]

    q = QuotientMap(
        g,
        target,
        tuple(tuple(r) for r in fwd),
        tuple(tuple(r) for r in sec),
        _span_closure(gens, g),
    )
    return target, q


def subgroup_is_whole(g: FGGroup, gens: Iterable[GroupElement]) -> bool:
    """Do the given elements generate all of ``g``?"""
    rels = _group_relations(g)
    for x in gens:
        if x.group != g:
            raise MismatchedGroup(f"generator {x!r} not in {g}")
        rels.append(list(QuotientMap._lift(x, g)))
    diag, _, _ = smith_normal_form(rels, g.coordinate_count)
    return all(d == 1 for d in diag)
