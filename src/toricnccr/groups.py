"""Exact arithmetic in finitely generated abelian groups of rank at most one.

Groups are kept in invariant-factor form ``Z^r x Z/d_1 x ... x Z/d_k`` with
``r <= 1``, every ``d_j >= 2`` and ``d_j | d_{j+1}``.  Elements carry their
group, store the free coordinate as a plain integer and torsion coordinates
as reduced residues, and support ``+``, ``-`` and integer scaling.  Groups
and elements take exact ``int`` numbers only (:func:`exact_int`), and integer
text is ASCII ``-?[0-9]+`` only (:func:`int_text`).

Quotients by finite subgroups are computed through the Smith normal form of
the relation matrix.  The projection keeps the free coordinate, and the Smith
basis yields its torsion block as an explicit integer matrix.

>>> G = FGGroup(1, (4,))
>>> str(G.element(3, (5,)))
'(3;1)'
>>> str(G.element(1, (1,)) + G.element(1, (3,)))
'(2;0)'
"""

from __future__ import annotations

import math
from contextlib import suppress
from itertools import product
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import (
    InfiniteGroup,
    InputError,
    InternalInconsistency,
    MismatchedGroup,
    NonTorsionGenerator,
    ParseError,
    RankZeroGroup,
    UnencodableReport,
)

_setattr = object.__setattr__  # how a Value's ``__init__`` sets a field


# ---------------------------------------------------------------------------
# Smith normal form over the integers


def smith_normal_form(relations: list[list[int]], n: int):
    """Diagonalize the subgroup of Z^n spanned by the given relation vectors.

    Returns ``(diag, basis)``: ``diag`` is a length-``n`` list with
    ``diag[0] | diag[1] | ...`` (zeros last, meaning a free coordinate), and
    ``basis`` is a unimodular n x n matrix such that in the coordinates ``y =
    basis @ x`` the subgroup is exactly ``diag[0]*Z x diag[1]*Z x ...``.
    """
    if n == 1:  # one coordinate: the subgroup is gcd·Z
        return [math.gcd(*(row[0] for row in relations))], [[1]]
    m = len(relations)
    # columns of a are the relations
    a = [[relations[j][i] for j in range(m)] for i in range(n)]
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        basis[i], basis[j] = basis[j], basis[i]

    def row_neg(i):
        a[i] = [-v for v in a[i]]
        basis[i] = [-v for v in basis[i]]

    def row_add(i, j, k):
        a[i] = [u + k * v for u, v in zip(a[i], a[j])]
        basis[i] = [u + k * v for u, v in zip(basis[i], basis[j])]

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
    return diag, basis


def _matvec(matrix, vec):
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in matrix)


# ---------------------------------------------------------------------------
# Groups and elements


class Value:
    """Base of the immutable value classes; unlike ``@dataclass``, it generates no code.

    Subclasses name their fields in the class statement (``class Rim(Value,
    fields=("elements",))``), with a class attribute of a field's name as its
    default, and ``__init__`` takes them in field order or by name.  Instances
    equal same-class ones with equal fields, hash as the tuple of their fields
    and refuse assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...]):
        cls._fields = fields
        cls._defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        get = attrgetter(*fields)
        cls._key = get if len(fields) > 1 else staticmethod(lambda obj: (get(obj),))

    def __init__(self, *args, **named):
        fields = self._fields
        if named or len(args) != len(fields):  # bind names and defaults as a call would
            rest, values = fields[len(args):], {**self._defaults, **named}
            if len(args) > len(fields) or not named.keys() <= set(rest) <= values.keys():
                raise InternalInconsistency(f"{type(self).__name__} takes the fields {fields}")
            args += tuple(map(values.__getitem__, rest))
        for i, name in enumerate(fields):
            _setattr(self, name, args[i])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def exact_int(value, what: str) -> int:
    """``value`` if it is an exact ``int``, else a :class:`ParseError` naming
    ``what``: a bool, a float or a numeric string is no integer here."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def as_tuple(values, what: str) -> tuple:
    """``values`` as a tuple if it is a list or tuple, else a :class:`ParseError`."""
    if type(values) not in (list, tuple):
        raise ParseError(f"{what} must be a list or tuple, got {values!r}")
    return tuple(values)


def int_text(text: str, what: str) -> int:
    """The integer that ``text`` writes as ASCII ``-?[0-9]+``, the form ``str`` gives;
    other text (``+``, ``_``, non-ASCII digits) is a :class:`ParseError` ``bad <what>``."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        with suppress(ValueError):  # more digits than sys.get_int_max_str_digits()
            return int(text)
    raise ParseError(f"bad {what}")


class FGGroup(Value, fields=("free_rank", "torsion")):
    """``Z^free_rank x Z/d_1 x ... x Z/d_k`` in invariant-factor form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] | list[int] = ()):
        if exact_int(free_rank, "free rank") not in (0, 1):
            raise InputError(f"free rank must be 0 or 1, got {free_rank}")
        torsion = tuple(exact_int(d, "invariant factor") for d in as_tuple(torsion, "torsion"))
        for i, d in enumerate(torsion):
            if d < 2:
                raise InputError(f"invariant factor {d} < 2")
            if i and torsion[i] % torsion[i - 1]:
                raise InputError(f"invariant chain broken: {torsion}")
        _setattr(self, "free_rank", free_rank)
        _setattr(self, "torsion", torsion)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    @property
    def coordinate_count(self) -> int:
        return self.free_rank + len(self.torsion)

    def element(self, free: int = 0, tors: tuple[int, ...] | list[int] = ()) -> "GroupElement":
        free, tors = exact_int(free, "coordinate"), as_tuple(tors, "torsion coordinates")
        if len(tors) != len(self.torsion):
            raise MismatchedGroup(
                f"expected {len(self.torsion)} torsion coordinates, got {len(tors)}"
            )
        if self.free_rank == 0 and free:
            raise MismatchedGroup("nonzero free coordinate in a rank-zero group")
        reduced = tuple(exact_int(t, "coordinate") % d for t, d in zip(tors, self.torsion))
        return GroupElement(self, free, reduced)

    def from_vector(self, vec: list[int] | tuple[int, ...]) -> "GroupElement":
        """Build an element from raw coordinates ``(free, t_1, ..., t_k)``, a
        list or tuple whose entries :meth:`element` checks.

        The leading free coordinate is always present, and must be zero for
        rank-zero groups.
        """
        if type(vec) not in (list, tuple) or len(vec) != 1 + len(self.torsion):
            n = 1 + len(self.torsion)
            raise ParseError(f"a weight vector of {self} is a list of length {n}, got {vec!r}")
        return self.element(vec[0], vec[1:])

    def owns(self, x) -> None:
        """Refuse with :class:`MismatchedGroup` anything that is not an element
        of this group; an equal group built apart owns it too."""
        if type(x) is not GroupElement or x.group is not self and x.group != self:
            raise MismatchedGroup(f"{x!r} is not an element of {self}")

    def sum_key(self, elements) -> tuple[int, ...]:
        """The ``key()`` of the sum of ``elements`` (at least one), from integer column sums."""
        free, *tors = map(sum, zip(*(x.key() for x in elements)))
        return (free, *(t % d for t, d in zip(tors, self.torsion)))

    def zero(self) -> "GroupElement":
        return self.element(0, (0,) * len(self.torsion))

    def torsion_order(self) -> int:
        return math.prod(self.torsion)

    def torsion_residues(self) -> Iterator[tuple[int, ...]]:
        """All torsion coordinate tuples, lexicographically."""
        return product(*(range(d) for d in self.torsion))

    def elements(self) -> list["GroupElement"]:
        if self.free_rank:
            raise InfiniteGroup(f"cannot enumerate {self}")
        return [GroupElement(self, 0, t) for t in self.torsion_residues()]


class GroupElement(Value, fields=("group", "free", "tors")):
    """An element of an :class:`FGGroup`; construct via ``group.element``."""

    __slots__ = ("group", "free", "tors")

    def __init__(self, group: FGGroup, free: int, tors: tuple[int, ...]):
        _setattr(self, "group", group)
        _setattr(self, "free", free)
        _setattr(self, "tors", tors)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self.group.owns(other)
        return self.group.element(
            self.free + other.free, tuple(a + b for a, b in zip(self.tors, other.tors))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self.group.owns(other)
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
        return math.lcm(*(d // math.gcd(d, t) for t, d in zip(self.tors, self.group.torsion)))

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
    ignored, and each coordinate is read by :func:`int_text`.
    """
    if type(text) is not str:
        raise ParseError(f"element text must be a string, got {text!r}")
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
    what = f"element text {text!r}"
    free = int_text(head, what)  # an empty free coordinate is refused, not read as 0
    tors = tuple(int_text(t, what) for t in tail.split(",")) if tail else ()
    if len(tors) != len(group.torsion):
        raise ParseError(
            f"element text {text!r} has {len(tors)} torsion coordinates, "
            f"expected {len(group.torsion)} for {group}"
        )
    return group.element(free, tors)  # free is 0 in a rank-zero group


# the text of each JSON scalar, by exact type (bool is no int here)
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def indented_json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for dicts with str keys, lists, str, int,
    bool and None, where any other value raises :class:`UnencodableReport`
    and any other key a ``TypeError``; with an indent, ``json`` encodes in
    pure Python.  ``indent`` is the newline and indent ``obj`` starts on.

    >>> indented_json({"a": [1, 2], "b": []})
    '{\\n  "a": [\\n    1,\\n    2\\n  ],\\n  "b": []\\n}'
    """
    text = _SCALAR_TEXT.get(type(obj))
    if text:
        return text(obj)
    inner = indent + "  "
    if type(obj) is list:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(text, obj) if text else [indented_json(x, inner) for x in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if type(obj) is not dict:
        raise UnencodableReport(f"no JSON text for {type(obj).__name__} {obj!r}")
    if not obj:
        return "{}"
    items = [f"{encode_basestring_ascii(k)}: "  # a TypeError for a key that is no str
             f"{_SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT else indented_json(v, inner)}"
             for k, v in obj.items()]
    # the braces join the end items, so one join builds the text of a report
    items[0] = "{" + inner + items[0]
    items[-1] += indent + "}"
    return (',' + inner).join(items)


# ---------------------------------------------------------------------------
# Quotients


class QuotientMap(Value, fields=("source", "target", "matrix")):
    """A surjection ``source -> target`` that keeps the free coordinate.

    ``matrix`` is the torsion block: it maps the torsion coordinates of the
    source to those of the target.  Images and preimages in bulk are read off
    codes (:meth:`~.poset.GradedContext.image_code`, ``preimage_codes``).
    """

    @property
    def kernel_order(self) -> int:
        """``|ker q| = |T_source| / |T_target|``: ``q`` is onto and keeps the free
        part, so its kernel is the torsion subgroup the generators span, and
        ``q`` maps the torsion of the source onto that of the target."""
        return self.source.torsion_order() // self.target.torsion_order()

    def __call__(self, g: GroupElement) -> GroupElement:
        self.source.owns(g)
        return self.target.element(g.free, _matvec(self.matrix, g.tors))


def _relations(g: FGGroup, gens: Iterable[GroupElement]) -> list[list[int]]:
    """The relation rows of ``g`` followed by the raw coordinates of each generator."""
    r = g.free_rank
    rels = [[d * (i == r + j) for i in range(g.coordinate_count)] for j, d in enumerate(g.torsion)]
    for x in gens:
        g.owns(x)
        rels.append(list(x.key()[1 - r:]))
    return rels


def quotient_by_subgroup(
    g: FGGroup, gens: Iterable[GroupElement]
) -> tuple[FGGroup, QuotientMap]:
    """Quotient of ``g`` by the subgroup generated by torsion elements.

    Every generator has free part 0, so the quotient is ``Z^r x T/K`` (``T``
    the torsion of ``g``, ``K`` the span) and the projection keeps the free
    coordinate.  Its matrix is the torsion block of the Smith basis of the
    relations; a basis that moves the free coordinate is a bug and raises
    :class:`InternalInconsistency`.  The kernel is never listed: the map
    carries only its order, :attr:`QuotientMap.kernel_order`.
    """
    gens = list(gens)
    if not gens:  # the relations d_j·e_j alone: diag(d_1, ..., d_k) beside the free zero row,
        # with d_j | d_{j+1} (FGGroup checks it), is its own Smith form, so H = G and q = id
        k = range(len(g.torsion))
        return g, QuotientMap(g, g, tuple(tuple(1 if i == j else 0 for j in k) for i in k))
    rels = _relations(g, gens)
    for x in gens:
        if not x.is_torsion():
            raise NonTorsionGenerator(f"{x} has infinite order")

    diag, basis = smith_normal_form(rels, g.coordinate_count)
    # the free coordinate is a zero row of the relations: the reduction never
    # pivots on it, adds it or negates it, so its basis row stays e_0 at the
    # one zero of diag, and no other basis row gets a free entry
    r, e0 = g.free_rank, [1] + [0] * len(g.torsion)
    if [(d, row) for d, row in zip(diag, basis) if d == 0 or any(row[:r])] != [(0, e0)] * r:
        raise InternalInconsistency(f"the Smith basis moved the free coordinate: {basis}")

    tors_idx = [i for i, d in enumerate(diag) if d >= 2]
    target = FGGroup(r, tuple(diag[i] for i in tors_idx))
    return target, QuotientMap(g, target, tuple(tuple(basis[i][r:]) for i in tors_idx))


def subgroup_is_whole(g: FGGroup, gens: Iterable[GroupElement]) -> bool:
    """Do the given elements generate all of ``g``?"""
    diag, _ = smith_normal_form(_relations(g, gens), g.coordinate_count)
    return all(d == 1 for d in diag)
