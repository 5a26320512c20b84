"""Independent brute-force verification of the Cohen-Macaulay criterion.

A degree fails to be maximal Cohen-Macaulay exactly when some integer vector
``a`` with ``sum a_i * x_i = g`` matches one of two sign patterns: nonnegative
on the positive block and negative everywhere else, or nonnegative on the
negative block and negative everywhere else.  The oracle searches for such
witnesses inside a finite window and cross-checks the order criterion.

The topological side: each sign vector ``a`` selects a subcomplex of the face
complex of the weight polytope, whose homotopy type is one of empty, a point,
or a sphere of dimension ``positives - 2`` or ``negatives - 2``.  A small
exact simplicial homology engine (boundary-matrix ranks over the rationals)
verifies the classification numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import OracleMismatch, UnclassifiableSignPattern
from .groups import GroupElement
from .poset import GradedContext
from .weights import WeightSystem


# ---------------------------------------------------------------------------
# Sign-pattern witnesses


# Each cache holds one job's working set and is bounded so that it cannot grow
# for the life of the process: a crosscheck reads four block-sum tables, a
# system has one face list, and the sign vectors of a system with n weights
# select at most 2^n distinct complexes (64 for six weights).
@lru_cache(maxsize=4)
def _block_sums(ws: WeightSystem, indices: tuple[int, ...], lo: int, hi: int):
    """All values of ``sum c_i * x_i`` with ``c_i`` in [lo, hi], with one witness."""
    table = {ws.group.zero(): ()}
    for idx in indices:
        x = ws.weights[idx]
        new = {}
        for value, coeffs in table.items():
            for c in range(lo, hi + 1):
                key = value + c * x
                if key not in new:
                    new[key] = coeffs + (c,)
        table = new
    return table


def _pattern_blocks(ws: WeightSystem, pattern: int):
    n = len(ws.weights)
    l, lp = ws.positives, ws.negatives
    if pattern == 6:
        nonneg = tuple(range(l))
        negative = tuple(range(l, n))
    else:
        nonneg = tuple(range(l, l + lp))
        negative = tuple(range(l)) + tuple(range(l + lp, n))
    return nonneg, negative


def _pattern_witness(ws: WeightSystem, g: GroupElement, window: int, pattern: int):
    nonneg, negative = _pattern_blocks(ws, pattern)
    pos_table = _block_sums(ws, nonneg, 0, window)
    neg_table = _block_sums(ws, negative, -window, -1)
    for value, pos_coeffs in pos_table.items():
        neg_coeffs = neg_table.get(g - value)
        if neg_coeffs is None:
            continue
        a = [0] * len(ws.weights)
        for j, i in enumerate(nonneg):
            a[i] = pos_coeffs[j]
        for j, i in enumerate(negative):
            a[i] = neg_coeffs[j]
        return tuple(a)
    return None


def sign_pattern_witness(ws: WeightSystem, g: GroupElement, window: int):
    """A vector ``a`` with ``|a_i| <= window`` and ``sum a_i x_i = g`` matching
    one of the two non-Cohen-Macaulay sign patterns, or ``None``."""
    if window < 1:
        raise ValueError("window must be at least 1")
    return _pattern_witness(ws, g, window, 6) or _pattern_witness(ws, g, window, 7)


def sufficient_window(ctx: GradedContext, degrees) -> int:
    """A window size provably large enough for the crosscheck on these degrees.

    Whenever an (unbounded) witness exists, one exists with positive/negative
    block entries at most ``(max |free(g)| - free(p)) / min generator free
    part + 1`` and torsion-weight entries at most the weight's order.
    """
    maxpi = max(abs(g.free_part()) for g in degrees)
    min_gen = min(g.free for g in ctx.generators)
    tors_orders = [int(x.order()) for x in ctx.weights.torsion_weights]
    block_bound = max(0, (maxpi - ctx.p.free)) // min_gen + 1
    return max([block_bound, 1, *tors_orders])


@dataclass(frozen=True)
class CrosscheckReport:
    checked: int
    agreements: int
    mismatches: tuple
    window: int

    def summary(self) -> str:
        return f"agree: {self.agreements}/{self.checked}, mismatches: {len(self.mismatches)}"


def crosscheck_mcm(
    ctx: GradedContext, degrees, window: int, strict: bool = True
) -> CrosscheckReport:
    """Assert ``is_mcm(g) <=> no sign-pattern witness`` for every degree.

    Raises :class:`OracleMismatch` on any disagreement (a bug: the
    equivalence is a theorem); pass ``strict=False`` to get the report back
    instead.
    """
    from .nccr import is_mcm

    degrees = list(degrees)
    need = sufficient_window(ctx, degrees)
    if window < need:
        raise ValueError(f"window {window} below the sufficiency bound {need}")
    mismatches = []
    agreements = 0
    for g in degrees:
        mcm = is_mcm(ctx, g)
        witness = sign_pattern_witness(ctx.weights, g, window)
        if mcm == (witness is None):
            agreements += 1
        else:
            mismatches.append((g, mcm, witness))
    report = CrosscheckReport(len(degrees), agreements, tuple(mismatches), window)
    if mismatches and strict:
        raise OracleMismatch(report)
    return report


# ---------------------------------------------------------------------------
# The face complex of a sign vector


def face_test(ws: WeightSystem, indices) -> bool:
    """Is the vertex subset (0-based weight positions) a face of the polytope?

    A subset is a face iff a relation ``sum s_i x_i = 0`` exists with ``s``
    zero on it and positive off it: possible iff the complement is empty,
    mixes both free-part signs, or consists of torsion weights only (whose
    contribution dies after scaling by the torsion exponent).
    """
    n = len(ws.weights)
    complement = set(range(n)) - set(indices)
    if not complement:
        return True
    l, lp = ws.positives, ws.negatives
    has_pos = any(i < l for i in complement)
    has_neg = any(l <= i < l + lp for i in complement)
    if has_pos and has_neg:
        return True
    return not has_pos and not has_neg


@dataclass(frozen=True)
class HomotopyType:
    kind: str  # "empty" | "contractible" | "sphere"
    dim: int | None = None

    def betti_profile(self) -> dict[int, int]:
        if self.kind == "empty":
            return {-1: 1}
        if self.kind == "contractible":
            return {}
        return {self.dim: 1}

    def __str__(self):
        return f"S^{self.dim}" if self.kind == "sphere" else self.kind


EMPTY = HomotopyType("empty")
CONTRACTIBLE = HomotopyType("contractible")


def sphere(dim: int) -> HomotopyType:
    return HomotopyType("sphere", dim)


def classify_sign_vector(ws: WeightSystem, a) -> HomotopyType:
    """Homotopy type of the support subcomplex selected by the sign vector."""
    n = len(ws.weights)
    a = tuple(a)
    if len(a) != n:
        raise ValueError(f"sign vector length {len(a)}, expected {n}")
    l, lp = ws.positives, ws.negatives
    if any(a[i] >= 0 for i in range(l + lp, n)):
        return CONTRACTIBLE
    pos = [a[i] >= 0 for i in range(l)]
    neg = [a[i] >= 0 for i in range(l, l + lp)]
    if any(pos) and not all(pos):
        return CONTRACTIBLE
    if any(neg) and not all(neg):
        return CONTRACTIBLE
    if not any(pos) and not any(neg):
        return EMPTY
    if all(pos) and all(neg):
        return CONTRACTIBLE
    if all(pos):
        return sphere(l - 2)
    if all(neg):
        return sphere(lp - 2)
    raise UnclassifiableSignPattern(f"a = {a}")  # pragma: no cover


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract complex given by its facets (downward closure implied)."""

    vertex_count: int
    facets: tuple[tuple[int, ...], ...]

    def faces_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        seen = set()
        for facet in self.facets:
            for k in range(1, len(facet) + 1):
                seen.update(combinations(facet, k))
        out: dict[int, list] = {}
        for face in seen:
            out.setdefault(len(face) - 1, []).append(face)
        for k in out:
            out[k].sort()
        return out

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1


@lru_cache(maxsize=8)
def _face_masks(ws: WeightSystem) -> tuple[tuple[int, tuple[int, ...]], ...]:
    n = len(ws.weights)
    out = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if face_test(ws, subset):
                mask = 0
                for i in subset:
                    mask |= 1 << i
                out.append((mask, subset))
    return tuple(out)


def support_complex(ws: WeightSystem, a) -> SimplicialComplex:
    """The complex of faces whose vertices all have nonnegative sign."""
    a = tuple(a)
    nonneg_mask = 0
    for i, v in enumerate(a):
        if v >= 0:
            nonneg_mask |= 1 << i
    members = [
        (mask, subset) for mask, subset in _face_masks(ws) if mask & ~nonneg_mask == 0
    ]
    facets = [
        subset
        for mask, subset in members
        if not any(other != mask and mask & other == mask for other, _ in members)
    ]
    return SimplicialComplex(len(a), tuple(sorted(facets)))


# ---------------------------------------------------------------------------
# Exact simplicial homology


def _matrix_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    cols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < cols:
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


@lru_cache(maxsize=128)
def reduced_homology(complex_: SimplicialComplex) -> tuple[tuple[int, int], ...]:
    """Reduced Betti numbers over Q as ``((degree, rank), ...)`` for degrees
    -1 .. dim; the empty face is always part of the chain complex, so the
    empty complex has a single unit in degree -1."""
    faces = complex_.faces_by_dim()
    top = max(faces, default=-1)
    dims = {-1: 1}
    for k in range(top + 1):
        dims[k] = len(faces[k])

    ranks = {}  # rank of boundary C_k -> C_{k-1}
    if 0 in faces:
        ranks[0] = _matrix_rank([[1] * len(faces[0])])
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(faces[k - 1])}
        rows = [[0] * len(faces[k]) for _ in range(len(faces[k - 1]))]
        for j, face in enumerate(faces[k]):
            for omit in range(len(face)):
                sub = face[:omit] + face[omit + 1 :]
                rows[lower[sub]][j] = (-1) ** omit
        ranks[k] = _matrix_rank(rows)

    betti = []
    for k in range(-1, top + 1):
        b = dims[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)
        betti.append((k, b))
    return tuple(betti)


def betti_numbers(complex_: SimplicialComplex) -> dict[int, int]:
    return dict(reduced_homology(complex_))


# ---------------------------------------------------------------------------
# Windowed local cohomology


def local_cohomology_window(ws: WeightSystem, g: GroupElement, window: int) -> dict[int, int]:
    """Per cohomological degree, the number of windowed sign vectors whose
    support complex contributes there; a lower bound for the true dimensions."""
    n = len(ws.weights)
    d = ws.ring_dimension - 1
    totals: dict[int, int] = {}
    vec = [0] * n

    def explore(i, partial):
        if i == n:
            if partial == g:
                for deg, cnt in classify_sign_vector(ws, vec).betti_profile().items():
                    r = d - deg
                    totals[r] = totals.get(r, 0) + cnt
            return
        for c in range(-window, window + 1):
            vec[i] = c
            explore(i + 1, partial + c * ws.weights[i])
        vec[i] = 0

    explore(0, ws.group.zero())
    return totals
