"""Shared fixtures: five worked singularities used as golden data throughout.

Keys: ``a1`` the 3-dimensional A_1 cone, ``ca4`` a cA_4 singularity with
class group Z, ``z2``/``z3`` torsion class groups Z + Z/2 and Z + Z/3, and
``z4`` a 4-dimensional example over Z + Z/4 whose graded quotient has a
two-element kernel.
"""

from functools import cache

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from toricnccr import FGGroup, InputError, grading_context, validate

SYSTEM_SPECS = {
    "a1": (1, (), [[1], [1], [-1], [-1]]),
    "ca4": (1, (), [[2], [3], [-2], [-3]]),
    "z2": (1, (2,), [[1, 0], [1, 1], [-1, 0], [-1, 1]]),
    "z3": (1, (3,), [[1, 0], [1, 0], [-1, 1], [-1, 2]]),
    "z4": (1, (4,), [[1, 0], [1, 1], [-1, 0], [-1, 1], [0, 2]]),
}

EXPECTED_CLASS_COUNTS = {"a1": 1, "ca4": 2, "z2": 2, "z3": 3, "z4": 2}
EXPECTED_VERTEX_COUNTS = {
    "a1": [2],
    "ca4": [5, 5],
    "z2": [4, 4],
    "z3": [6, 6, 6],
    "z4": [8, 8],
}


# torsion-free rank-one systems beyond the fixtures, named after their weights
LADDER = {
    "w2357": (2, 5, -3, -4),
    "w2525": (2, 5, -2, -5),
    "w3535": (3, 5, -3, -5),
    "w4577": (4, 7, -5, -6),
    "w40": (40, 1, -40, -1),
    "w6": (1, 2, 3, -1, -2, -3),
}


@cache
def ladder_context(key):
    group = FGGroup(1, ())
    return grading_context(validate(group, [group.element(w) for w in LADDER[key]]))


@cache
def build_system(key):
    rank, torsion, vecs = SYSTEM_SPECS[key]
    group = FGGroup(rank, torsion)
    return validate(group, [group.from_vector(v) for v in vecs])


@cache
def build_context(key):
    return grading_context(build_system(key))


@cache
def build_class_quiver(key, class_index, bound=None):
    from toricnccr import endomorphism_quiver, nccr_classes

    ctx = build_context(key)
    return endomorphism_quiver(ctx, nccr_classes(ctx)[class_index], bound)


@st.composite
def rank_one_systems(draw, max_free=5, torsions=((), (2,), (3,))):
    """Valid rank-one systems: 4-6 weights, free parts in -max_free..max_free,
    torsion drawn from ``torsions`` (default none, Z/2 or Z/3); the last weight
    completes the zero sum."""
    torsion = draw(st.sampled_from(list(torsions)))
    n = draw(st.integers(4, 6))
    weight = st.tuples(st.integers(-max_free, max_free), *(st.integers(0, d - 1) for d in torsion))
    vecs = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    last = [-sum(v[i] for v in vecs) for i in range(1 + len(torsion))]
    assume(abs(last[0]) <= max_free)
    group = FGGroup(1, torsion)
    try:
        return validate(group, [group.from_vector(v) for v in vecs + [last]])
    except InputError:
        assume(False)


@pytest.fixture(params=sorted(SYSTEM_SPECS))
def system_key(request):
    return request.param


@pytest.fixture
def ctx(system_key):
    return build_context(system_key)


@pytest.fixture
def a1():
    return build_context("a1")


@pytest.fixture
def ca4():
    return build_context("ca4")


@pytest.fixture
def z2():
    return build_context("z2")


@pytest.fixture
def z3():
    return build_context("z3")


@pytest.fixture
def z4():
    return build_context("z4")
