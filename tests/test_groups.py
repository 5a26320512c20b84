"""Group arithmetic, Smith normal form, quotients and serialization."""

import doctest
import json
import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricnccr.groups
from toricnccr import (
    AxiomReport,
    FGGroup,
    InfiniteGroup,
    MismatchedGroup,
    NonTorsionGenerator,
    ParseError,
    Quiver,
    RankZeroGroup,
    Rim,
    RimStatus,
    SimplicialComplex,
    SummandSet,
    WeightSystem,
    parse_element,
    quotient_by_subgroup,
    smith_normal_form,
    subgroup_is_whole,
)
from toricnccr.errors import InternalCheckError, InternalInconsistency, UnencodableReport
from toricnccr.groups import GroupElement, QuotientMap, indented_json
from toricnccr.nccr import MutationCertificate
from toricnccr.oracle import CrosscheckReport, HomotopyType
from toricnccr.quivers import Arrow
from toricnccr.uppersets import ExchangeGraph, RimCheck, TranslationClass
from conftest import SYSTEM_SPECS, build_context, fiber, kernel_systems, quotient_by_full_snf


def test_doctests():
    failures, _ = doctest.testmod(toricnccr.groups)
    assert failures == 0


class TestElementArithmetic:
    def test_order_two_torsion_cancels(self):
        g = FGGroup(1, (2,))
        assert g.element(1, (1,)) + g.element(1, (1,)) == g.element(2, (0,))

    def test_modular_negation(self):
        g = FGGroup(1, (3,))
        assert -g.element(1, (1,)) == g.element(-1, (2,))

    def test_scaling_is_repeated_addition(self):
        g = FGGroup(1, (4,))
        e = g.element(1, (1,))
        assert 3 * e == g.element(3, (3,))
        assert 3 * e == e + e + e

    def test_mismatched_groups_rejected(self):
        a = FGGroup(1, (2,)).element(1, (0,))
        b = FGGroup(1, (3,)).element(1, (0,))
        with pytest.raises(MismatchedGroup):
            a + b

    def test_group_laws_on_random_elements(self):
        rng = random.Random(11)
        g = FGGroup(1, (2, 6))
        for _ in range(200):
            a = g.element(rng.randint(-9, 9), (rng.randrange(2), rng.randrange(6)))
            b = g.element(rng.randint(-9, 9), (rng.randrange(2), rng.randrange(6)))
            c = g.element(rng.randint(-9, 9), (rng.randrange(2), rng.randrange(6)))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a + (-a)).is_zero()

    def test_reduction_is_idempotent(self):
        g = FGGroup(1, (4,))
        e = g.element(2, (3,))
        assert g.element(e.free, e.tors) == e


class TestFreeProjection:
    def test_canonical_coordinate(self):
        g = FGGroup(1, (2, 4))
        assert g.element(3, (1, 2)).free_part() == 3
        assert g.element(0, (1, 0)).free_part() == 0
        assert g.element(-2, (0, 0)).free_part() == -2

    def test_rank_zero_rejected(self):
        g = FGGroup(0, (6,))
        with pytest.raises(RankZeroGroup):
            g.element(0, (2,)).free_part()


class TestElementOrder:
    def test_torsion_orders(self):
        g = FGGroup(1, (4,))
        assert g.element(0, (2,)).order() == 2
        assert g.element(1, (0,)).order() == math.inf
        assert FGGroup(0, (6,)).element(0, (2,)).order() == 3

    def test_order_annihilates(self):
        g = FGGroup(0, (2, 12))
        for e in g.elements():
            n = e.order()
            assert (n * e).is_zero()
            if n > 1:
                assert not ((n // 2 if n % 2 == 0 else 1) * e).is_zero() or n == 1


def determinant(matrix):
    """Exact determinant by Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * v * determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, v in enumerate(matrix[0])
        if v
    )


class TestSmithNormalForm:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_relations_diagonalize(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        rels = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        diag, basis = smith_normal_form([r[:] for r in rels], n)
        # basis is unimodular
        assert determinant(basis) in (1, -1)
        # divisibility chain
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # each relation, in new coordinates, is a multiple of the diagonal
        for rel in rels:
            y = [sum(basis[i][k] * rel[k] for k in range(n)) for i in range(n)]
            for i, d in enumerate(diag):
                if d:
                    assert y[i] % d == 0
                else:
                    assert y[i] == 0, "free coordinates vanish on relations"

    def test_relations_span_check(self):
        # relation rows (2,0),(0,2) inside Z^2: quotient (Z/2)^2
        diag, _ = smith_normal_form([[2, 0], [0, 2]], 2)
        assert sorted(d for d in diag if d) == [2, 2]


QUOTIENT_TORSIONS = [(2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (4, 8), (3, 9), (2, 2, 2), (2, 2, 4)]


@st.composite
def torsion_quotients(draw):
    """A group of free rank 0 or 1 over one of ``QUOTIENT_TORSIONS`` and 0-3
    torsion generators, zero ones included."""
    group = FGGroup(draw(st.integers(0, 1)), draw(st.sampled_from(QUOTIENT_TORSIONS)))
    tors = st.tuples(*(st.integers(0, d - 1) for d in group.torsion))
    return group, [group.element(0, t) for t in draw(st.lists(tors, max_size=3))]


class TestQuotient:
    def test_quotient_of_z4_by_two_torsion(self):
        g = FGGroup(1, (4,))
        h, q = quotient_by_subgroup(g, [g.element(0, (2,))])
        assert h == FGGroup(1, (2,))
        assert q(g.element(1, (1,))) == h.element(1, (1,))
        assert fiber(q, h.zero()) == (g.element(0, (0,)), g.element(0, (2,)))
        assert q.kernel_order == 2

    def test_empty_generators_identity(self):
        g = FGGroup(1, (2,))
        h, q = quotient_by_subgroup(g, [])
        assert h == g
        e = g.element(5, (1,))
        assert q(e) == e
        assert q.kernel_order == 1

    def test_kill_whole_torsion(self):
        # Smith normal form of the 2x2 relation matrix, worked by hand:
        # relations (0,2) and the generator (0,1) leave Z
        g = FGGroup(1, (2,))
        h, q = quotient_by_subgroup(g, [g.element(0, (1,))])
        assert h == FGGroup(1, ())
        assert q(g.element(3, (1,))) == h.element(3)

    def test_non_torsion_generator_rejected(self):
        g = FGGroup(1, (2,))
        with pytest.raises(NonTorsionGenerator):
            quotient_by_subgroup(g, [g.element(1, (0,))])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_orientation_preserves_sign(self, ws):
        g = FGGroup(1, (4, 8))
        h, q = quotient_by_subgroup(g, [g.element(0, (2, 4))])
        for free in (-3, -1, 1, 2, 7):
            img = q(g.element(free, (1, 3)))
            assert (img.free_part() > 0) == (free > 0)
            assert abs(img.free_part()) == abs(free)
        # q keeps the free coordinate on the worked systems and a random one
        # with a nontrivial kernel
        maps = [q, quotient_by_subgroup(ws.group, ws.torsion_weights)[1]]
        maps += [build_context(key).q for key in SYSTEM_SPECS]
        for q in maps:
            for free, t in product((-3, 0, 2), q.source.torsion_residues()):
                x = q.source.element(free, t)
                assert q(x).free == x.free

    @pytest.mark.parametrize("damage", ["negated free row", "free entry in a torsion row"])
    def test_moved_free_coordinate_is_a_bug(self, monkeypatch, damage):
        real = toricnccr.groups.smith_normal_form

        def damaged(relations, n):
            diag, basis = real(relations, n)
            assert diag == [2, 0] and basis == [[0, 1], [1, 0]]
            if damage == "negated free row":
                basis[1] = [-1, 0]
            else:
                basis[0] = [1, 1]
            return diag, basis

        monkeypatch.setattr(toricnccr.groups, "smith_normal_form", damaged)
        g = FGGroup(1, (4,))
        with pytest.raises(InternalInconsistency, match="moved the free coordinate"):
            quotient_by_subgroup(g, [g.element(0, (2,))])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(torsion_quotients())
    @example((FGGroup(1, (2, 4)), [FGGroup(1, (2, 4)).zero()] * 2))
    @example((FGGroup(0, (3, 3)), [FGGroup(0, (3, 3)).zero()]))
    @example((FGGroup(0, (6,)), []))
    def test_agrees_with_full_snf_oracle(self, case):
        g, gens = case
        h, q = quotient_by_subgroup(g, gens)
        target, image = quotient_by_full_snf(g, gens)
        assert h == target
        for free in (-2, 0, 3) if g.free_rank else (0,):
            for t in g.torsion_residues():
                x = g.element(free, t)
                assert q(x) == image(x)

    def test_additivity_and_surjectivity_sampled(self):
        rng = random.Random(5)
        g = FGGroup(1, (2, 4))
        h, q = quotient_by_subgroup(g, [g.element(0, (1, 2))])
        for _ in range(200):
            a = g.element(rng.randint(-9, 9), (rng.randrange(2), rng.randrange(4)))
            b = g.element(rng.randint(-9, 9), (rng.randrange(2), rng.randrange(4)))
            assert q(a + b) == q(a) + q(b)
        for free, tors in product(range(-3, 4), h.torsion_residues()):
            target = h.element(free, tors)
            assert fiber(q, target)

    def test_kernel_is_exactly_generated_subgroup(self):
        g = FGGroup(1, (2, 4))
        gens = [g.element(0, (1, 2))]
        h, q = quotient_by_subgroup(g, gens)
        generated = {g.zero(), g.element(0, (1, 2))}
        # exhaustively scan the torsion part for elements mapping to zero
        for tors in g.torsion_residues():
            e = g.element(0, tors)
            assert q(e).is_zero() == (e in generated)
        assert set(fiber(q, h.zero())) == generated
        assert q.kernel_order == len(generated)

    def test_fiber_size(self):
        g = FGGroup(1, (4,))
        h, q = quotient_by_subgroup(g, [g.element(0, (2,))])
        over = fiber(q, h.element(1, (1,)))
        assert len(over) == 2
        assert all(q(e) == h.element(1, (1,)) for e in over)


class TestSubgroupSpan:
    def test_full_and_proper(self):
        g = FGGroup(1, ())
        assert subgroup_is_whole(g, [g.element(2), g.element(3)])
        assert not subgroup_is_whole(g, [g.element(2), g.element(4)])

    def test_with_torsion(self):
        g = FGGroup(1, (2,))
        assert subgroup_is_whole(g, [g.element(1, (0,)), g.element(1, (1,))])
        assert not subgroup_is_whole(g, [g.element(1, (0,)), g.element(-1, (0,))])


class TestSerialization:
    @pytest.mark.parametrize(
        "group,element,text",
        [
            (FGGroup(1, ()), (3, ()), "(3)"),
            (FGGroup(1, (2, 4)), (-2, (1, 3)), "(-2;1,3)"),
            (FGGroup(0, (6,)), (0, (4,)), "(4)"),
            (FGGroup(0, ()), (0, ()), "()"),
        ],
    )
    def test_roundtrip(self, group, element, text):
        e = group.element(*element)
        assert str(e) == text
        assert parse_element(group, text) == e

    def test_parse_accepts_bare_integers(self):
        g = FGGroup(1, ())
        assert parse_element(g, "-7") == g.element(-7)

    @pytest.mark.parametrize(
        "group,text",
        [(FGGroup(1, ()), "()"), (FGGroup(1, ()), "(;)"), (FGGroup(1, (3,)), "(;1)")],
    )
    def test_parse_refuses_empty_free_coordinate(self, group, text):
        # an empty free coordinate is no element, not (0)
        with pytest.raises(ParseError):
            parse_element(group, text)

    def test_parse_rejects_wrong_shape(self):
        with pytest.raises(ParseError):
            parse_element(FGGroup(1, (2,)), "(1;2,3)")

    def test_group_text_form(self):
        assert str(FGGroup(1, (2, 4))) == "Z x Z/2 x Z/4"
        assert str(FGGroup(0, (3,))) == "Z/3"
        assert str(FGGroup(0, ())) == "0"

    def test_enumeration_needs_finite_group(self):
        with pytest.raises(InfiniteGroup):
            FGGroup(1, ()).elements()
        assert len(FGGroup(0, (2, 4)).elements()) == 8


class TestValueClasses:
    """Every value class keeps the semantics of a frozen dataclass."""

    G = FGGroup(1, (3,))
    g, h = G.element(1, (2,)), G.element(-1, (1,))
    rim = Rim((g,))
    # (class, field names in order, field values)
    CASES = [
        (FGGroup, ("free_rank", "torsion"), (1, (3,))),
        (GroupElement, ("group", "free", "tors"), (G, 1, (2,))),
        (QuotientMap, ("source", "target", "matrix"), (G, G, ((1,),))),
        (WeightSystem, ("group", "weights", "positives", "negatives", "permutation"),
         (G, (g, g, h, h), 2, 2, (0, 1, 2, 3))),
        (AxiomReport, ("period", "conductor"), (g, 3)),
        (RimCheck, ("status", "witness"), (RimStatus.INVALID, (g, h))),
        (Rim, ("elements",), ((g, h),)),
        (TranslationClass, ("rim", "stabilizer_order"), (rim, 2)),
        (ExchangeGraph, ("nodes", "edges"), ((TranslationClass(rim),), ((0, 0, g),))),
        (SummandSet, ("degrees",), ((g, h),)),
        (MutationCertificate, ("fixed_part", "removed_orbit", "plus_steps", "minus_steps"),
         (SummandSet((g,)), h, 1, 3)),
        (Arrow, ("source", "target", "exponents"), (0, 1, (1, 0, 2))),
        (Quiver, ("vertices", "arrows"), ((g, h), (Arrow(0, 1, (1,)),))),
        (CrosscheckReport, ("checked", "agreements", "mismatches", "window"), (3, 3, (), 10)),
        (HomotopyType, ("kind", "dim"), ("sphere", 2)),
        (SimplicialComplex, ("vertex_count", "facets"), (3, ((0, 1), (2,)))),
    ]

    @pytest.mark.parametrize("cls, names, values", CASES, ids=[c[0].__name__ for c in CASES])
    def test_semantics(self, cls, names, values):
        a, b = cls(*values), cls(**dict(zip(names, values)))
        assert tuple(getattr(a, n) for n in names) == values
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(values)
        if cls is not GroupElement:  # which prints as "<(1;2) in Z x Z/3>"
            assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
        other = next(c for c in self.CASES if c[0] is not cls)
        assert a != other[0](*other[2]) and a != values
        assert a.__eq__(values) is NotImplemented
        for name in (names[0], "unknown"):
            with pytest.raises(AttributeError):
                setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, names[0])
        assert a == b and getattr(a, names[0]) is values[0]

    def test_defaults(self):
        assert FGGroup(1).torsion == ()
        assert HomotopyType("empty").dim is None
        assert RimCheck(RimStatus.COMPLETE).witness is None
        assert TranslationClass(self.rim).stabilizer_order == 1

    def test_cases_are_every_value_class(self):
        found, stack = set(), [toricnccr.groups.Value]
        while stack:
            for sub in stack.pop().__subclasses__():
                found.add(sub)
                stack.append(sub)
        assert found == {case[0] for case in self.CASES}

    @pytest.mark.parametrize("cls, names, values", CASES, ids=[c[0].__name__ for c in CASES])
    def test_one_constructor(self, cls, names, values):
        # only the validating group and the hot element type keep an __init__ of their own
        own = "__init__" in vars(cls)
        assert own == (cls in (FGGroup, GroupElement))
        refusal = TypeError if own else InternalInconsistency
        with pytest.raises(refusal):
            cls(*values, values[0])
        with pytest.raises(refusal):
            cls(**dict(zip(names[1:], values[1:])))  # the first field, which has no default
        with pytest.raises(refusal):
            cls(*values[:-1], **{names[-1]: values[-1], "unknown": 1})
        with pytest.raises(refusal):
            cls(*values, **{names[0]: values[0]})  # the first field twice
        assert cls(*values[:-1], **{names[-1]: values[-1]}) == cls(*values)

    def test_group_rejects(self):
        with pytest.raises(ValueError, match=r"^free rank must be 0 or 1, got 2$"):
            FGGroup(2)
        with pytest.raises(ValueError, match=r"^invariant factor 1 < 2$"):
            FGGroup(1, (1,))
        with pytest.raises(ValueError, match=r"^invariant chain broken: \(2, 3\)$"):
            FGGroup(0, [2, 3])
        assert FGGroup(0, [2, "4"]).torsion == (2, 4)


# JSON trees: quotes, backslashes, control and non-ASCII characters (astral
# ones included, which json writes as surrogate pairs), huge and negative ints,
# lists of one scalar type and lists mixing True and 1
_TRICKY = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 300), 10 ** 300)
            | st.text() | _TRICKY)
_UNIFORM_LISTS = (st.lists(st.integers()) | st.lists(st.text()) | st.lists(st.booleans())
                  | st.lists(st.none()) | st.lists(st.sampled_from([True, 1, False, 0, None])))
JSON_TREES = st.recursive(
    _SCALARS | _UNIFORM_LISTS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text() | _TRICKY, inner, max_size=5),
    max_leaves=30,
)


class TestIndentedJson:
    """``indented_json`` writes what ``json.dumps(obj, indent=2)`` writes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(JSON_TREES)
    @example([[]])
    @example({"a": {}, "b": [[], {}], "": [{}]})
    @example([True, 1, False, 0])
    @example({"\u00e9\"\\": [-(10 ** 80), 10 ** 80, 0]})
    def test_same_bytes_as_json_dumps(self, tree):
        assert indented_json(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("bad", [1.5, (1, 2), [1, 2.0], {"a": [(0,)]}],
                             ids=["float", "tuple", "float-in-list", "nested-tuple"])
    def test_other_values_raise_a_type_error(self, bad):
        with pytest.raises(UnencodableReport, match="no JSON text for (float|tuple)"):
            indented_json(bad)
        # a report that cannot be written is a bug: the CLI exits 3
        assert issubclass(UnencodableReport, TypeError)
        assert issubclass(UnencodableReport, InternalCheckError)

    @pytest.mark.parametrize("bad", [{1: "one"}, {None: 0}, {"a": {2: []}}],
                             ids=["int-key", "none-key", "nested-int-key"])
    def test_other_keys_raise_a_type_error(self, bad):
        with pytest.raises(TypeError):
            indented_json(bad)
