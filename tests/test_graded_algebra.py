"""Monomial algebra: canonical forms, signs, basis enumeration."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_reference import product
from loophom.errors import (
    DuplicateName,
    FieldMismatch,
    InfiniteBasis,
    InhomogeneousElement,
    InvalidExponent,
    InvalidGenerator,
    InvalidHorizon,
    InvalidScalar,
    LaurentNonzeroDegree,
    LoophomError,
    ParityViolation,
    ReadOnlyValue,
    UnknownGenerator,
)
from loophom.dga import DgaPage, Derivation, homology_dimensions
from loophom.graded_algebra import KINDS, Element, GradedAlgebra, Generator, _free_exponents
from loophom.scalars import GF2, RATIONALS, Field

F3 = Field(3)


# iota (laurent), u, Q1u, Q2u (polynomial), c (truncated): the mod-2
# shape for n = 1, handy as a mixed-kind fixture
LOOP_LIKE = [
    ("iota", 0, 1, "laurent"),
    ("u", 1, 1, "polynomial"),
    ("Q1u", 3, 2, "polynomial"),
    ("Q2u", 7, 4, "polynomial"),
    ("c", -2, 0, "truncated", 1),
]


def loop_like_algebra(field=GF2, horizon=None):
    return GradedAlgebra(field, LOOP_LIKE, horizon)


def signed_algebra():
    """Odd exterior a, b and even polynomial x over F3."""
    return GradedAlgebra(F3, [
        ("a", 1, 1, "exterior"),
        ("b", 3, 1, "exterior"),
        ("x", 2, 1, "polynomial"),
    ])


# -- declarations and canonical monomials -----------------------------------


def test_generator_top_per_kind():
    alg = GradedAlgebra(GF2, LOOP_LIKE + [("e", 1, 0, "exterior"), ("t", -4, 0, "truncated", 3)])
    tops = {g.name: g.top for g in alg.generators}
    assert tops == {"iota": None, "u": None, "Q1u": None, "Q2u": None, "c": 1, "e": 1, "t": 3}


def test_declare_errors():
    u = ("u", 1, 1, "polynomial")
    for row, error in [
        (("u", 5, 1, "polynomial"), DuplicateName),
        (("t", 2, 1, "laurent"), LaurentNonzeroDegree),
        (("v", 2, 0, "truncated"), ValueError),  # missing truncation
        (("w", 2, 0, "polynomial", 3), ValueError),
        (("z", 2, 0, "divided"), ValueError),
    ]:
        with pytest.raises(error):
            GradedAlgebra(GF2, [u, row])
    with pytest.raises(UnknownGenerator):
        GradedAlgebra(GF2, [u]).generator("nope")


@pytest.mark.parametrize(
    "row",
    [("x", 2, 1), ("x", 2, 1, "truncated", 2, 3), (), "x21p", 7, None,
     {"name": "x", "degree": 2, "weight": 1, "kind": "polynomial"}],
    ids=["three-items", "six-items", "empty", "string", "int", "none", "dict"],
)
def test_a_malformed_generator_row_is_refused_by_name(row):
    # a row of the wrong length raised a bare TypeError from the Generator call
    with pytest.raises(InvalidGenerator, match="generator row"):
        GradedAlgebra(GF2, [("u", 1, 1, "polynomial"), row])


def test_an_algebra_is_read_only_once_built():
    alg = loop_like_algebra(horizon=30)
    for attr, value in [
        ("complete_through_degree", 200), ("generators", ()), ("field", F3), ("_plan", None),
        ("extra", 1),
    ]:
        with pytest.raises(ReadOnlyValue):
            setattr(alg, attr, value)
    with pytest.raises(ReadOnlyValue):
        del alg.complete_through_degree
    assert alg.complete_through_degree == 30 and alg.field == GF2
    assert isinstance(alg.generators, tuple) and len(alg.generators) == 5
    assert not hasattr(alg, "declare_generator")


def test_listed_monomials_cannot_be_changed_by_a_caller():
    alg = loop_like_algebra()
    listed = alg.graded_monomials(3)
    assert isinstance(listed, tuple) and listed == alg.graded_monomials(3)
    assert alg.graded_monomials(-9) == () and isinstance(alg.free_generators(), tuple)


def test_a_monomial_is_read_only():
    alg = loop_like_algebra()
    m = alg.monomial({"u": 2, "c": 1})
    for attr in ("exps", "degree", "weight", "_hash"):
        with pytest.raises(ReadOnlyValue):
            setattr(m, attr, 5)
        with pytest.raises(ReadOnlyValue):
            delattr(m, attr)
    assert (m.exps, m.degree, m.weight) == (((1, 2), (4, 1)), 0, 2)
    assert alg.monomial_element(m).bidegree() == (0, 2)
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m and hash(clone) == hash(m) and clone.degree == 0


def test_element_terms_are_read_only():
    alg = loop_like_algebra()
    x = alg.gen("u")
    (m,) = x.terms
    for write in (
        lambda: x.terms.__setitem__(m, 0.5), lambda: x.terms.__delitem__(m), x.terms.clear,
        lambda: x.terms.pop(m), x.terms.popitem, lambda: x.terms.setdefault(m, 1),
        lambda: x.terms.update({m: 0}),
    ):
        with pytest.raises(ReadOnlyValue):
            write()
    x.terms.__init__({alg.monomial({"u": 2}): 1})  # dict.__init__ would add u^2
    with pytest.raises(ReadOnlyValue):
        x.terms |= {}
    for attr, value in (("terms", {}), ("algebra", alg)):
        with pytest.raises(ReadOnlyValue):
            setattr(x, attr, value)
    assert repr(x) == "u" and len(x.terms) == 1 and x == alg.gen("u")
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert repr(clone) == "u" and dict(clone.terms) == {m: GF2(1)}


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((0, "x", 2, 0, "divided"), InvalidGenerator, "unknown generator kind"),
        ((0, "x", 2, 0, "polynomial", 3), InvalidGenerator, "only applies to truncated"),
        ((0, "x", 2, 0, "truncated"), InvalidGenerator, "needs truncation >= 1"),
        ((0, "x", 2, 0, "truncated", 0), InvalidGenerator, "needs truncation >= 1"),
        ((0, "x", 2, 1, "laurent"), LaurentNonzeroDegree, "has degree 2"),
        ((0, "x", 2.5, 0, "polynomial"), InvalidGenerator, "degree of 'x' must be an int"),
        ((0, "x", 2, True, "polynomial"), InvalidGenerator, "weight of 'x' must be an int"),
        ((0, "x", True, 0, "exterior"), InvalidGenerator, "degree of 'x' must be an int"),
        ((0, "x", 2, 1, "truncated", True), InvalidGenerator, "truncation of 'x' must be"),
        ((0, "x", 2, 1, "truncated", 2.5), InvalidGenerator, "truncation of 'x' must be"),
        ((0, "x", 2, "1", "polynomial"), InvalidGenerator, "weight of 'x' must be an int"),
        ((0, 5, 2, 1, "polynomial"), InvalidGenerator, "name must be a str, got 5"),
        ((0, None, 2, 1, "polynomial"), InvalidGenerator, "name must be a str, got None"),
    ],
    ids=["unknown-kind", "truncation-not-truncated", "missing-truncation",
         "zero-truncation", "laurent-nonzero-degree", "float-degree", "bool-weight",
         "bool-degree", "bool-truncation", "float-truncation", "str-weight", "int-name",
         "none-name"],
)
def test_generator_refuses_invalid_construction(args, error, message):
    with pytest.raises(error, match=message):
        Generator(*args)
    assert issubclass(error, InvalidGenerator) and issubclass(error, LoophomError)


def test_declare_refuses_a_float_truncation_before_enumeration():
    with pytest.raises(InvalidGenerator, match="truncation of 'x' must be an int"):
        GradedAlgebra(GF2, [("x", 2, 1, "truncated", 2.5)])
    alg = GradedAlgebra(GF2, [])
    assert alg.generators == ()
    assert [m.format(alg) for m in alg.enumerate_basis(0, 0)] == ["1"]


def test_algebra_refuses_a_non_field():
    with pytest.raises(TypeError, match="expected a Field"):
        GradedAlgebra("f2", [])


@pytest.mark.parametrize("horizon", [2.5, True, "3"])
def test_algebra_refuses_a_bool_or_non_int_horizon(horizon):
    with pytest.raises(InvalidHorizon, match="complete_through_degree"):
        GradedAlgebra(GF2, [], complete_through_degree=horizon)
    assert GradedAlgebra(GF2, [], complete_through_degree=-3).complete_through_degree == -3


@pytest.mark.parametrize("field", [RATIONALS, F3])
def test_parity_enforced_away_from_char_two(field):
    for row in (("e", 2, 1, "exterior"), ("p", 3, 1, "polynomial")):
        with pytest.raises(ParityViolation):
            GradedAlgebra(field, [row])
    GradedAlgebra(field, [("ok1", 3, 1, "exterior"), ("ok2", 2, 1, "polynomial")])


def test_char_two_allows_any_parity():
    GradedAlgebra(GF2, [("u", 1, 1, "polynomial"), ("v", 2, 1, "exterior")])


def test_monomial_canonical_form():
    alg = loop_like_algebra()
    m = alg.monomial({"c": 1, "u": 2, "iota": -1})
    assert m.exps == ((0, -1), (1, 2), (4, 1))  # sorted by gid
    assert m.degree == 2 * 1 + 1 * (-2)  # u^2 c
    assert m.weight == -1 + 2
    assert alg.monomial({"u": 0}).is_unit
    assert alg.monomial({"u": 1, "c": 2}) is None  # past truncation
    with pytest.raises(ValueError):
        alg.monomial({"u": -1})


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda alg: alg.monomial({"u": -1}), InvalidExponent),
        (lambda alg: alg.monomial({"c": -1}), InvalidExponent),
        (lambda alg: alg.one() ** -1, InvalidExponent),
        (lambda alg: alg.gen("u") ** True, InvalidExponent),
        (lambda alg: alg.gen("u") ** 2.5, InvalidExponent),
        (lambda alg: (alg.gen("u") + alg.gen("Q1u")).bidegree(), InhomogeneousElement),
    ],
    ids=["negative-polynomial", "negative-truncated", "negative-power", "bool-power",
         "float-power", "inhomogeneous"],
)
def test_algebra_refusals_are_typed_value_errors(call, error):
    with pytest.raises(error) as info:
        call(loop_like_algebra())
    assert isinstance(info.value, LoophomError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("exponent", [1.5, True, "2", None, Fraction(2)])
def test_monomial_refuses_an_exponent_that_is_not_an_int(exponent):
    # 1.5 built a monomial of exponent 1.5, True one of exponent 1
    alg = loop_like_algebra()
    with pytest.raises(InvalidExponent, match="must be an int"):
        alg.monomial({"u": exponent})
    with pytest.raises(InvalidExponent):
        alg.monomial({"iota": exponent})


@pytest.mark.parametrize("key", [0.5, True, False, None, (0,), 1.0])
def test_generator_refuses_a_key_that_is_neither_a_name_nor_a_gid(key):
    # True read as gid 1; 0.5 raised a bare TypeError from list indexing
    alg = loop_like_algebra()
    with pytest.raises(UnknownGenerator):
        alg.generator(key)
    with pytest.raises(UnknownGenerator):
        alg.gen(key)
    with pytest.raises(UnknownGenerator):
        alg.monomial({key: 1})


def test_monomial_merges_repeated_keys():
    alg = loop_like_algebra()
    # name and gid keys referring to the same generator accumulate
    gid = alg.generator("u").gid
    m = alg.monomial({"u": 1, gid: 2})
    assert m.exponent(gid) == 3


def test_exterior_square_is_zero():
    alg = signed_algebra()
    assert alg.monomial({"a": 2}) is None
    a = alg.gen("a")
    assert a * a == alg.zero()
    assert not (a * a)


# -- Koszul signs ------------------------------------------------------------


def test_koszul_sign_odd_odd():
    alg = signed_algebra()
    a, b, x = alg.gen("a"), alg.gen("b"), alg.gen("x")
    assert a * b == -(b * a)
    assert a * x == x * a
    assert b * x == x * b
    ab = a * b
    m = alg.monomial({"a": 1, "b": 1})
    assert ab.coefficient(m) == F3(1)
    assert (b * a).coefficient(m) == F3(-1)


def test_koszul_sign_block_transposition():
    alg = signed_algebra()
    sign, m = alg.multiply_monomials(alg.monomial({"b": 1}), alg.monomial({"a": 1}))
    assert sign == -1 and m == alg.monomial({"a": 1, "b": 1})
    # even blocks never flip: x^3 has even degree
    sign, _ = alg.multiply_monomials(alg.monomial({"x": 3}), alg.monomial({"a": 1}))
    assert sign == 1
    # (ab) * a dies on the exterior square, before any sign work: (1, None)
    sign, m = alg.multiply_monomials(alg.monomial({"a": 1, "b": 1}), alg.monomial({"a": 1}))
    assert (sign, m) == (1, None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_matches_a_naive_swap_count(data):
    """Every kind, declared in shuffled order, so gid order and odd blocks
    interleave; the product is None exactly when a summed exponent passes
    its bound, and otherwise its sign is the parity of the swaps."""
    field = data.draw(st.sampled_from([RATIONALS, GF2, F3]), label="field")
    # extra exterior generators make odd blocks meet often enough to flip
    weighted = st.sampled_from(KINDS + ("exterior",) * 3)
    extra = data.draw(st.lists(weighted, min_size=2, max_size=8), label="extra")
    kinds = data.draw(st.permutations(list(KINDS) + extra), label="kinds")
    rows = []
    for i, kind in enumerate(kinds):
        degree = 0 if kind == "laurent" else data.draw(st.integers(-3, 4))
        if field.characteristic != 2 and kind != "laurent":
            degree += (degree % 2 == 1) != (kind == "exterior")  # the parity the kind needs
        truncation = data.draw(st.integers(1, 3)) if kind == "truncated" else None
        rows.append((f"g{i}", degree, data.draw(st.integers(-2, 2)), kind, truncation))
    alg = GradedAlgebra(field, rows)

    def draw_monomial():
        tops = {"exterior": (0, 1), "polynomial": (0, 3), "laurent": (-3, 3)}
        return alg.monomial({
            g.gid: data.draw(st.integers(*tops.get(g.kind, (0, g.truncation))))
            for g in alg.generators
        })

    a, b = draw_monomial(), draw_monomial()
    sign, m = alg.multiply_monomials(a, b)
    want_sign, want = product(alg, a, b)
    assert (sign, m) == (want_sign, want)
    if m is not None:
        assert (m.degree, m.weight) == (want.degree, want.weight)


def test_sign_rule_matches_graded_commutativity():
    # x*y = (-1)^{|x||y|} y*x for homogeneous monomial elements
    alg = signed_algebra()
    mons = [
        alg.monomial(d)
        for d in ({"a": 1}, {"b": 1}, {"x": 2}, {"a": 1, "x": 1}, {"b": 1, "x": 3})
    ]
    for m1, m2 in itertools.product(mons, repeat=2):
        lhs = alg.monomial_element(m1) * alg.monomial_element(m2)
        rhs = alg.monomial_element(m2) * alg.monomial_element(m1)
        if (m1.degree * m2.degree) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_no_signs_in_char_two():
    alg = GradedAlgebra(GF2, [("u", 1, 1, "polynomial"), ("v", 3, 1, "polynomial")])
    u, v = alg.gen("u"), alg.gen("v")
    assert u * v == v * u
    sign, _ = alg.multiply_monomials(alg.monomial({"v": 1}), alg.monomial({"u": 1}))
    assert sign == 1


# -- element arithmetic -------------------------------------------------------


def test_element_ring_ops():
    alg = loop_like_algebra()
    u, q = alg.gen("u"), alg.gen("Q1u")
    s = u + q
    assert s * s == u * u + q * q  # char 2: cross terms cancel
    assert (u + u) == alg.zero()
    assert u**3 == u * u * u
    assert u**0 == alg.one()
    assert alg.one() * s == s
    assert s - s == alg.zero()
    assert s.scale(0) == alg.zero()


@pytest.mark.parametrize("coefficient", [0.5, 2.0, "1", True])
def test_element_refuses_a_coefficient_that_is_not_exact(coefficient):
    # over F3, {x: 0.5} used to become int(0.5) = 0 and drop the term
    alg = signed_algebra()
    x = alg.gen("x")
    with pytest.raises(InvalidScalar):
        Element(alg, {alg.monomial({"x": 1}): coefficient})
    for scaled in (lambda: x.scale(coefficient), lambda: x * coefficient, lambda: coefficient * x):
        with pytest.raises(InvalidScalar):
            scaled()
    assert x * F3(2) == F3(2) * x == x.scale(-1) == -x


def test_an_algebra_has_one_zero_element():
    alg = loop_like_algebra()
    zero = alg.zero()
    assert zero is alg.zero() is alg.monomial_element(None)
    assert zero == Element(alg, {}) and not zero
    for write in (
        lambda: zero.terms.__setitem__(alg.monomial({"u": 1}), 1), zero.terms.clear,
        lambda: setattr(zero, "terms", {}), lambda: setattr(alg, "_zero", alg.one()),
    ):
        with pytest.raises(ReadOnlyValue):
            write()
    assert zero.terms == {} and alg.zero() is zero
    twin = copy.deepcopy(alg)  # a copy is a new algebra, with its own zero
    assert twin.zero() is twin.zero() is not zero and twin.zero().algebra is twin


def test_element_takes_only_its_fields_scalars_and_drops_zeros():
    alg = signed_algebra()
    m = alg.monomial({"x": 1})
    with pytest.raises(FieldMismatch):
        Element(alg, {m: Field(5)(1)})
    assert Element(alg, {m: F3(3)}) == alg.zero()
    assert Element(alg, {m: 4}).terms == {m: F3(1)} == alg.gen("x").terms


def test_element_bidegree():
    alg = loop_like_algebra()
    u, q = alg.gen("u"), alg.gen("Q1u")
    assert u.bidegree() == (1, 1)
    assert (u * u * alg.gen("c")).bidegree() == (0, 2)
    assert alg.zero().bidegree() is None
    mixed = u + q
    assert not mixed.is_homogeneous
    with pytest.raises(ValueError):
        mixed.bidegree()


def test_element_eq_hash():
    alg = loop_like_algebra()
    u = alg.gen("u")
    assert hash(u * u) == hash(alg.monomial_element(alg.monomial({"u": 2})))
    assert u != alg.gen("Q1u")
    assert alg.zero() == Element(alg, {})


def test_power_of_laurent_inverse():
    alg = loop_like_algebra()
    inv = alg.monomial_element(alg.monomial({"iota": -1}))
    iota = alg.gen("iota")
    assert iota * inv == alg.one()
    assert (inv**3) * (iota**3) == alg.one()


# -- basis enumeration --------------------------------------------------------


def exponent_box(generators, bound):
    """Every exponent vector of these generators with each exponent in its
    kind's range, and polynomial (laurent) exponents within 0..bound
    (-bound..bound)."""
    ranges = []
    for g in generators:
        if g.kind == "laurent":
            ranges.append(range(-bound, bound + 1))
        elif g.kind == "exterior":
            ranges.append(range(2))
        elif g.kind == "truncated":
            ranges.append(range(g.truncation + 1))
        else:
            ranges.append(range(bound + 1))
    return itertools.product(*ranges)


def brute_force_basis(alg, degree, weight=None, bound=12):
    """Box scan over exponent ranges, wide enough for small (degree, weight).

    The free generators (degree-0 polynomial and laurent) move only the
    weight, so their box is scanned apart from the others' and the hits
    are multiplied: the same set as one scan of the whole box. With
    weight None: the monomials of the degree in the other generators
    alone, over every weight (what `graded_monomials` lists)."""

    def scan(generators):
        for combo in exponent_box(generators, bound):
            pairs = list(zip(generators, combo))
            yield (
                sum(e * g.degree for g, e in pairs),
                sum(e * g.weight for g, e in pairs),
                tuple((g.gid, e) for g, e in pairs if e),
            )

    is_free = lambda g: g.degree == 0 and g.kind in ("polynomial", "laurent")
    rest = [(w, exps) for d, w, exps in scan([g for g in alg.generators if not is_free(g)])
            if d == degree]
    if weight is None:
        return {exps for _, exps in rest}
    free = [(w, exps) for _, w, exps in scan([g for g in alg.generators if is_free(g)])]
    return {tuple(sorted(a + b)) for w, a in rest for fw, b in free if w + fw == weight}


@pytest.mark.parametrize(
    "degree,weight",
    [(0, 0), (3, 2), (1, 3), (0, 2), (-2, 1), (5, -1), (7, 4), (4, 4), (2, 0)],
)
def test_enumerate_matches_brute_force(degree, weight):
    alg = loop_like_algebra()
    got = {m.exps for m in alg.enumerate_basis(degree, weight)}
    assert got == brute_force_basis(alg, degree, weight)


def test_enumerate_frozen_sets():
    alg = loop_like_algebra()
    names = lambda d, w: [m.format(alg) for m in alg.enumerate_basis(d, w)]
    assert names(0, 0) == ["iota^-2*u^2*c", "1"]
    assert names(3, 2) == [
        "iota^-3*u^5*c", "iota^-2*u^2*Q1u*c", "iota^-1*u^3", "Q1u",
    ]
    assert names(-2, 0) == ["c"]
    assert names(1, 1) == ["iota^-2*u^3*c", "iota^-1*Q1u*c", "u"]
    assert names(3, 3) == ["iota^-2*u^5*c", "iota^-1*u^2*Q1u*c", "u^3", "iota*Q1u"]
    assert names(-3, 0) == []
    # without the truncated class the loop example reduces to two monomials
    plain = GradedAlgebra(GF2, LOOP_LIKE[:3])
    assert [m.format(plain) for m in plain.enumerate_basis(3, 2)] == [
        "iota^-1*u^3", "Q1u",
    ]


def test_enumerate_sorted_lexicographically():
    alg = loop_like_algebra()
    for d, w in [(3, 2), (7, 4), (5, 3), (8, 5)]:
        basis = alg.enumerate_basis(d, w)
        vecs = [alg.exponent_vector(m) for m in basis]
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs)


@st.composite
def certified_algebras(draw):
    """Small algebras that pass the finiteness certificate, in a random
    declaration order: at most one positive-degree polynomial generator,
    up to two exterior or truncated generators of degree -2..2, and either
    a laurent generator of weight 2 or up to two degree-0 polynomial ones.
    The sizes keep every exponent of a basis monomial with |degree| and
    |weight| <= 4 inside the brute-force box."""
    rows = []
    if draw(st.booleans()):
        rows.append((draw(st.integers(1, 3)), draw(st.integers(0, 1)), "polynomial", None))
    for _ in range(draw(st.integers(0, 2))):
        degree = draw(st.integers(-2, 2))
        weight = draw(st.integers(-1, 1)) or (1 if degree == 0 else 0)
        truncation = draw(st.integers(1, 2))
        if truncation == 1 and draw(st.booleans()):
            rows.append((degree, weight, "exterior", None))
        else:
            rows.append((degree, weight, "truncated", truncation))
    if draw(st.booleans()):
        rows.append((0, 2, "laurent", None))
    else:
        for _ in range(draw(st.integers(0, 2))):
            rows.append((0, draw(st.integers(1, 3)), "polynomial", None))
    rows = draw(st.permutations(rows))
    return GradedAlgebra(GF2, [(f"g{i}", *row) for i, row in enumerate(rows)])


def rows_of(alg):
    """The rows `alg` was built from."""
    return [(g.name, g.degree, g.weight, g.kind, g.truncation) for g in alg.generators]


@given(certified_algebras(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_enumerate_matches_brute_force_random(alg, degree, weight):
    basis = alg.enumerate_basis(degree, weight)
    vecs = [alg.exponent_vector(m) for m in basis]
    assert vecs == sorted(set(vecs))
    assert all((m.degree, m.weight) == (degree, weight) for m in basis)
    assert {m.exps for m in basis} == brute_force_basis(alg, degree, weight)
    # the pass counts the same dimension without a basis
    page = DgaPage(alg, Derivation(alg, {}))
    assert homology_dimensions(page, [degree], [weight])[(degree, weight)].dim == len(basis)


@given(certified_algebras(), st.integers(-8, 16), st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_exact_reach_matches_brute_force_on_a_wide_degree_window(alg, degree, weight):
    """Degrees -8..16, where a positive-degree polynomial generator meets
    negative-degree truncated ones. No exponent of a hit passes 24: the
    bounded generators add at least degree -8, so the polynomial one
    (degree >= 1) has at most 24, and a free one at most 16 in size."""
    listed = alg.graded_monomials(degree)
    assert all(m.degree == degree for m in listed)
    assert len({m.exps for m in listed}) == len(listed)
    assert {m.exps for m in listed} == brute_force_basis(alg, degree, None, bound=24)
    basis = alg.enumerate_basis(degree, weight)
    assert {m.exps for m in basis} == brute_force_basis(alg, degree, weight, bound=24)


def degree_list_by_brute_force(alg, degree, bound):
    """The monomials of one degree in the generators that are not free,
    as exponent tuples, in lexicographic order of their exponent vectors:
    the order of a box scan with every range ascending."""
    steps = [g for g in alg.generators
             if not (g.degree == 0 and g.kind in ("polynomial", "laurent"))]
    return [
        tuple((g.gid, e) for g, e in zip(steps, combo) if e)
        for combo in exponent_box(steps, bound)
        if sum(e * g.degree for g, e in zip(steps, combo)) == degree
    ]


@given(
    certified_algebras(),
    st.one_of(st.none(), st.integers(-6, 10)),
    st.lists(st.integers(-12, 18), min_size=1, max_size=8),
    st.integers(-2, 2),
    st.integers(-1, 1),
)
@settings(max_examples=150, deadline=None)
def test_walk_lists_each_degree_in_order_whatever_order_degrees_are_asked(
    alg, horizon, degrees, new_degree, new_weight
):
    """Degrees asked in random order, repeats included: below the reach,
    above it, past the horizon, and all of them again on the algebra
    built with one more bounded generator. Each list equals the box scan,
    order included. The bounded generators add at least degree -12, so no
    exponent of a hit in degrees <= 18 passes 30."""
    rows = rows_of(alg)
    late = ("late", new_degree, new_weight or (1 if new_degree == 0 else 0), "exterior")
    for extra in ([], [late]):
        alg = GradedAlgebra(GF2, rows + extra, horizon)
        for degree in degrees:
            listed = alg.graded_monomials(degree)
            assert [m.exps for m in listed] == degree_list_by_brute_force(alg, degree, 30)
            for m in listed:
                assert m.degree == degree
                assert m.weight == sum(e * alg.generators[g].weight for g, e in m.exps)


def test_a_walk_goes_through_the_requested_degree_and_no_further(monkeypatch):
    walks, real = [], GradedAlgebra._walk

    def walk(self, floor, top):
        walks.append((floor, top))
        real(self, floor, top)

    monkeypatch.setattr(GradedAlgebra, "_walk", walk)
    alg = loop_like_algebra(horizon=200)  # u polynomial of degree 1: no finite top
    # a narrow request walks only what it asks, whatever the horizon
    alg.graded_monomials(0)
    alg.graded_monomials(1)
    assert walks == [(-3, 0), (0, 1)]  # low is -2
    # asking the top first lists every degree below it in one walk
    counted = sum(len(alg.graded_monomials(d)) for d in (9, *range(-4, 9)))
    assert walks == [(-3, 0), (0, 1), (1, 9)]
    # a later top walks on from the last one, listing nothing twice
    assert alg.graded_monomials(12) and walks[-1] == (9, 12)
    assert sum(len(alg.graded_monomials(d)) for d in range(-4, 10)) == counted
    assert walks == [(-3, 0), (0, 1), (1, 9), (9, 12)]
    # past a finite top there is nothing to walk
    bounded = GradedAlgebra(F3, [("a", 1, 1, "exterior"), ("c", -2, 0, "truncated", 2)])
    walks.clear()
    assert [len(bounded.graded_monomials(d)) for d in (5, 1, *range(-5, 3))] == [0, 1, 0, 1, 1, 1, 1, 1, 1, 0]
    assert walks == [(-5, 1)]


def test_a_pass_walks_once_through_its_top(monkeypatch):
    walks, real = [], GradedAlgebra._walk

    def walk(self, floor, top):
        walks.append((floor, top))
        real(self, floor, top)

    monkeypatch.setattr(GradedAlgebra, "_walk", walk)
    alg = loop_like_algebra(horizon=200)
    homology_dimensions(DgaPage(alg, Derivation(alg, {})), range(0, 6), [0, 1])
    assert walks == [(-3, 6)]  # the pass reads one degree above its top


@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(-2, 9))
@settings(max_examples=100, deadline=None)
def test_free_exponents_match_brute_force(weights, rest):
    alg = GradedAlgebra(GF2, [(f"t{i}", 0, w, "polynomial") for i, w in enumerate(weights)])
    free = alg.free_generators()
    blocks = _free_exponents(free, rest)
    box = itertools.product(*(range(max(rest, 0) + 1) for _ in free))
    want = {
        tuple((g.gid, e) for g, e in zip(free, combo) if e)
        for combo in box
        if sum(e * g.weight for g, e in zip(free, combo)) == rest
    }
    assert len(blocks) == len(set(blocks))
    assert set(blocks) == want


@given(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-12, -1))
def test_free_exponents_solve_a_laurent_generator_at_a_negative_rest(weight, rest):
    alg = GradedAlgebra(GF2, [("s", 0, weight, "laurent")])
    want = [((0, e),) for e in range(-12, 13) if e * weight == rest]
    assert _free_exponents(alg.free_generators(), rest) == want


@given(certified_algebras())
@settings(max_examples=100, deadline=None)
def test_degree_reach_bounds_every_monomial(alg):
    low, high = alg.degree_reach()
    degrees = {
        sum(e * g.degree for e, g in zip(combo, alg.generators))
        for combo in exponent_box(alg.generators, 4)
    }
    assert low <= min(degrees) and max(degrees) <= high
    # the ends are attained: only bounded generators reach them
    assert low in degrees
    positive_polynomial = any(
        g.kind == "polynomial" and g.degree > 0 for g in alg.generators
    )
    assert (high == math.inf) == positive_polynomial
    if high != math.inf:
        assert high in degrees
    outside = [low - 2, low - 1] + ([high + 1, high + 2] if high != math.inf else [])
    for degree in outside:
        for weight in range(-4, 5):
            assert alg.enumerate_basis(degree, weight) == []


def test_degree_reach_follows_declarations():
    # one algebra built whole per generator set, each set one row longer
    rows = [
        ("c", -2, 0, "truncated", 3), ("u", 5, 1, "exterior"), ("iota", 0, 1, "laurent"),
        ("x", 2, 1, "polynomial"),
    ]
    reach = lambda k: GradedAlgebra(RATIONALS, rows[:k]).degree_reach()
    assert reach(0) == (0, 0)
    assert reach(1) == (-6, 0)
    assert reach(2) == (-6, 5)
    assert reach(3) == (-6, 5)
    assert reach(4) == (-6, math.inf)


def test_enumerate_sees_later_declarations():
    # one algebra built whole per generator set, each set one row longer
    rows = [
        ("u", 1, 1, "polynomial"), ("v", 2, 2, "polynomial"), ("s", 0, 1, "laurent"),
        ("t", 0, 2, "laurent"),
    ]

    def names(k, degree, weight):
        alg = GradedAlgebra(GF2, rows[:k])
        return [m.format(alg) for m in alg.enumerate_basis(degree, weight)]

    assert names(1, 2, 2) == ["u^2"]
    assert names(2, 2, 2) == ["v", "u^2"]
    assert names(3, 2, 1) == ["v*s^-1", "u^2*s^-1"]
    # the certificate is checked for the grown generator set
    with pytest.raises(InfiniteBasis):
        names(4, 2, 2)


@pytest.mark.parametrize("with_laurent", [True, False])
def test_enumerate_returns_fresh_lists(with_laurent):
    alg = loop_like_algebra()
    if not with_laurent:
        alg = GradedAlgebra(GF2, [("u", 1, 1, "polynomial"), ("c", -2, 0, "truncated", 1)])
    first = alg.enumerate_basis(3, 3)
    expected = list(first)
    first.clear()
    first.append(alg.unit_monomial)
    assert alg.enumerate_basis(3, 3) == expected
    assert alg.enumerate_basis(3, 3) is not alg.enumerate_basis(3, 3)


def test_enumerate_negative_weight_through_laurent():
    alg = loop_like_algebra()
    basis = alg.enumerate_basis(0, -5)
    assert [m.format(alg) for m in basis] == ["iota^-7*u^2*c", "iota^-5"]


def test_enumerate_exterior_and_truncated_bounds():
    alg = GradedAlgebra(RATIONALS, [
        ("e", 3, 1, "exterior"),
        ("c", -2, 0, "truncated", 2),
        ("x", 2, 1, "polynomial"),
    ])
    # degree 3 - 4 + 2k, exhaustive by hand
    assert len(alg.enumerate_basis(3, 1)) == 1  # e
    assert len(alg.enumerate_basis(-1, 1)) == 1  # e c^2
    assert len(alg.enumerate_basis(1, 1)) == 1  # e c
    assert len(alg.enumerate_basis(-6, 0)) == 0  # would need c^3
    assert len(alg.enumerate_basis(6, 2)) == 0  # e^2 barred, x^3 has weight 3
    assert [m.format(alg) for m in alg.enumerate_basis(0, 0)] == ["1"]


def test_convolution_over_tensor_factor():
    # adding a truncated c of bidegree (-2, 0) convolves the counts
    plain = GradedAlgebra(GF2, LOOP_LIKE[:4])
    full = loop_like_algebra()  # the same four gens plus c
    n_trunc = full.generator("c").truncation
    for d, w in [(0, 0), (3, 2), (2, 1), (-1, 2), (5, 3)]:
        direct = len(full.enumerate_basis(d, w))
        convolved = sum(
            len(plain.enumerate_basis(d + 2 * j, w)) for j in range(n_trunc + 1)
        )
        assert direct == convolved


# -- finiteness certificate ----------------------------------------------------


def test_infinite_basis_two_laurents():
    alg = GradedAlgebra(GF2, [("s", 0, 1, "laurent"), ("t", 0, 2, "laurent")])
    with pytest.raises(InfiniteBasis):
        alg.enumerate_basis(0, 0)


def test_infinite_basis_weightless_laurent():
    alg = GradedAlgebra(GF2, [("s", 0, 0, "laurent")])
    with pytest.raises(InfiniteBasis):
        alg.enumerate_basis(0, 0)


def test_infinite_basis_bidegree_zero_generator():
    alg = GradedAlgebra(GF2, [("x", 0, 0, "polynomial")])
    with pytest.raises(InfiniteBasis):
        alg.enumerate_basis(0, 0)


def test_infinite_basis_negative_degree_polynomial():
    alg = GradedAlgebra(GF2, [("x", -2, 0, "polynomial")])
    with pytest.raises(InfiniteBasis):
        alg.enumerate_basis(-4, 0)


def test_infinite_basis_negative_weight_polynomial():
    alg = GradedAlgebra(GF2, [("x", 2, -1, "polynomial")])
    with pytest.raises(InfiniteBasis):
        alg.enumerate_basis(2, -1)


def test_infinite_basis_degree_zero_beside_laurent():
    alg = GradedAlgebra(GF2, [("iota", 0, 1, "laurent"), ("t", 0, 2, "polynomial")])
    with pytest.raises(InfiniteBasis):
        alg.enumerate_basis(0, 2)


def test_exterior_negative_degree_is_fine():
    # bounded kinds may sit in negative degree
    alg = GradedAlgebra(GF2, [("c", -2, 0, "truncated", 3)])
    assert len(alg.enumerate_basis(-4, 0)) == 1
