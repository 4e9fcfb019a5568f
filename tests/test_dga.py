"""Derivations, differential matrices, homology, induced maps."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import rank_dense, reference_matrix
from leibniz_reference import leibniz
from loophom import dga
from loophom.dga import (
    Derivation,
    DgaPage,
    InducedCell,
    RankProfile,
    _generator_translation,
    _inclusion,
    _translate_monomial,
    differential_matrix,
    homology_dimensions,
    induced_map_on_homology,
)
from loophom.errors import (
    AlgebraMismatch,
    CutoffTooTight,
    DuplicateName,
    FieldMismatch,
    InhomogeneousImage,
    NotAChainMap,
    NotSquareZero,
    WrongBidegree,
)
from loophom.graded_algebra import GradedAlgebra
from loophom.linalg import kernel_basis, rank_of_columns
from loophom.scalars import GF2, RATIONALS, Field
from loophom.spaces import HOL, LOOP, e2_page, hol_to_loop_inclusion

F3 = Field(3)


def circle_like_page(field=RATIONALS):
    """Laurent t with d(t) = e: homology is one class in each of
    bidegrees (0, 0) and (-1, 0)."""
    alg = GradedAlgebra(field)
    alg.declare_generator("t", 0, 1, "laurent")
    alg.declare_generator("e", -1, 1, "exterior")
    d = Derivation.from_generator_images(alg, {"t": alg.gen("e")})
    return DgaPage(alg, d)


# -- validation ---------------------------------------------------------------


def test_image_must_live_in_same_algebra():
    page = circle_like_page()
    other = GradedAlgebra(RATIONALS)
    other.declare_generator("e", -1, 1, "exterior")
    with pytest.raises(AlgebraMismatch):
        Derivation.from_generator_images(page.algebra, {"t": other.gen("e")})


def test_image_must_be_homogeneous():
    alg = GradedAlgebra(RATIONALS)
    alg.declare_generator("t", 0, 1, "laurent")
    alg.declare_generator("e", -1, 1, "exterior")
    mixed = alg.gen("e") + alg.monomial_element(alg.monomial({"e": 1, "t": 1}))
    with pytest.raises(InhomogeneousImage):
        Derivation.from_generator_images(alg, {"t": mixed})


def test_image_bidegree_checked():
    alg = GradedAlgebra(RATIONALS)
    alg.declare_generator("t", 0, 1, "laurent")
    alg.declare_generator("e", -1, 1, "exterior")
    wrong = alg.monomial_element(alg.monomial({"e": 1, "t": 1}))  # (-1, 2)
    with pytest.raises(WrongBidegree):
        Derivation.from_generator_images(alg, {"t": wrong})


def test_square_zero_enforced():
    alg = GradedAlgebra(RATIONALS)
    alg.declare_generator("t", 0, 1, "laurent")
    alg.declare_generator("a", 1, 1, "exterior")
    alg.declare_generator("x", 2, 1, "polynomial")
    with pytest.raises(NotSquareZero):
        Derivation.from_generator_images(alg, {"x": alg.gen("a"), "a": alg.gen("t")})


def test_zero_images_dropped():
    alg = GradedAlgebra(RATIONALS)
    alg.declare_generator("t", 0, 1, "laurent")
    d = Derivation.from_generator_images(alg, {"t": alg.zero()})
    assert d.is_zero()


def test_apply_rejects_foreign_element():
    page = circle_like_page()
    other = circle_like_page()
    with pytest.raises(AlgebraMismatch):
        page.differential(other.algebra.gen("t"))


@pytest.mark.parametrize("name_first", [True, False], ids=["name-first", "gid-first"])
def test_generator_keyed_twice_is_refused(name_first):
    # by name and by gid: neither a later nonzero image nor a zero one wins
    alg = circle_like_page().algebra
    keys = ("t", alg.generator("t").gid)
    if not name_first:
        keys = keys[::-1]
    for images in ((alg.gen("e"), alg.zero()), (alg.zero(), alg.gen("e"))):
        with pytest.raises(DuplicateName):
            Derivation.from_generator_images(alg, dict(zip(keys, images)))


def test_page_refuses_a_differential_of_another_algebra():
    alg, other = circle_like_page().algebra, circle_like_page().algebra
    with pytest.raises(AlgebraMismatch):
        DgaPage(alg, Derivation.from_generator_images(other, {}))
    with pytest.raises(AlgebraMismatch):
        DgaPage(alg, Derivation(other, {}))


# -- Leibniz and square zero on real pages -------------------------------------


def random_monomials(alg, rng, spots, per_spot=4):
    mons = []
    for d, w in spots:
        basis = alg.enumerate_basis(d, w)
        rng.shuffle(basis)
        mons.extend(basis[:per_spot])
    return mons


@pytest.mark.parametrize(
    "n,field,variant",
    [(2, RATIONALS, LOOP), (1, F3, LOOP), (2, GF2, LOOP), (1, RATIONALS, HOL)],
)
def test_leibniz_rule(n, field, variant):
    page = e2_page(n, field, variant, cutoff=20)
    alg, d = page.algebra, page.differential
    rng = random.Random(42)
    spots = [(deg, w) for deg in range(-2, 7) for w in range(0, 4)]
    mons = random_monomials(alg, rng, spots, per_spot=2)
    pairs = [(rng.choice(mons), rng.choice(mons)) for _ in range(60)]
    for m1, m2 in pairs:
        x = alg.monomial_element(m1)
        y = alg.monomial_element(m2)
        sign = -1 if (m1.degree % 2) and field.characteristic != 2 else 1
        assert d(x * y) == d(x) * y + (x * d(y)).scale(sign)


@pytest.mark.parametrize(
    "n,field,variant",
    [(2, RATIONALS, LOOP), (1, F3, LOOP), (2, GF2, LOOP), (2, F3, HOL)],
)
def test_d_squared_zero_on_elements(n, field, variant):
    page = e2_page(n, field, variant, cutoff=20)
    alg, d = page.algebra, page.differential
    rng = random.Random(7)
    spots = [(deg, w) for deg in range(-3, 6) for w in range(0, 4)]
    for m in random_monomials(alg, rng, spots, per_spot=3):
        assert not d(d(alg.monomial_element(m)))


def test_laurent_power_rule():
    page = e2_page(2, RATIONALS, LOOP, cutoff=20)
    alg, d = page.algebra, page.differential
    d_iota = d(alg.gen("iota"))
    for k in range(-10, 11):
        if k == 0:
            continue
        got = d(alg.monomial_element(alg.monomial({"iota": k})))
        expected = (
            alg.monomial_element(alg.monomial({"iota": k - 1})) * d_iota
        ).scale(k)
        assert got == expected
    assert not d(alg.one())


@pytest.mark.parametrize(
    "n,field,variant", [(1, F3, LOOP), (1, F3, HOL), (1, RATIONALS, LOOP), (2, GF2, LOOP)]
)
def test_differential_closed_form_on_pages(n, field, variant):
    # d(iota^a R c^j) = a(n+1) iota^(a-1) u R c^(j+n) with sign +1, where R
    # holds every other block: u has the smallest gid of the odd generators,
    # so u R is already in canonical order. Over F3, R may hold odd Q1u.
    page = e2_page(n, field, variant, cutoff=24)
    alg, d = page.algebra, page.differential
    iota, u, c = (alg.generator(name).gid for name in ("iota", "u", "c"))
    checked = 0
    for deg in range(-2 * n, 16):
        for w in range(0, 4):
            for m in alg.enumerate_basis(deg, w):
                exps = dict(m.exps)
                a = exps.pop(iota, 0)
                expected = alg.zero()
                if a:
                    exps[iota] = a - 1
                    exps[u] = exps.get(u, 0) + 1
                    exps[c] = exps.get(c, 0) + n
                    expected = alg.monomial_element(alg.monomial(exps), a * (n + 1))
                assert d.apply_monomial(m) == expected, m.format(alg)
                checked += bool(expected)
    assert checked


# -- matrices and homology ------------------------------------------------------


def test_differential_matrix_frozen_example():
    # n = 2 over Q: d(iota) = 3 u c^2, a 1x1 matrix at bidegree (0, 1)
    page = e2_page(2, RATIONALS, LOOP, cutoff=16)
    alg = page.algebra
    mat = differential_matrix(page, 0, 1)
    assert (mat.nrows, mat.ncols) == (1, 1)
    assert mat.entries[(0, 0)] == RATIONALS(3)
    assert [m.format(alg) for m in alg.enumerate_basis(0, 1)] == ["iota"]
    assert [m.format(alg) for m in alg.enumerate_basis(-1, 1)] == ["u*c^2"]


def test_rank_profile_fields():
    page = e2_page(2, RATIONALS, LOOP, cutoff=16)
    prof = homology_dimensions(page, [0], [1])[(0, 1)]
    assert (prof.dim, prof.rank_d_here, prof.rank_d_above) == (1, 1, 0)
    assert prof.betti == 0


def test_weight_one_rational_homology_table():
    # ordinary degrees 0, 2, 5, 7 survive; internal = ordinary - 4
    page = e2_page(2, RATIONALS, LOOP, cutoff=16)
    profs = homology_dimensions(page, range(-4, 5), [1])
    betti = {d: p.betti for (d, _), p in profs.items()}
    assert betti == {-4: 1, -3: 0, -2: 1, -1: 0, 0: 0, 1: 1, 2: 0, 3: 1, 4: 0}


def dense_profiles(page, degrees, weights):
    """RankProfile of every spot from two whole-basis reference matrices
    and the dense rank."""
    out = {}
    for w in weights:
        for d in degrees:
            here = reference_matrix(page, d, w)
            above = reference_matrix(page, d + 1, w)
            out[(d, w)] = RankProfile(here.ncols, rank_dense(here), rank_dense(above))
    return out


@given(
    st.sampled_from([LOOP, HOL]),
    st.sampled_from([RATIONALS, GF2, F3]),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_homology_dimensions_equal_dense_reference(variant, field, n, data):
    cutoff = data.draw(st.integers(0, 480 if field is RATIONALS else 24))
    lo = data.draw(st.integers(-2 * n - 3, cutoff - 2 * n))
    hi = data.draw(st.integers(lo, min(lo + 60, cutoff - 2 * n)))
    weights = data.draw(st.lists(st.integers(-3, 6), min_size=1, max_size=3))
    page = e2_page(n, field, variant, cutoff + 1)
    degrees = range(lo, hi + 1)
    assert homology_dimensions(page, degrees, weights) == dense_profiles(
        page, degrees, weights
    )


@pytest.mark.parametrize("variant", [LOOP, HOL])
def test_homology_dimensions_equal_dense_reference_at_cutoff_480(variant):
    # every rational n = 3 monomial has internal degree -6..5
    page = e2_page(3, RATIONALS, variant, 481)
    assert page.algebra.degree_reach() == (-6, 5)
    degrees, weights = range(-8, 475), [-2, 0, 1, 7]
    assert homology_dimensions(page, degrees, weights) == dense_profiles(
        page, degrees, weights
    )


def test_circle_like_homology():
    page = circle_like_page()
    profs = homology_dimensions(page, [-1, 0], [0])
    assert profs[(0, 0)].betti == 1
    assert profs[(-1, 0)].betti == 1
    for w in (1, -1, 2):
        profs = homology_dimensions(page, [-1, 0], [w])
        assert profs[(0, w)].betti == 0
        assert profs[(-1, w)].betti == 0


def test_homology_respects_horizon():
    page = e2_page(1, GF2, LOOP, cutoff=4)  # internal horizon 2
    assert page.algebra.complete_through_degree == 2
    homology_dimensions(page, [1], [1])  # needs degree 2: fine
    with pytest.raises(CutoffTooTight):
        homology_dimensions(page, [2], [1])


def test_horizon_refused_eagerly_without_weights():
    # the refusal comes before the first weight, so an empty weight list
    # still raises, on either page of an induced map
    page = e2_page(1, GF2, LOOP, cutoff=4)  # internal horizon 2
    with pytest.raises(CutoffTooTight):
        homology_dimensions(page, [2], [])
    hol, loop = e2_page(1, GF2, HOL, cutoff=4), e2_page(1, GF2, LOOP, cutoff=4)
    with pytest.raises(CutoffTooTight):
        induced_map_on_homology(hol, loop, [5], [])
    # the same generators at cutoff 6, with horizon 4: only one page refuses
    hol_wide, loop_wide = e2_page(1, GF2, HOL, cutoff=6), e2_page(1, GF2, LOOP, cutoff=6)
    assert induced_map_on_homology(hol_wide, loop_wide, [3], []).cells == {}
    for sub, big in ((hol_wide, loop), (hol, loop_wide)):
        with pytest.raises(CutoffTooTight):
            induced_map_on_homology(sub, big, [3], [])


def test_rational_page_has_no_horizon():
    page = e2_page(1, RATIONALS, LOOP, cutoff=4)
    assert page.algebra.complete_through_degree is None
    homology_dimensions(page, [30], [12])  # any spot is exact


# -- induced maps ----------------------------------------------------------------


def test_induced_map_widens_polynomial_to_laurent():
    sub = e2_page(1, GF2, HOL, cutoff=12)
    big = e2_page(1, GF2, LOOP, cutoff=12)
    report = induced_map_on_homology(sub, big, range(0, 5), [1, 2])
    assert report.injective
    for cell in report.cells.values():
        assert cell.rank == cell.betti_sub <= cell.betti_big


def test_induced_map_missing_generator():
    sub = GradedAlgebra(GF2)
    sub.declare_generator("z", 2, 1, "polynomial")
    sub_page = DgaPage(sub, Derivation(sub, {}))
    big = e2_page(1, GF2, LOOP, cutoff=10)
    with pytest.raises(NotAChainMap):
        induced_map_on_homology(sub_page, big, [0], [0])


def test_induced_map_bidegree_mismatch():
    sub = GradedAlgebra(GF2)
    sub.declare_generator("u", 3, 1, "polynomial")  # loop n=1 has u in degree 1
    sub_page = DgaPage(sub, Derivation(sub, {}))
    big = e2_page(1, GF2, LOOP, cutoff=10)
    with pytest.raises(NotAChainMap):
        induced_map_on_homology(sub_page, big, [0], [0])


def test_induced_map_field_mismatch():
    sub = e2_page(1, GF2, HOL, cutoff=10)
    big = e2_page(1, F3, LOOP, cutoff=10)
    with pytest.raises(FieldMismatch):
        induced_map_on_homology(sub, big, [0], [0])


def test_induced_map_differentials_must_agree():
    big = e2_page(1, F3, LOOP, cutoff=10)
    sub = GradedAlgebra(F3)
    # same generators as the holomorphic page but with a zero differential
    for g in e2_page(1, F3, HOL, cutoff=10).algebra.generators:
        sub.declare_generator(g.name, g.degree, g.weight, g.kind, g.truncation)
    sub_page = DgaPage(sub, Derivation(sub, {}))
    with pytest.raises(NotAChainMap):
        induced_map_on_homology(sub_page, big, [0], [1])


def test_induced_map_detects_noninjective_spot():
    # a cycle of the subcomplex that bounds upstairs must drop rank
    big_alg = GradedAlgebra(RATIONALS)
    big_alg.declare_generator("t", 0, 1, "laurent")
    big_alg.declare_generator("e", -1, 1, "exterior")
    big = DgaPage(big_alg, Derivation.from_generator_images(big_alg, {"t": big_alg.gen("e")}))
    sub_alg = GradedAlgebra(RATIONALS)
    sub_alg.declare_generator("e", -1, 1, "exterior")
    sub = DgaPage(sub_alg, Derivation(sub_alg, {}))
    report = induced_map_on_homology(sub, big, [-1], [1])
    cell = report.cells[(-1, 1)]
    # e is a cycle in the sub line but bounds t in the big page
    assert cell.betti_sub == 1 and cell.betti_big == 0 and cell.rank == 0
    assert not report.injective

    # Lambda(a, a2), d = 0, inside Lambda(a, a2, b) with d(b) = a: a bounds
    # upstairs, a2 does not, so spots with matrix work lose part of the rank
    degrees, weights = range(0, 13), range(0, 7)
    for field in (RATIONALS, GF2, F3):
        b_kind = "polynomial" if field.characteristic == 2 else "exterior"
        sub_alg, big_alg = GradedAlgebra(field), GradedAlgebra(field)
        for alg in (sub_alg, big_alg):
            alg.declare_generator("a", 2, 1, "polynomial")
            alg.declare_generator("a2", 2, 1, "polynomial")
        big_alg.declare_generator("b", 3, 1, b_kind)
        sub = DgaPage(sub_alg, Derivation(sub_alg, {}))
        d_big = Derivation.from_generator_images(big_alg, {"b": big_alg.gen("a")})
        big = DgaPage(big_alg, d_big)
        cells = induced_map_on_homology(sub, big, degrees, weights).cells
        assert cells == four_matrix_induced(sub, big, degrees, weights)
        assert cells[(2, 1)].rank == 1 and cells[(2, 1)].betti_sub == 2
        # a nonzero rank below betti_sub at (2w, w) for every w = 1..6
        partial = [key for key, c in cells.items() if 0 < c.rank < c.betti_sub]
        assert sorted(partial) == [(2 * w, w) for w in range(1, 7)]


def four_matrix_induced(sub_page, big_page, degrees, weights):
    """The induced map cell by cell from four whole-basis reference
    matrices and two rank computations per spot, with no reuse."""
    sub, big = sub_page.algebra, big_page.algebra
    mapping = _generator_translation(sub, big)
    report = {}
    for w in sorted(set(weights)):
        for d in sorted(set(degrees)):
            m_sub_here = reference_matrix(sub_page, d, w)
            m_sub_above = reference_matrix(sub_page, d + 1, w)
            m_big_here = reference_matrix(big_page, d, w)
            m_big_above = reference_matrix(big_page, d + 1, w)
            betti_sub = m_sub_here.ncols - m_sub_here.rank() - m_sub_above.rank()
            betti_big = m_big_here.ncols - m_big_here.rank() - m_big_above.rank()

            big_basis = big.enumerate_basis(d, w)
            big_index = {m: i for i, m in enumerate(big_basis)}
            sub_basis = sub.enumerate_basis(d, w)
            cycle_vectors = []
            for vec in kernel_basis(m_sub_here):
                tv = {}
                for j, c in enumerate(vec):
                    if c:
                        tv[big_index[_translate_monomial(sub_basis[j], mapping)]] = c
                cycle_vectors.append(tv)
            boundary_vectors = [
                m_big_above.column(j) for j in range(m_big_above.ncols)
            ]
            r_bound = rank_of_columns(big.field, len(big_basis), boundary_vectors)
            r_total = rank_of_columns(
                big.field, len(big_basis), boundary_vectors + cycle_vectors
            )
            report[(d, w)] = InducedCell(r_total - r_bound, betti_sub, betti_big)
    return report


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [RATIONALS, GF2, F3], ids=["q", "f2", "f3"])
def test_induced_map_equals_four_matrix_reference(field, n):
    cutoff = 16
    incl = hol_to_loop_inclusion(n, field, cutoff)
    degrees, weights = range(-2 * n - 1, cutoff - 2 * n), range(-1, 5)
    cells = incl.induced_homology(degrees, weights).cells
    assert cells == four_matrix_induced(incl.sub_page, incl.big_page, degrees, weights)
    # both kinds of spot occur: zero sub homology (no matrix work) and not
    assert any(c.betti_sub == 0 and c.betti_big for c in cells.values())
    assert any(c.betti_sub for c in cells.values())


def test_induced_map_builds_each_matrix_once(monkeypatch):
    builds = Counter()
    real = dga.differential_matrix

    def counting(page, degree, weight, **bases):
        builds[(id(page), degree, weight)] += 1
        return real(page, degree, weight, **bases)

    incl = hol_to_loop_inclusion(1, RATIONALS, cutoff=8)
    monkeypatch.setattr(dga, "differential_matrix", counting)
    cells = incl.induced_homology(range(-2, 7), range(0, 3)).cells
    assert builds and max(builds.values()) == 1
    # n = 1 over Q: the loop page reaches degree 1 at most, so the spot
    # (1, 1) has sub homology and no boundaries coming from degree 2
    assert incl.big_page.algebra.degree_reach() == (-2, 1)
    assert cells[(1, 1)] == InducedCell(1, 1, 1)
    assert (id(incl.big_page), 2, 1) not in builds


def check_membership(sub_page, big_page, degrees, weights):
    """At each spot, `in_sub` selects exactly the translated sub basis:
    among the row labels of d into the spot, and among its whole big
    basis. Returns the labels it rejects."""
    sub, big = sub_page.algebra, big_page.algebra
    in_sub, mapping = _inclusion(sub_page, big_page), _generator_translation(sub, big)
    rejected = set()
    for d in degrees:
        for w in weights:
            image = {_translate_monomial(m, mapping).exps for m in sub.enumerate_basis(d, w)}
            skeleton = dga._Skeleton(big_page, [d + 1], [w])
            differential_matrix(big_page, d + 1, w, skeleton=skeleton)
            labels = set(skeleton.rows[(d + 1, w)])
            assert {t for t in labels if in_sub(t)} == image & labels
            basis = {m.exps for m in big.enumerate_basis(d, w)}
            assert {t for t in basis if in_sub(t)} == image
            rejected |= labels - image
    return rejected


_INCLUSIONS = {}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([RATIONALS, GF2, F3]), st.integers(1, 3), st.data())
def test_in_sub_selects_the_translated_sub_basis(field, n, data):
    key = (n, field.characteristic)
    if key not in _INCLUSIONS:
        _INCLUSIONS[key] = hol_to_loop_inclusion(n, field, cutoff=16)
    incl = _INCLUSIONS[key]
    # from below the lowest degree -2n up to where d + 1 is in the horizon
    d = data.draw(st.integers(-2 * n - 1, 15 - 2 * n), label="degree")
    check_membership(incl.sub_page, incl.big_page, [d], [data.draw(st.integers(-3, 4))])


def test_in_sub_on_a_widened_laurent_and_a_big_only_generator():
    # t is polynomial in sub and laurent in big; s and b exist only in big.
    # d(b) = a, so the labels of d into a spot hold t^e a^i s^j, e < 0 too
    degrees, weights = range(-1, 10), range(-2, 5)
    for field in (RATIONALS, GF2, F3):
        b_kind = "polynomial" if field.characteristic == 2 else "exterior"
        sub_alg, big_alg = GradedAlgebra(field), GradedAlgebra(field)
        big_alg.declare_generator("s", 2, 1, "polynomial")
        sub_alg.declare_generator("t", 0, 1, "polynomial")
        big_alg.declare_generator("t", 0, 1, "laurent")
        for alg in (sub_alg, big_alg):
            alg.declare_generator("a", 2, 1, "polynomial")
        big_alg.declare_generator("b", 3, 1, b_kind)
        sub = DgaPage(sub_alg, Derivation(sub_alg, {}))
        big = DgaPage(big_alg, Derivation.from_generator_images(big_alg, {"b": big_alg.gen("a")}))
        rejected = check_membership(sub, big, degrees, weights)
        t, s = big_alg.generator("t").gid, big_alg.generator("s").gid
        assert any(dict(exps).get(t, 0) < 0 and s not in dict(exps) for exps in rejected)
        assert any(s in dict(exps) and dict(exps).get(t, 0) >= 0 for exps in rejected)
        cells = induced_map_on_homology(sub, big, degrees, weights).cells
        assert cells == four_matrix_induced(sub, big, degrees, weights)


# -- apply_monomial against the naive Leibniz reference ----------------------------


@st.composite
def algebras_with_images(draw):
    """A certified algebra over Q, F2, F3 or F5 with exterior, truncated and
    laurent generators (and maybe polynomial ones), a derivation given on
    some generators by images that carry bounded blocks, and a monomial.

    The images need not have the right bidegree or square to zero:
    `apply_monomial` is the signed Leibniz expansion of whatever values it
    is given, so the bare constructor is used.
    """
    field = draw(st.sampled_from([RATIONALS, GF2, F3, Field(5)]))
    p = field.characteristic
    odd, even = [-3, -1, 1, 3], [-4, -2, 2, 4]
    kinds = ["exterior", "truncated", "laurent"] + draw(
        st.lists(st.sampled_from(["exterior", "truncated", "polynomial"]), max_size=3)
    )
    kinds = draw(st.permutations(kinds))
    alg = GradedAlgebra(field)
    for i, kind in enumerate(kinds):
        weight = draw(st.integers(0, 2))
        truncation = None
        if kind == "laurent":
            degree, weight = 0, draw(st.sampled_from([-1, 1, 2]))
        elif kind == "polynomial":
            degree = draw(st.sampled_from([2, 4] if p != 2 else [1, 2, 3]))
        else:
            parity = odd if kind == "exterior" else even
            degree = draw(st.sampled_from(parity if p != 2 else odd + even))
            if kind == "truncated":
                truncation = draw(st.integers(1, 6))
        alg.declare_generator(f"g{i}", degree, weight, kind, truncation)
    alg.degree_reach()  # runs the finiteness certificate

    def exponents():
        out = {}
        for g in alg.generators:
            top = {"exterior": 1, "truncated": g.truncation}.get(g.kind, 2 * max(p, 2))
            low = -top if g.kind == "laurent" else 0
            out[g.gid] = draw(st.integers(low, top))
        return out

    def coefficient():
        return draw(st.integers(-6, 6).filter(bool))

    targets = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, unique=True))
    images = {}
    for gid in targets:
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            # a sparse image term: each generator appears with probability about 1/2
            chosen = {h: e for h, e in exponents().items() if draw(st.booleans())}
            terms[alg.monomial(chosen)] = coefficient()
        image = alg.element(terms)
        if image:
            images[gid] = image
    return alg, images, alg.monomial(exponents())


@given(algebras_with_images())
@settings(max_examples=150, deadline=None)
def test_apply_monomial_equals_leibniz_reference(case):
    alg, images, m = case
    got = Derivation(alg, images).apply_monomial(m)
    want = leibniz(alg, images, m)
    assert [(t.exps, t.degree, t.weight, c) for t, c in got.terms.items()] == [
        (t.exps, t.degree, t.weight, c) for t, c in want
    ]


# -- the skeleton pass ---------------------------------------------------------------


def active_degrees(page, degrees):
    """Degrees holding a monomial of `graded_monomials` on which d can be
    nonzero, read off the page's one image d(iota) = (n+1) u c^n by
    multiplying monomials: the pages' other generators are cycles, and
    iota is their only free generator."""
    alg = page.algebra
    image = page.differential(alg.gen("iota")).terms
    return {
        d
        for d in degrees
        if any(alg.multiply_monomials(m, t)[1] is not None
               for m in alg.graded_monomials(d) for t in image)
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "degrees",
    [list(range(-5, 14)), [-5, -4, 0, 1, 2, 5, 7, 8, 13]],
    ids=["contiguous", "gaps"],
)
def test_active_pass_builds_only_what_d_can_move(n, degrees, monkeypatch):
    # over F3, d(iota) = 3 u c^2 = 0 at n = 2 and u c^3 at n = 3
    page = e2_page(n, F3, LOOP, cutoff=40)
    alg, weights = page.algebra, [0, 1, 3]
    needed = sorted(set(degrees) | {d + 1 for d in degrees})
    moving = active_degrees(page, needed)
    assert bool(moving) == (n == 3) and set(needed) - moving
    built, enumerated, applied = Counter(), Counter(), Counter()
    real_matrix, real_enumerate = dga.differential_matrix, GradedAlgebra.enumerate_basis
    real_apply = Derivation.apply_monomial

    def matrix(page_, degree, weight, **handed):
        built[(degree, weight)] += 1
        return real_matrix(page_, degree, weight, **handed)

    def enumerate_basis(algebra, degree, weight):
        enumerated[(degree, weight)] += 1
        return real_enumerate(algebra, degree, weight)

    def apply_monomial(der, m):
        applied[m] += 1
        return real_apply(der, m)

    monkeypatch.setattr(dga, "differential_matrix", matrix)
    monkeypatch.setattr(GradedAlgebra, "enumerate_basis", enumerate_basis)
    monkeypatch.setattr(Derivation, "apply_monomial", apply_monomial)
    profiles = homology_dimensions(page, degrees, weights)
    # matrices only at active degrees, each once, and no basis enumerated
    assert bool(built) == (n == 3)
    assert {d for d, _ in built} <= moving and max(built.values(), default=1) == 1
    assert not enumerated
    assert all(profiles[(d, w)].rank_d_here == 0 for d in degrees if d not in moving
               for w in weights)
    # d is applied at most once to each degree monomial, and to nothing else
    degree_monomials = [m for d in needed for m in alg.graded_monomials(d)]
    assert applied and max(applied.values()) == 1
    assert set(applied) <= set(degree_monomials)
    # nothing is kept: a second identical call applies d again
    first = sum(applied.values())
    applied.clear()
    assert homology_dimensions(page, degrees, weights) == profiles
    assert sum(applied.values()) == first
    monkeypatch.undo()
    assert profiles == dense_profiles(page, degrees, weights)


def test_pass_expands_no_monomial_that_misses_the_requested_weights(monkeypatch):
    # on a hol page iota is the only free generator, polynomial of weight
    # 1, so a monomial of weight above 2 has no free multiple of weight 0..2
    page = e2_page(2, GF2, HOL, cutoff=40)
    alg = page.algebra
    assert alg.free_generators() == [alg.generator("iota")]
    degrees, weights = range(-4, 30), range(0, 3)
    assert any(m.weight > 2 for d in range(-4, 31) for m in alg.graded_monomials(d))
    expanded = []
    real_apply = Derivation.apply_monomial

    def apply_monomial(der, m):
        expanded.append(m)
        return real_apply(der, m)

    monkeypatch.setattr(Derivation, "apply_monomial", apply_monomial)
    profiles = homology_dimensions(page, degrees, weights)
    monkeypatch.undo()
    assert expanded and max(m.weight for m in expanded) == 2
    assert profiles == dense_profiles(page, degrees, weights)


@st.composite
def certified_pages(draw):
    """A certified page over Q, F2, F3 or F5 with a real differential.

    Generators are cycles, with image 0, or moving ones, whose image is a
    sum of cycle monomials of bidegree (degree - 1, weight); so d(d(g)) = 0.
    A free generator (laurent, or degree-0 polynomial as in
    `circle_like_page`) may move, and so may bounded and positive-degree
    polynomial ones. Each moving generator gets a cycle partner in the
    bidegree of its image, unless that is (0, 0), so images are rarely 0.
    """
    field = draw(st.sampled_from([RATIONALS, GF2, F3, Field(5)]))
    p = field.characteristic
    rows = []  # (degree, weight, kind, truncation, moves)

    def bounded(degree):
        if p != 2 and degree % 2:
            return "exterior", None
        kind = "exterior" if p == 2 and draw(st.booleans()) else "truncated"
        return kind, (None if kind == "exterior" else draw(st.integers(1, 3)))

    if draw(st.booleans()):
        rows.append((0, draw(st.sampled_from([-1, 1, 2])), "laurent", None, draw(st.booleans())))
    else:
        for _ in range(draw(st.integers(0, 2))):
            rows.append((0, draw(st.integers(1, 2)), "polynomial", None, draw(st.booleans())))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            degree = draw(st.sampled_from([1, 2, 3] if p == 2 else [2]))
            rows.append((degree, draw(st.integers(0, 1)), "polynomial", None, draw(st.booleans())))
        else:
            degree = draw(st.integers(-2, 3))
            weight = draw(st.integers(0, 2)) or (1 if degree == 0 else 0)
            rows.append((degree, weight, *bounded(degree), draw(st.booleans())))
    for degree, weight, _, _, moves in list(rows):
        if moves and (degree - 1, weight) != (0, 0):
            rows.append((degree - 1, weight, *bounded(degree - 1), False))
    for _ in range(draw(st.integers(0, 2))):
        degree = draw(st.integers(-3, 3))
        weight = draw(st.integers(0, 2)) or (1 if degree == 0 else 0)
        rows.append((degree, weight, *bounded(degree), False))

    alg = GradedAlgebra(field)
    movers = []
    for i, (degree, weight, kind, truncation, moves) in enumerate(draw(st.permutations(rows))):
        g = alg.declare_generator(f"g{i}", degree, weight, kind, truncation)
        if moves:
            movers.append(g)
    cycles = {g.gid for g in alg.generators if g not in movers}
    images = {}
    for g in movers:
        candidates = [
            m for m in alg.enumerate_basis(g.degree - 1, g.weight)
            if all(gid in cycles for gid, _ in m.exps)
        ]
        chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True)) if candidates else []
        terms = {m: draw(st.integers(1, 4)) for m in chosen}
        images[g.gid] = alg.element(terms)
    return DgaPage(alg, Derivation.from_generator_images(alg, images))


@given(certified_pages(), st.data())
@settings(max_examples=200, deadline=None)
def test_homology_dimensions_equal_dense_reference_on_certified_pages(page, data):
    lo = data.draw(st.integers(-5, 3))
    degrees = range(lo, lo + data.draw(st.integers(1, 5)))
    weights = data.draw(st.lists(st.integers(-3, 4), min_size=1, max_size=3))
    assert homology_dimensions(page, degrees, weights) == dense_profiles(
        page, degrees, weights
    )


def labelled_columns(matrix, labels):
    """The nonzero columns of a matrix, each as the set of its (row
    label, coefficient) pairs, counted: equal for two matrices that
    differ only in the order of their rows and columns and in zero ones."""
    exps = {i: key for key, i in labels.items()}
    columns = {}
    for (i, j), c in matrix.entries.items():
        columns.setdefault(j, set()).add((exps[i], c))
    return Counter(frozenset(col) for col in columns.values())


def reference_columns(page, d, w):
    rows = page.algebra.enumerate_basis(d - 1, w)
    return labelled_columns(reference_matrix(page, d, w), {m.exps: i for i, m in enumerate(rows)})


@given(certified_pages(), st.data())
@settings(max_examples=150, deadline=None)
def test_differential_matrix_equals_reference_on_certified_pages(page, data):
    lo = data.draw(st.integers(-5, 3))
    weights = data.draw(st.lists(st.integers(-3, 4), min_size=1, max_size=3, unique=True))
    for d in range(lo, lo + data.draw(st.integers(1, 5))):
        skeleton = dga._Skeleton(page, [d], weights)
        for w in weights:
            matrix = differential_matrix(page, d, w, skeleton=skeleton)
            assert matrix.rank() == rank_dense(reference_matrix(page, d, w))
            labels = skeleton.rows[(d, w)]
            assert labelled_columns(matrix, labels) == reference_columns(page, d, w)


def test_matrix_from_handed_skeleton_equals_matrix_built_alone():
    pages = (
        e2_page(3, F3, LOOP, 30),
        e2_page(2, GF2, HOL, 20),
        e2_page(1, RATIONALS, LOOP, 12),
        circle_like_page(),
    )
    degrees, weights = range(-6, 12), range(-1, 4)
    built = 0
    for page in pages:
        skeleton = dga._Skeleton(page, degrees, weights)
        for d in degrees:
            for w in weights:
                alone = differential_matrix(page, d, w)
                handed = differential_matrix(page, d, w, skeleton=skeleton)
                assert (handed.nrows, handed.ncols) == (alone.nrows, alone.ncols)
                assert list(handed.entries.items()) == list(alone.entries.items())
                labels = skeleton.rows[(d, w)]
                assert labelled_columns(handed, labels) == reference_columns(page, d, w)
                built += bool(handed.entries)
    assert built
