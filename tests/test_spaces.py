"""Space builders: generator schedules, starting pages, closed forms."""

import pytest

from loophom import analysis, spaces
from loophom.dga import Derivation, DgaPage, homology_dimensions
from loophom.errors import CutoffTooTight, InvalidCutoff, NegativeCutoff, NotAChainMap
from loophom.scalars import GF2, RATIONALS, Field
from loophom.spaces import (
    HOL,
    LOOP,
    HolLoopInclusion,
    closed_form_rational_hol_betti,
    e2_page,
    generator_schedule,
    hol_to_loop_inclusion,
    operation_degree,
    pontrjagin_algebra,
)

F3 = Field(3)
F5 = Field(5)


# -- degree schedule ------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda c: generator_schedule(2, GF2, LOOP, c),
        lambda c: pontrjagin_algebra(2, GF2, LOOP, c),
        lambda c: e2_page(2, F3, HOL, c),
        lambda c: hol_to_loop_inclusion(2, GF2, cutoff=c),
    ],
    ids=["schedule", "pontrjagin", "e2_page", "inclusion"],
)
def test_builders_refuse_negative_cutoff(build):
    with pytest.raises(NegativeCutoff):
        build(-1)
    assert build(0) is not None


@pytest.mark.parametrize("cutoff", [True, 2.5, "8"])
def test_validate_cutoff_refuses_a_non_integer(cutoff):
    with pytest.raises(InvalidCutoff, match="cutoff must be an integer"):
        spaces.validate_cutoff(cutoff)
    with pytest.raises(InvalidCutoff):
        e2_page(2, GF2, LOOP, cutoff)


def test_validate_cutoff_is_shared_with_analysis():
    assert analysis.validate_cutoff is spaces.validate_cutoff


def test_operation_degree_closed_form_matches_recursion():
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            assert operation_degree(n, p, 0) == 2 * n - 1
            for i in range(4):
                assert operation_degree(n, p, i + 1) == p * operation_degree(n, p, i) + (p - 1)


def test_schedule_mod2_n2():
    rows = generator_schedule(2, GF2, LOOP, 30)
    assert rows == [
        ("iota", 0, 1, "laurent"),
        ("u", 3, 1, "polynomial"),
        ("Q1u", 7, 2, "polynomial"),
        ("Q2u", 15, 4, "polynomial"),
    ]


def test_schedule_mod3_n2():
    rows = generator_schedule(2, F3, LOOP, 30)
    assert rows == [
        ("iota", 0, 1, "laurent"),
        ("u", 3, 1, "exterior"),
        ("Q1u", 11, 3, "exterior"),
        ("bQ1u", 10, 3, "polynomial"),
    ]


def test_schedule_keeps_bockstein_when_operation_just_misses():
    # at cutoff 16 the i=2 operation (degree 17) is out, its Bockstein in
    rows = generator_schedule(1, F3, LOOP, 16)
    assert rows == [
        ("iota", 0, 1, "laurent"),
        ("u", 1, 1, "exterior"),
        ("Q1u", 5, 3, "exterior"),
        ("bQ1u", 4, 3, "polynomial"),
        ("bQ2u", 16, 9, "polynomial"),
    ]


def test_schedule_rational_is_two_generators():
    for n in (1, 3):
        rows = generator_schedule(n, RATIONALS, HOL, 10)
        assert rows == [
            ("iota", 0, 1, "polynomial"),
            ("u", 2 * n - 1, 1, "exterior"),
        ]


def _schedule_from_degree_formulas(n, p, variant, cutoff):
    """The rows written out per prime: mod 2, polynomial Q_i u in degree
    2^(i+1) n - 1; mod an odd p, exterior Q_i u in degree 2 p^i n - 1 and
    polynomial bQ_i u in degree 2 p^i n - 2; weight p^i; each kept iff
    its degree is at most the cutoff."""
    rows = [
        ("iota", 0, 1, "laurent" if variant == LOOP else "polynomial"),
        ("u", 2 * n - 1, 1, "polynomial" if p == 2 else "exterior"),
    ]
    for i in range(1, 8):  # 2 * 2**7 - 2 is past every cutoff tried
        if p == 2 and 2 ** (i + 1) * n - 1 <= cutoff:
            rows.append((f"Q{i}u", 2 ** (i + 1) * n - 1, 2**i, "polynomial"))
        if p > 2 and 2 * p**i * n - 1 <= cutoff:
            rows.append((f"Q{i}u", 2 * p**i * n - 1, p**i, "exterior"))
        if p > 2 and 2 * p**i * n - 2 <= cutoff:
            rows.append((f"bQ{i}u", 2 * p**i * n - 2, p**i, "polynomial"))
    return rows


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_schedule_matches_degree_formulas(p):
    field = Field(p)
    for n in (1, 2, 3):
        for variant in (LOOP, HOL):
            for cutoff in range(81):
                expected = _schedule_from_degree_formulas(n, p, variant, cutoff)
                assert generator_schedule(n, field, variant, cutoff) == expected


def test_schedule_variant_controls_iota_kind():
    assert generator_schedule(2, GF2, LOOP, 10)[0][3] == "laurent"
    assert generator_schedule(2, GF2, HOL, 10)[0][3] == "polynomial"


def test_schedule_small_cutoff():
    rows = generator_schedule(2, GF2, LOOP, 6)
    assert [r[0] for r in rows] == ["iota", "u"]


def test_schedule_argument_validation():
    with pytest.raises(ValueError):
        generator_schedule(0, GF2, LOOP, 10)
    with pytest.raises(ValueError):
        generator_schedule(1, GF2, "rat", 10)
    with pytest.raises(TypeError):
        generator_schedule(1, 2, LOOP, 10)


# -- algebras and pages -----------------------------------------------------------


def test_pontrjagin_algebra_horizon_tag():
    assert pontrjagin_algebra(2, GF2, LOOP, 30).complete_through_degree == 30
    assert pontrjagin_algebra(2, RATIONALS, LOOP, 30).complete_through_degree is None


@pytest.mark.parametrize(
    "n,field,zero",
    [(1, GF2, True), (2, GF2, False), (2, F3, True), (1, F3, False),
     (4, F5, True), (1, RATIONALS, False), (3, GF2, True)],
)
def test_differential_vanishes_iff_p_divides_n_plus_one(n, field, zero):
    page = e2_page(n, field, LOOP, cutoff=20)
    assert page.differential.is_zero() == zero


def test_differential_image_value():
    page = e2_page(2, F5, LOOP, cutoff=20)
    alg = page.algebra
    image = page.differential(alg.gen("iota"))
    assert image == alg.monomial_element(alg.monomial({"u": 1, "c": 2}), 3)


def test_negative_exponent_refused_even_past_a_bound():
    # u is exterior at an odd prime, so u^2 alone is zero; c^-1 still refuses
    alg = e2_page(2, F3, LOOP, 10).algebra
    assert alg.monomial({"u": 2}) is None
    with pytest.raises(ValueError, match="negative exponent"):
        alg.monomial({"u": 2, "c": -1})


def test_e2_horizon_shifted_by_projective_dimension():
    assert e2_page(2, GF2, LOOP, cutoff=30).algebra.complete_through_degree == 26
    assert e2_page(1, F3, HOL, cutoff=12).algebra.complete_through_degree == 10
    assert e2_page(2, RATIONALS, LOOP, cutoff=8).algebra.complete_through_degree is None


# -- closed form ---------------------------------------------------------------------


def test_closed_form_degree_zero_component():
    assert closed_form_rational_hol_betti(1, 0) == {0: 1, 2: 1}
    assert closed_form_rational_hol_betti(3, 0) == {0: 1, 2: 1, 4: 1, 6: 1}


def test_closed_form_positive_components():
    assert closed_form_rational_hol_betti(1, 2) == {0: 1, 3: 1}
    assert closed_form_rational_hol_betti(2, 1) == {0: 1, 2: 1, 5: 1, 7: 1}
    assert closed_form_rational_hol_betti(3, 5) == {0: 1, 2: 1, 4: 1, 7: 1, 9: 1, 11: 1}


def test_closed_form_is_component_independent_for_positive_k():
    for n in (1, 2, 3):
        tables = [closed_form_rational_hol_betti(n, k) for k in (1, 2, 5, 9)]
        assert all(t == tables[0] for t in tables)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form_rational_hol_betti(0, 1)
    with pytest.raises(ValueError):
        closed_form_rational_hol_betti(True, 1)
    with pytest.raises(ValueError):
        closed_form_rational_hol_betti(2, -1)


def test_engine_matches_closed_form_spot():
    # n=1, k=3 over the rationals: ordinary degrees 0 and 3 survive
    page = e2_page(1, RATIONALS, HOL, cutoff=10)
    profs = homology_dimensions(page, range(-2, 3), [3])
    betti = {d + 2: p.betti for (d, _), p in profs.items()}  # shift by 2n
    expected = closed_form_rational_hol_betti(1, 3)
    assert betti == {o: expected.get(o, 0) for o in range(0, 5)}


# -- inclusion --------------------------------------------------------------------


def test_inclusion_chain_map_checked_on_creation():
    incl = hol_to_loop_inclusion(2, F5, cutoff=16)
    assert incl.sub_page.algebra.generator("iota").kind == "polynomial"
    assert incl.big_page.algebra.generator("iota").kind == "laurent"


def test_inclusion_built_directly_is_checked():
    sub, big = e2_page(2, F5, HOL, cutoff=16), e2_page(2, F5, LOOP, cutoff=16)
    flat = DgaPage(big.algebra, Derivation(big.algebra, {}))
    with pytest.raises(NotAChainMap):
        HolLoopInclusion(sub, flat)  # d(iota) disagrees
    with pytest.raises(NotAChainMap):
        HolLoopInclusion(big, sub)  # a laurent iota cannot narrow to a polynomial one
    assert HolLoopInclusion(sub, big).induced_homology([0], [1]).injective


def test_inclusion_induced_homology_injective():
    incl = hol_to_loop_inclusion(1, GF2, cutoff=14)
    report = incl.induced_homology(range(0, 5), [1, 2, 3])
    assert report.injective
    assert all(cell.rank == cell.betti_sub for cell in report.cells.values())


def test_inclusion_respects_horizon():
    incl = hol_to_loop_inclusion(1, GF2, cutoff=6)  # internal horizon 4
    with pytest.raises(CutoffTooTight):
        incl.induced_homology([4], [1])
