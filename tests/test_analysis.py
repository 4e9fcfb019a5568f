"""Betti tables, series, and the theorem checkers."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom import analysis
from loophom.analysis import (
    PoincareSeries,
    SpaceSpec,
    VerificationReport,
    _page,
    betti_oracle,
    betti_table,
    check_collapse,
    check_dichotomy,
    check_oracle,
    check_periodicity,
    collapse_predicted,
    poincare_series,
    unit_check,
)
from loophom.dga import DgaPage, Derivation
from loophom.errors import (
    CutoffTooTight,
    InvalidCharacteristic,
    InvalidComponent,
    InvalidCutoff,
    InvalidDimension,
    InvalidGrading,
    InvalidStep,
    InvalidVariant,
    LoophomError,
    NegativeCutoff,
)
from loophom.graded_algebra import GradedAlgebra
from loophom.scalars import GF2, RATIONALS, Field
from loophom.spaces import HOL, LOOP, closed_form_rational_hol_betti

F3 = Field(3)
F7 = Field(7)


# -- tables ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p, variant, components, nonzero, rank_sum, digest",
    [
        (2, 2, LOOP, range(-4, 5), 1650, 64061,
         "5405827bc0adf3eaa09cb1bf93b518da97b7b2d5899be534231924b5717884df"),
        (1, 3, LOOP, range(-6, 7), 1400, 26448,
         "e770567df95158ff5f6de75c6fa358ae04da5ae63ebf9cd632eabcaea91245b0"),
        (2, 2, HOL, range(0, 9), 46, 48,
         "b334d1787952414dd742f7d808503e0b236d199e8b92c38aa9da4d5a326eec9b"),
    ],
    ids=["loop-f2", "loop-f3", "hol-f2"],
)
def test_deep_rank_profiles_keep_their_digests(
    monkeypatch, n, p, variant, components, nonzero, rank_sum, digest
):
    # every spot's numbers at cutoff 200, pinned spot by spot: the number
    # of spots where d is nonzero, the sum of its ranks, and a sha256 of
    # the sorted (degree, weight, dim, rank of d out, rank of d in)
    monkeypatch.setattr(analysis, "_PAGE_CACHE", {})  # the deep pages go with the test
    profiles = analysis._profiles(n, Field(p), variant, 200, list(components))
    ranks = [r.rank_d_here for r in profiles.values() if r.rank_d_here]
    assert (len(ranks), sum(ranks)) == (nonzero, rank_sum)
    rows = sorted((d, w, r.dim, r.rank_d_here, r.rank_d_above) for (d, w), r in profiles.items())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_betti_table_frozen_rational_loop():
    table = betti_table(SpaceSpec(LOOP, 2, RATIONALS), [1], cutoff=12)
    assert table.column(1) == {0: 1, 2: 1, 5: 1, 7: 1}
    assert table.components() == [1]
    assert table.grading == "ordinary"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rational_loop_components_match_moller_raussen(n):
    """Moller and Raussen ("Rational homotopy of spaces of maps into
    spheres and complex projective spaces", Trans. AMS 292, 1985):
    Map_k(S^2, CP^n) is rationally CP^(n-1) x S^(2n+1) for k != 0, and
    CP^n x S^(2n-1) for k = 0."""

    def poincare(cp, sphere):  # of CP^cp x S^sphere
        return {2 * i + sphere * j: 1 for i in range(cp + 1) for j in (0, 1)}

    table = betti_table(SpaceSpec(LOOP, n, RATIONALS), range(-5, 6), cutoff=12 * n)
    for k in range(-5, 6):
        want = poincare(n, 2 * n - 1) if k == 0 else poincare(n - 1, 2 * n + 1)
        assert table.column(k) == want, k


def test_betti_table_grading_shift_and_involution():
    spec = SpaceSpec(LOOP, 2, RATIONALS)
    ordinary = betti_table(spec, [1], cutoff=12)
    regraded = betti_table(spec, [1], cutoff=12, grading="regraded")
    assert regraded.column(1) == {d - 4: v for d, v in ordinary.column(1).items()}
    assert ordinary.to_regraded().entries == regraded.entries
    assert regraded.to_ordinary().entries == ordinary.entries
    assert ordinary.to_grading("ordinary") is ordinary
    with pytest.raises(ValueError):
        ordinary.to_grading("absolute")


def test_betti_table_component_order_irrelevant():
    spec = SpaceSpec(LOOP, 1, GF2)
    a = betti_table(spec, [2, -1, 0], cutoff=10)
    b = betti_table(spec, [-1, 0, 2], cutoff=10)
    assert a.entries == b.entries


def test_betti_table_rejects_negative_hol_component():
    with pytest.raises(ValueError):
        betti_table(SpaceSpec(HOL, 1, RATIONALS), [-1], cutoff=10)
    with pytest.raises(ValueError):
        betti_table(SpaceSpec(LOOP, 1, RATIONALS), [0], cutoff=10, grading="weird")


@pytest.mark.parametrize(
    "call",
    [
        lambda: betti_table(SpaceSpec(HOL, 1, RATIONALS), [2, -1], cutoff=10),
        lambda: betti_oracle(SpaceSpec(HOL, 1, GF2), [-3, 0], cutoff=10),
        lambda: closed_form_rational_hol_betti(1, -1),
    ],
    ids=["betti_table", "betti_oracle", "closed_form"],
)
def test_negative_hol_component_refused_with_one_message(call):
    with pytest.raises(InvalidComponent, match="^holomorphic components have nonnegative degree$"):
        call()


def test_columns_group_the_entries_like_column():
    table = betti_table(SpaceSpec(LOOP, 1, F3), range(-3, 4), cutoff=12, grading="regraded")
    columns = table.columns()
    assert list(columns) == table.components() == list(range(-3, 4))
    for k in range(-4, 5):
        expected = {d: v for (kk, d), v in table.entries.items() if kk == k}
        assert columns.get(k, {}) == table.column(k) == expected


def test_periodicity_and_dichotomy_scan_the_table_once(monkeypatch):
    def no_column(self, component):
        raise AssertionError("column() scans every entry")

    monkeypatch.setattr(analysis.BettiTable, "column", no_column)
    assert check_periodicity(2, 3, range(-3, 3), k=3, cutoff=14).passed
    assert check_dichotomy(2, F3, range(-3, 3), cutoff=14).passed


def test_driver_degrees_do_not_grow_with_the_cutoff(monkeypatch):
    requested_degrees = []
    real = analysis.homology_dimensions

    def recording(page, degrees, weights):
        requested_degrees.append(list(degrees))
        return real(page, degrees, weights)

    monkeypatch.setattr(analysis, "homology_dimensions", recording)
    # over Q with n = 3 every monomial has internal degree -6..5
    spec = SpaceSpec(LOOP, 3, RATIONALS)
    shallow = betti_table(spec, [0], 48)
    deep = betti_table(spec, [0], 480)
    assert requested_degrees == [list(range(-6, 6))] * 2
    assert shallow.entries == deep.entries
    # F7 pages get no operation generator below degree 40: the same reach
    requested_degrees.clear()
    check_collapse(3, 7, [0, 1], 12)
    check_collapse(3, 7, [0, 1], 38)
    assert requested_degrees == [list(range(-6, 6))] * 4


@pytest.mark.parametrize("variant", [LOOP, HOL])
def test_finite_reach_prime_page_equals_oracle(variant):
    # n = 3 over F7 at cutoff 21: the page has a horizon but no bQ1u, so
    # the window is clipped by the reach, not by the horizon
    algebra = _page(3, F7, variant, 21).algebra
    assert algebra.degree_reach() == (-6, 5)
    assert algebra.complete_through_degree == 16
    spec = SpaceSpec(variant, 3, F7)
    comps = range(-3, 4) if variant == LOOP else range(0, 4)
    table = betti_table(spec, comps, 21)
    assert table.entries and table.entries == betti_oracle(spec, comps, 21).entries


def test_space_spec_validates_itself():
    with pytest.raises(ValueError):
        SpaceSpec("disk", 1, GF2)
    with pytest.raises(ValueError):
        SpaceSpec(LOOP, 0, GF2)
    with pytest.raises(ValueError):
        SpaceSpec(LOOP, True, GF2)
    with pytest.raises(TypeError):
        SpaceSpec(LOOP, 1, 2)


def test_page_cache_reuses_objects():
    a = _page(1, GF2, LOOP, 9)
    b = _page(1, GF2, LOOP, 9)
    assert a is b


def test_poincare_series_str():
    s = poincare_series(SpaceSpec(HOL, 1, RATIONALS), 3, cutoff=8)
    assert str(s) == "1 + t^3"
    s = poincare_series(SpaceSpec(LOOP, 2, GF2), 1, cutoff=8)
    assert str(s) == "1 + t^2 + t^5 + t^6 + 2t^7 + t^8"
    empty = PoincareSeries(SpaceSpec(LOOP, 1, GF2), 0, "ordinary", 5, {})
    assert str(empty) == "0"
    crafted = PoincareSeries(SpaceSpec(LOOP, 1, GF2), 0, "ordinary", 5, {0: 2, 1: 1, 3: 4})
    assert str(crafted) == "2 + t + 4t^3"


# -- report plumbing -----------------------------------------------------------


def test_report_str_formats():
    passing = VerificationReport("collapse", {"n": 2, "p": 3}, "Pass", {"x": 1})
    assert str(passing) == "collapse [n=2 p=3]: Pass"
    failing = VerificationReport("collapse", {"n": 2}, "Fail", ["bad"])
    assert str(failing) == "collapse [n=2]: Fail witness=['bad']"
    noclaim = VerificationReport("unit", {"k": 1}, "NoClaim")
    assert str(noclaim) == "unit [k=1]: NoClaim"
    assert passing.passed and not passing.failed
    assert failing.failed and not failing.passed
    assert not noclaim.passed and not noclaim.failed


# -- collapse --------------------------------------------------------------------


def test_collapse_predicted_truth_table():
    # p divides n+1
    assert collapse_predicted(2, 3, 1, LOOP)
    assert collapse_predicted(4, 5, 2, LOOP)
    assert collapse_predicted(1, 2, 7, LOOP)
    assert collapse_predicted(3, 2, -1, LOOP)
    # odd p dividing the component
    assert collapse_predicted(1, 3, 3, LOOP)
    assert collapse_predicted(1, 3, -6, LOOP)
    assert not collapse_predicted(1, 3, 1, LOOP)
    # p = 2 with n even: no collapse except the constants component
    assert not collapse_predicted(2, 2, 0, LOOP)
    assert not collapse_predicted(2, 2, 4, LOOP)
    assert collapse_predicted(2, 2, 0, HOL)
    assert not collapse_predicted(2, 2, 1, HOL)


@pytest.mark.parametrize(
    "n,p,comps",
    [(2, 3, range(-3, 4)), (1, 2, range(-3, 4)), (4, 5, [0, 1, 2]), (3, 2, range(-2, 3))],
)
def test_collapse_passes_when_p_divides_n_plus_one(n, p, comps):
    report = check_collapse(n, p, comps, cutoff=20)
    assert report.passed
    assert all(v == "collapse" for v in report.witness.values())


def test_collapse_witness_cells_mod2_even_n():
    report = check_collapse(2, 2, [0, 1], cutoff=20)
    assert report.passed
    assert report.witness == {
        (LOOP, 0): "non-collapse",
        (LOOP, 1): "non-collapse",
        (HOL, 0): "collapse",
        (HOL, 1): "non-collapse",
    }


def test_collapse_odd_p_dichotomy_in_k():
    report = check_collapse(1, 3, [1, 2, 3, 6], cutoff=20)
    assert report.passed
    w = report.witness
    assert w[(LOOP, 3)] == "collapse" and w[(LOOP, 6)] == "collapse"
    assert w[(LOOP, 1)] == "non-collapse" and w[(LOOP, 2)] == "non-collapse"


@pytest.mark.parametrize("cutoff,verdict", [(1, "NoClaim"), (5, "NoClaim"), (6, "Pass")])
def test_collapse_noclaim_below_first_differential(cutoff, verdict):
    # n = 2, p = 2, k = 0: the first source of d is iota^-1 u in degree 7
    report = check_collapse(2, 2, [0], cutoff=cutoff)
    assert report.verdict == verdict
    if verdict == "NoClaim":
        assert report.witness == [{"variant": LOOP, "k": 0}]


def test_collapse_hol_filters_negative_components():
    report = check_collapse(2, 2, [-2, -1], cutoff=16)
    assert report.passed
    assert all(variant == LOOP for variant, _ in report.witness)


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_collapse(1, 0, [1]),
        lambda: check_periodicity(1, 0, [0], k=2),
        lambda: unit_check(1, 0, k=2),
    ],
    ids=["collapse", "periodicity", "unit"],
)
def test_prime_checks_refuse_characteristic_zero(check):
    with pytest.raises(LoophomError) as info:
        check()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("p", ["f3", "q", 3.0, True])
@pytest.mark.parametrize(
    "check",
    [
        lambda p: check_collapse(2, p, [0, 1], cutoff=10),
        lambda p: check_periodicity(2, p, [0, 1], k=3, cutoff=10),
        lambda p: unit_check(2, p, k=3, cutoff=10),
    ],
    ids=["collapse", "periodicity", "unit"],
)
def test_prime_checks_refuse_a_non_int_p_before_any_work(check, p, monkeypatch):
    # a field spec is read as its field: "f3" gives the report 3 gives
    if p == "f3":
        assert check(p) == check(3)
        return

    def no_pages(*args):
        raise AssertionError("a page was built")

    monkeypatch.setattr(analysis, "_page", no_pages)
    with pytest.raises(InvalidCharacteristic):
        check(p)


@pytest.mark.parametrize(
    "call",
    [
        lambda: betti_table(SpaceSpec(LOOP, 2, GF2), [0], cutoff=-5),
        lambda: poincare_series(SpaceSpec(HOL, 1, RATIONALS), 1, cutoff=-1),
        lambda: betti_oracle(SpaceSpec(LOOP, 2, GF2), [0], cutoff=-1),
        lambda: check_collapse(2, 2, [0], cutoff=-1),
        lambda: check_periodicity(2, 2, [0, 1], k=2, cutoff=-1),
        lambda: check_dichotomy(2, GF2, [0, 1], cutoff=-1),
        lambda: check_oracle(2, GF2, [0], cutoff=-1),
        lambda: unit_check(2, 2, k=2, cutoff=-1),
    ],
    ids=[
        "betti_table", "poincare_series", "betti_oracle", "collapse",
        "periodicity", "dichotomy", "oracle", "unit",
    ],
)
def test_negative_cutoff_refused_before_any_work(call, monkeypatch):
    def no_pages(*args):
        raise AssertionError("a page was built")

    monkeypatch.setattr(analysis, "_page", no_pages)
    with pytest.raises(NegativeCutoff) as info:
        call()
    assert isinstance(info.value, LoophomError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("cutoff", [True, False, 8.0, 2.5, "8"])
@pytest.mark.parametrize(
    "call",
    [
        lambda c: betti_table(SpaceSpec(LOOP, 2, GF2), [0], cutoff=c),
        lambda c: poincare_series(SpaceSpec(HOL, 1, RATIONALS), 1, cutoff=c),
        lambda c: betti_oracle(SpaceSpec(LOOP, 2, GF2), [0], cutoff=c),
        lambda c: check_collapse(2, 2, [0], cutoff=c),
        lambda c: check_periodicity(2, 2, [0, 1], k=2, cutoff=c),
        lambda c: check_dichotomy(2, GF2, [0, 1], cutoff=c),
        lambda c: check_oracle(2, GF2, [0], cutoff=c),
        lambda c: unit_check(1, 2, k=2, cutoff=c),
    ],
    ids=[
        "betti_table", "poincare_series", "betti_oracle", "collapse",
        "periodicity", "dichotomy", "oracle", "unit",
    ],
)
def test_non_integer_cutoff_refused_before_any_work(call, cutoff, monkeypatch):
    def no_pages(*args):
        raise AssertionError("a page was built")

    monkeypatch.setattr(analysis, "_page", no_pages)
    with pytest.raises(InvalidCutoff, match="cutoff must be an integer") as info:
        call(cutoff)
    assert isinstance(info.value, LoophomError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("component", [0.5, True, "1"])
@pytest.mark.parametrize(
    "call",
    [
        # True == 1, so sorting a set of these components would hide it
        lambda k: betti_table(SpaceSpec(LOOP, 2, GF2), [1, k], cutoff=10),
        lambda k: betti_table(SpaceSpec(HOL, 2, GF2), [k], cutoff=10),
        lambda k: poincare_series(SpaceSpec(LOOP, 2, GF2), k, cutoff=10),
        lambda k: betti_oracle(SpaceSpec(LOOP, 2, GF2), [k], cutoff=10),
        lambda k: check_collapse(2, 2, [k], cutoff=10),
        lambda k: check_periodicity(2, 3, [k], k=3, cutoff=10),
        lambda k: check_dichotomy(2, GF2, [k], cutoff=10),
        lambda k: check_oracle(2, GF2, [k], cutoff=10),
        lambda k: closed_form_rational_hol_betti(1, k),
    ],
    ids=[
        "betti_table", "betti_table-hol", "poincare_series", "betti_oracle", "collapse",
        "periodicity", "dichotomy", "oracle", "closed_form",
    ],
)
def test_non_int_component_refused_before_any_work(call, component, monkeypatch):
    def no_pages(*args):
        raise AssertionError("a page was built")

    monkeypatch.setattr(analysis, "_page", no_pages)
    with pytest.raises(InvalidComponent, match="a component must be an int") as info:
        call(component)
    assert isinstance(info.value, LoophomError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: unit_check(1, 2, k=k, cutoff=8),
        lambda k: check_periodicity(1, 2, [0, 1], k=k, cutoff=8),
    ],
    ids=["unit", "periodicity"],
)
def test_checks_refuse_a_bool_or_non_int_k(call, monkeypatch):
    def no_pages(*args):
        raise AssertionError("a page was built")

    monkeypatch.setattr(analysis, "_page", no_pages)
    for k in (True, False, 2.0):
        with pytest.raises(ValueError, match="k must be"):
            call(k)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: SpaceSpec(LOOP, 0, GF2), InvalidDimension),
        (lambda: SpaceSpec(HOL, 1.0, GF2), InvalidDimension),
        (lambda: SpaceSpec(LOOP, True, GF2), InvalidDimension),
        (lambda: SpaceSpec("free", 2, GF2), InvalidVariant),
        (lambda: betti_table(SpaceSpec(LOOP, 1, GF2), [0], 4, "internal"), InvalidGrading),
        (lambda: betti_table(SpaceSpec(LOOP, 1, GF2), [0], 4).to_grading("x"), InvalidGrading),
        (lambda: check_periodicity(1, 2, [0], 8, k=2.0), InvalidStep),
        (lambda: unit_check(1, 2, 8, k=0), InvalidStep),
        (lambda: unit_check(1, 2, 8, k=True), InvalidStep),
        (lambda: Field(2**89 - 1), InvalidCharacteristic),
    ],
    ids=["n-0", "n-float", "n-bool", "variant", "grading", "to-grading",
         "periodicity-k", "unit-k-0", "unit-k-bool", "past-a-word"],
)
def test_input_refusals_are_typed_value_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, LoophomError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: check_collapse(n, 3, []),
        lambda n: check_periodicity(n, 3, [0], k=1),
        lambda n: check_dichotomy(n, GF2, [0, 1]),
        lambda n: check_oracle(n, GF2, []),
        lambda n: unit_check(n, 3, k=1),
    ],
    ids=["collapse", "periodicity", "dichotomy", "oracle", "unit"],
)
def test_checks_refuse_nonpositive_n_before_any_work(call, monkeypatch):
    # each call could finish without a page, so only an up-front check refuses it
    def no_pages(*args):
        raise AssertionError("a page was built")

    monkeypatch.setattr(analysis, "_page", no_pages)
    for n in (0, True):
        with pytest.raises(ValueError, match="positive"):
            call(n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_collapse(2, 2, [], cutoff=12),
        lambda: check_periodicity(2, 2, [], k=2, cutoff=12),
        lambda: check_periodicity(2, 2, [0, 1], k=0, cutoff=12),
        lambda: check_dichotomy(2, GF2, [], cutoff=12),
        lambda: check_oracle(2, GF2, [], cutoff=12),
    ],
    ids=["collapse", "periodicity", "periodicity-k0", "dichotomy", "oracle"],
)
def test_checks_that_compare_nothing_claim_nothing(call):
    report = call()
    assert report.verdict == "NoClaim"
    assert report.witness == {"compared": 0}


# -- periodicity -------------------------------------------------------------------


def test_periodicity_pass_and_noclaim():
    assert check_periodicity(2, 2, range(-2, 3), k=2, cutoff=20).passed
    assert check_periodicity(1, 3, range(-2, 3), k=3, cutoff=20).passed
    report = check_periodicity(1, 3, [0], k=1, cutoff=10)
    assert report.verdict == "NoClaim"
    # p | n+1 makes every step periodic
    assert check_periodicity(1, 2, range(-2, 3), k=1, cutoff=16).passed


@pytest.mark.parametrize(
    "components,cutoff,verdict",
    [
        ([0, 1], 0, "NoClaim"),
        ([0, 1], 2, "NoClaim"),
        ([0, 1], 3, "Pass"),
        # only even components at p = 2: the first differential is later
        ([0], 5, "NoClaim"),
        ([0], 6, "Pass"),
    ],
)
def test_periodicity_noclaim_below_first_differential(components, cutoff, verdict):
    report = check_periodicity(2, 2, components, k=2, cutoff=cutoff)
    assert report.verdict == verdict
    if verdict == "NoClaim":
        assert report.witness == {"visible_from": 3 if 1 in components else 6}


def test_periodicity_witness_counts_pairs():
    report = check_periodicity(2, 2, [-1, 0, 1], k=2, cutoff=16)
    assert report.witness == {"pairs": 3}


# -- dichotomy ----------------------------------------------------------------------


def test_dichotomy_rational_assignment():
    report = check_dichotomy(1, "q", range(-3, 4), cutoff=16)
    assert report.passed
    assert report.witness == {k: (0 if k == 0 else 1) for k in range(-3, 4)}


def test_dichotomy_mod2_assignment_is_parity():
    report = check_dichotomy(2, 2, range(-3, 4), cutoff=16)
    assert report.passed
    assert report.witness == {k: k % 2 for k in range(-3, 4)}


def test_dichotomy_mod3_assignment():
    report = check_dichotomy(1, 3, range(-3, 4), cutoff=16)
    assert report.passed
    assert report.witness == {k: (0 if k % 3 == 0 else 1) for k in range(-3, 4)}


@pytest.mark.parametrize(
    "field,cutoff,verdict",
    [(GF2, 0, "NoClaim"), (GF2, 2, "NoClaim"), (GF2, 3, "Pass"),
     (RATIONALS, 2, "NoClaim"), (RATIONALS, 3, "Pass")],
)
def test_dichotomy_noclaim_below_first_differential(field, cutoff, verdict):
    report = check_dichotomy(2, field, [0, 1, 2], cutoff=cutoff)
    assert report.verdict == verdict
    if verdict == "NoClaim":
        assert report.witness == {"visible_from": 3}
    else:
        # the window already tells components 0 and 1 apart
        assert report.witness[1] == 1


def test_dichotomy_collapsed_field_all_zero():
    report = check_dichotomy(2, F3, range(-3, 4), cutoff=16)
    assert report.passed
    assert set(report.witness.values()) == {0}


# -- unit ---------------------------------------------------------------------------


def test_unit_check_passes():
    for n, p, k in [(2, 3, 1), (2, 2, 2), (1, 2, 1)]:
        report = unit_check(n, p, k=k, cutoff=16)
        assert report.passed, str(report)
        assert report.witness == {"classes": [f"iota^{k}", f"iota^-{k}", "1"]}


def test_unit_check_noclaim_and_validation():
    assert unit_check(2, 2, k=1, cutoff=12).verdict == "NoClaim"
    with pytest.raises(ValueError):
        unit_check(2, 2, k=0, cutoff=12)
    with pytest.raises(ValueError):
        unit_check(2, 2, k=-2, cutoff=12)


def test_unit_check_needs_a_cutoff_of_2n_only():
    # d: 1 -> 0 needs a complete basis through ordinary degree 2n + 1 only
    claimed = 0
    for n in range(1, 5):
        for p in (2, 3, 5, 7):
            for k in range(1, 8):
                if (k * (n + 1)) % p:
                    continue
                claimed += 1
                tight = unit_check(n, p, k=k, cutoff=2 * n)
                wide = unit_check(n, p, k=k, cutoff=40)
                assert (tight.verdict, tight.witness) == (wide.verdict, wide.witness)
                with pytest.raises(CutoffTooTight):
                    unit_check(n, p, k=k, cutoff=2 * n - 1)
    assert claimed == 47


def test_unit_check_fails_on_boundaries(monkeypatch):
    # a page over F3 where d(x) = 1, so every iota^w = +-d(iota^w x) bounds
    alg = GradedAlgebra(F3, [("iota", 0, 1, "laurent"), ("x", 1, 0, "exterior")])
    page = DgaPage(alg, Derivation(alg, {"x": alg.one()}))
    monkeypatch.setattr(analysis, "_page", lambda *args: page)
    report = unit_check(2, 3, k=1, cutoff=16)
    assert report.failed
    assert report.witness == [
        "iota^k is a boundary", "iota^-k is a boundary", "1 is a boundary",
    ]


def test_unit_check_passes_where_d_in_misses_the_classes(monkeypatch):
    # d(x) = t with t^2 = 0: d into degree 0 has rank 1 at every weight,
    # spanned by iota^(w-1) t, so deleting the row of iota^w leaves that rank
    alg = GradedAlgebra(F3, [
        ("iota", 0, 1, "laurent"),
        ("t", 0, 1, "truncated", 1),
        ("x", 1, 1, "exterior"),
    ])
    page = DgaPage(alg, Derivation(alg, {"x": alg.gen("t")}))
    monkeypatch.setattr(analysis, "_page", lambda *args: page)
    assert unit_check(2, 3, k=1, cutoff=16).passed


# -- counting oracle ------------------------------------------------------------------

FIELDS = {0: RATIONALS, 2: GF2, 3: F3, 5: Field(5), 7: Field(7)}


def test_mod2_oracle_spot_values():
    col = betti_oracle(SpaceSpec(LOOP, 2, GF2), [0, 1], 30).column
    # weight-1 row for n = 2, ordinary degrees 0..11
    assert [col(1).get(d, 0) for d in range(12)] == [1, 0, 1, 0, 0, 1, 1, 2, 1, 1, 0, 1]
    # weight-0 row
    assert [col(0).get(d, 0) for d in range(12)] == [1, 0, 1, 1, 1, 1, 0, 1, 1, 2, 2, 2]


def test_mod2_oracle_connected_components():
    for n in (2, 4):
        table = betti_oracle(SpaceSpec(LOOP, n, GF2), (-5, -1, 0, 2, 9), 30)
        assert all(table.column(k)[0] == 1 for k in (-5, -1, 0, 2, 9))
    # so the engine's table has every requested component, even at cutoff 0
    for variant, comps in ((LOOP, (-5, -1, 0, 2, 9)), (HOL, (0, 2, 9))):
        for field in (RATIONALS, GF2, F3):
            for n in (1, 2, 3):
                table = betti_table(SpaceSpec(variant, n, field), comps, 0)
                assert table.entries == {(k, 0): 1 for k in comps}


def test_oracle_validation():
    with pytest.raises(ValueError):
        betti_oracle(SpaceSpec(HOL, 2, GF2), [-1], 10)
    with pytest.raises(ValueError):
        betti_oracle(SpaceSpec(LOOP, 0, GF2), [0], 10)
    with pytest.raises(ValueError):
        betti_oracle(SpaceSpec("disk", 1, GF2), [0], 10)
    table = betti_oracle(SpaceSpec(LOOP, 1, F3), [0, 1], 12)
    assert table.grading == "ordinary" and table.cutoff == 12
    assert all(0 <= d <= 12 for _, d in table.entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [0, 2, 3, 5])
@pytest.mark.parametrize("variant", [LOOP, HOL])
def test_oracle_equals_engine(variant, p, n):
    spec = SpaceSpec(variant, n, FIELDS[p])
    comps = range(-3, 4) if variant == LOOP else range(0, 4)
    assert betti_oracle(spec, comps, 24).entries == betti_table(spec, comps, 24).entries


@given(
    st.sampled_from([LOOP, HOL]),
    st.integers(1, 4),
    st.sampled_from(sorted(FIELDS)),
    st.integers(-6, 6),
    st.integers(0, 3),
    st.integers(0, 20),
)
@settings(max_examples=100, deadline=None)
def test_oracle_equals_engine_random(variant, n, p, lo, width, cutoff):
    if variant == HOL:
        lo = abs(lo)
    spec = SpaceSpec(variant, n, FIELDS[p])
    comps = range(lo, lo + width + 1)
    oracle = betti_oracle(spec, comps, cutoff).entries
    assert oracle == betti_table(spec, comps, cutoff).entries


def test_mod2_oracle_check_against_engine():
    report = check_oracle(2, GF2, range(-2, 3), cutoff=14)
    assert report.passed
    # five loop and three holomorphic components, degrees 0..14
    assert report.witness == {"cells": 8 * 15}
    assert check_oracle(1, GF2, [0], cutoff=10).passed


@pytest.mark.parametrize(
    "n,field,comps,cutoff",
    [
        (2, GF2, range(-4, 5), 100),
        (1, F3, range(-3, 4), 100),
        (3, RATIONALS, range(-120, 121), 480),
        (5, F3, range(-2, 3), 120),
        (3, F7, range(-3, 4), 150),
        (1, F3, range(-6, 7), 200),
    ],
    ids=["n2-f2", "n1-f3", "n3-q-480", "n5-f3-120", "n3-f7-150", "n1-f3-200"],
)
def test_oracle_check_at_depth(n, field, comps, cutoff):
    assert check_oracle(n, field, comps, cutoff).passed


def test_mod2_oracle_check_larger_n():
    report = check_oracle(4, GF2, [0, 1], cutoff=12)
    assert report.passed


def test_oracle_check_reports_differing_cells(monkeypatch):
    real = analysis.betti_oracle

    def off_by_one(space, components, cutoff):
        table = real(space, components, cutoff)
        if space.variant == HOL:
            table.entries[(1, 3)] = table.entries.get((1, 3), 0) + 1
        return table

    monkeypatch.setattr(analysis, "betti_oracle", off_by_one)
    report = check_oracle(2, "q", [-1, 1], cutoff=6)
    assert report.failed
    assert report.witness == [
        {"variant": HOL, "k": 1, "degree": 3, "engine": 0, "oracle": 1}
    ]
