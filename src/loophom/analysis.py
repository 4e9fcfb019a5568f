"""Betti tables, Poincare series, and checks of the structural theorems.

Gradings. The engine computes in the internal grading of the differential
algebra, where the projective class c sits in degree -2 and a component's
homology occupies degrees -2n and up. Reported tables use one of:

* "ordinary": internal degree + 2n, the honest homology degree of the
  mapping-space component (always nonnegative);
* "regraded": the internal degree itself, which is the grading in which
  different components become comparable.

Cutoffs are always stated in ordinary degree. `_page` builds each page
one degree further so the top requested degree is still exact.

Each check_* function returns a VerificationReport whose verdict is
"Pass", "Fail", or "NoClaim"; NoClaim means the hypothesis of the
statement under test is not met by the arguments, so nothing is claimed
either way. Arguments that compare nothing (no components, or a
periodicity step of 0) give NoClaim with witness {"compared": 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .dga import DgaPage, _passes, homology_dimensions
# differential_matrix and rank_of_columns have no caller here; the bench
# tracer wraps them by name
from .dga import differential_matrix
from .errors import CompositeCharacteristic, InvalidCharacteristic, InvalidGrading
from .errors import InvalidStep
from .linalg import rank_of_columns
from .scalars import Field, is_int, make_field
from .spaces import DEFAULT_CUTOFF, HOL, LOOP, _check_args, _check_components
from .spaces import e2_page, validate_cutoff

GRADINGS = ("ordinary", "regraded")

_PAGE_CACHE: dict = {}


def _page(n: int, field: Field, variant: str, cutoff: int) -> DgaPage:
    """The cached page for a request through ordinary degree `cutoff`,
    built one degree further so d into the top degree is exact."""
    key = (n, field.characteristic, variant, cutoff)
    if key not in _PAGE_CACHE:
        _PAGE_CACHE[key] = e2_page(n, field, variant, cutoff + 1)
    return _PAGE_CACHE[key]


def _profiles(n: int, field: Field, variant: str, cutoff: int, components: list) -> dict:
    """RankProfiles of the components at internal degrees -2n..cutoff-2n,
    clipped to the page's degree reach."""
    page = _page(n, field, variant, cutoff)
    low, high = page.algebra.degree_reach()
    window = range(max(-2 * n, low), min(cutoff - 2 * n, high) + 1)
    return homology_dimensions(page, window, components)


def _prime_field(p: int) -> Field:
    """F_p for the checks whose statements only hold at a prime."""
    if not is_int(p):
        raise InvalidCharacteristic(f"this check needs a prime p as an int, got {p!r}")
    if p == 0:
        raise CompositeCharacteristic("this check needs a prime field, got Q")
    return Field(p)


def _grading_shift(grading: str, n: int) -> int:
    """How far a grading's degrees sit above the internal degree; the one
    refusal of an unknown grading."""
    if grading not in GRADINGS:
        raise InvalidGrading(f"unknown grading {grading!r}")
    return 2 * n if grading == "ordinary" else 0


def _check_inputs(n: int, field: Union[Field, str, int], cutoff: int) -> Field:
    """The refusals every check makes before any work; returns the field."""
    validate_cutoff(cutoff)
    field = field if isinstance(field, Field) else make_field(field)
    _check_args(n, field, LOOP)
    return field


@dataclass(frozen=True)
class SpaceSpec:
    """Which space: variant ("loop" or "hol"), target dimension n, field.
    Checked on construction, so every consumer may rely on them."""

    variant: str
    n: int
    field: Field

    def __post_init__(self):
        _check_args(self.n, self.field, self.variant)


@dataclass
class BettiTable:
    """Homology dimensions by (component, degree); zeros are omitted."""

    space: SpaceSpec
    grading: str
    cutoff: int
    entries: dict

    def column(self, component: int) -> dict:
        return self.columns().get(component, {})

    def columns(self) -> dict:
        """component -> {degree: dimension} for every component with an
        entry, grouped in one scan of the entries."""
        out: dict = {}
        for (k, d), v in self.entries.items():
            out.setdefault(k, {})[d] = v
        return out

    def components(self) -> list:
        return sorted({k for k, _ in self.entries})

    def to_grading(self, grading: str) -> "BettiTable":
        n = self.space.n
        shift = _grading_shift(grading, n) - _grading_shift(self.grading, n)
        if grading == self.grading:
            return self
        entries = {(k, d + shift): v for (k, d), v in self.entries.items()}
        return BettiTable(self.space, grading, self.cutoff, entries)

    def to_ordinary(self) -> "BettiTable":
        return self.to_grading("ordinary")

    def to_regraded(self) -> "BettiTable":
        return self.to_grading("regraded")


def betti_table(
    space: SpaceSpec,
    components: Iterable[int],
    cutoff: int = DEFAULT_CUTOFF,
    grading: str = "ordinary",
) -> BettiTable:
    """Homology dimensions of the chosen components through the cutoff."""
    validate_cutoff(cutoff)
    shift = _grading_shift(grading, space.n)
    comps = _check_components(space.variant, components)
    profiles = _profiles(space.n, space.field, space.variant, cutoff, comps)
    entries = {}
    for (d, w), prof in profiles.items():
        if prof.betti:
            entries[(w, d + shift)] = prof.betti
    return BettiTable(space, grading, cutoff, entries)


@dataclass
class PoincareSeries:
    """Coefficients of the Poincare series of one component."""

    space: SpaceSpec
    component: int
    grading: str
    cutoff: int
    coefficients: dict

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d in sorted(self.coefficients):
            c = self.coefficients[d]
            head = "" if c == 1 and d != 0 else str(c)
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{head}t" if head else "t")
            else:
                parts.append(f"{head}t^{d}" if head else f"t^{d}")
        return " + ".join(parts)


def poincare_series(
    space: SpaceSpec,
    component: int,
    cutoff: int = DEFAULT_CUTOFF,
    grading: str = "ordinary",
) -> PoincareSeries:
    table = betti_table(space, [component], cutoff, grading)
    return PoincareSeries(space, component, grading, cutoff, table.column(component))


@dataclass
class VerificationReport:
    check: str
    params: dict
    verdict: str  # "Pass" | "Fail" | "NoClaim"
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    @property
    def failed(self) -> bool:
        return self.verdict == "Fail"

    def __str__(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        out = f"{self.check} [{ps}]: {self.verdict}"
        if self.witness is not None and self.verdict != "Pass":
            out += f" witness={self.witness}"
        return out


def collapse_predicted(n: int, p: int, k: int, variant: str) -> bool:
    """Whether the page of component k is predicted to have no nonzero
    differential mod p.

    Collapse holds iff p divides n+1, or p is odd and divides k. The
    degree-0 holomorphic component is constants only, where the
    differential has nothing to act on, so it collapses unconditionally.
    """
    if (n + 1) % p == 0:
        return True
    if p % 2 == 1 and k % p == 0:
        return True
    if variant == HOL and k == 0:
        return True
    return False


def _noncollapse_visible_from(n: int, p: int, components: Iterable[int]) -> int:
    """Smallest cutoff at which a predicted non-collapse of any of the
    components can show; p = 0 for the rationals.

    The first monomial of component k with a nonzero differential is
    iota^k, in ordinary degree 2n; at p = 2 and even k its coefficient
    k(n+1) vanishes, and the first one is iota^(k-1) u, in degree 4n - 1.
    Homology is computed one degree above the cutoff, so the differential
    shows one degree lower than its source.
    """
    if p == 2 and all(k % 2 == 0 for k in components):
        return 4 * n - 2
    return 2 * n - 1


def check_collapse(
    n: int, p: int, components: Iterable[int], cutoff: int = DEFAULT_CUTOFF
) -> VerificationReport:
    """Compare observed degeneration against the predicted collapse rule,
    for both variants, component by component.

    A component's page collapses when dim E-infinity equals dim E2 at
    every spot through the cutoff, i.e. all differential ranks vanish.
    A predicted non-collapse that the cutoff is too low to show makes the
    verdict NoClaim (unless another component Fails), with those
    components as the witness.
    """
    field = _check_inputs(n, _prime_field(p), cutoff)
    comps = _check_components(LOOP, components)
    params = {"n": n, "p": p, "components": comps, "cutoff": cutoff}
    if not comps:
        return VerificationReport("collapse", params, "NoClaim", {"compared": 0})
    cells = {}
    mismatches = []
    hidden = []
    for variant in (LOOP, HOL):
        want = [k for k in comps if variant == LOOP or k >= 0]
        if not want:
            continue
        profiles = _profiles(n, field, variant, cutoff, want)
        moving = {w for (d, w), prof in profiles.items() if prof.betti != prof.dim}
        for k in want:
            observed = k not in moving
            predicted = collapse_predicted(n, p, k, variant)
            cells[(variant, k)] = "collapse" if observed else "non-collapse"
            if not predicted and cutoff < _noncollapse_visible_from(n, p, [k]):
                hidden.append({"variant": variant, "k": k})
            elif observed != predicted:
                mismatches.append(
                    {"variant": variant, "k": k, "observed": observed, "predicted": predicted}
                )
    if mismatches:
        return VerificationReport("collapse", params, "Fail", mismatches)
    if hidden:
        return VerificationReport("collapse", params, "NoClaim", hidden)
    return VerificationReport("collapse", params, "Pass", cells)


def check_periodicity(
    n: int, p: int, k: int, component_range: Iterable[int], cutoff: int = DEFAULT_CUTOFF
) -> VerificationReport:
    """Components i and i+k have equal homology after regrading, whenever
    p divides k(n+1); multiplication by iota^k is the underlying map.

    NoClaim when p does not divide k(n+1), or when the cutoff is below
    every compared component's first differential (witness: the first
    cutoff at which one can show), since then no two components differ.
    """
    field = _check_inputs(n, _prime_field(p), cutoff)
    if not is_int(k):
        raise InvalidStep(f"k must be an integer, got {k!r}")
    comps = _check_components(LOOP, component_range)
    params = {"n": n, "p": p, "k": k, "components": comps, "cutoff": cutoff}
    if not comps or k == 0:
        return VerificationReport("periodicity", params, "NoClaim", {"compared": 0})
    if (k * (n + 1)) % p != 0:
        return VerificationReport("periodicity", params, "NoClaim")
    needed = sorted(set(comps) | {i + k for i in comps})
    visible = _noncollapse_visible_from(n, p, needed)
    if cutoff < visible:
        return VerificationReport(
            "periodicity", params, "NoClaim", {"visible_from": visible}
        )
    spec = SpaceSpec(LOOP, n, field)
    columns = betti_table(spec, needed, cutoff, grading="regraded").columns()
    for i in comps:
        a, b = columns.get(i, {}), columns.get(i + k, {})
        if a != b:
            diff = sorted(set(a.items()) ^ set(b.items()))
            return VerificationReport(
                "periodicity", params, "Fail", {"i": i, "difference": diff}
            )
    return VerificationReport("periodicity", params, "Pass", {"pairs": len(comps)})


def check_dichotomy(
    n: int,
    field: Union[Field, str, int],
    component_range: Iterable[int],
    cutoff: int = DEFAULT_CUTOFF,
) -> VerificationReport:
    """Every component's homology matches component 0's or component 1's
    (after regrading).

    NoClaim, as in `check_periodicity`, when the cutoff is below every
    compared component's first differential.
    """
    field = _check_inputs(n, field, cutoff)
    comps = _check_components(LOOP, component_range)
    params = {"n": n, "field": field, "components": comps, "cutoff": cutoff}
    if not comps:
        return VerificationReport("dichotomy", params, "NoClaim", {"compared": 0})
    needed = sorted(set(comps) | {0, 1})
    visible = _noncollapse_visible_from(n, field.characteristic, needed)
    if cutoff < visible:
        return VerificationReport(
            "dichotomy", params, "NoClaim", {"visible_from": visible}
        )
    spec = SpaceSpec(LOOP, n, field)
    columns = betti_table(spec, needed, cutoff, grading="regraded").columns()
    col0, col1 = columns.get(0, {}), columns.get(1, {})
    assignment = {}
    for i in comps:
        col = columns.get(i, {})
        if col == col0:
            assignment[i] = 0
        elif col == col1:
            assignment[i] = 1
        else:
            return VerificationReport("dichotomy", params, "Fail", {"component": i})
    return VerificationReport("dichotomy", params, "Pass", assignment)


def unit_check(n: int, p: int, k: int, cutoff: int = DEFAULT_CUTOFF) -> VerificationReport:
    """When p divides k(n+1), iota^k and iota^-k are permanent cycles whose
    homology classes multiply to the class of 1: a unit and its inverse.

    Verified on the loop page: d kills both powers, neither is a boundary,
    their product is exactly the unit monomial, and the unit is not a
    boundary either.
    """
    field = _check_inputs(n, _prime_field(p), cutoff)
    params = {"n": n, "p": p, "k": k, "cutoff": cutoff}
    if not is_int(k) or k < 1:
        raise InvalidStep(f"k must be a positive integer, got {k!r}")
    if (k * (n + 1)) % p != 0:
        return VerificationReport("unit", params, "NoClaim")
    page = _page(n, field, LOOP, cutoff)
    alg, d = page.algebra, page.differential
    pos, neg = alg.monomial({"iota": k}), alg.monomial({"iota": -k})
    # a monomial bounds iff its line meets the boundaries; weights k, -k, 0 hold one each
    classes = {pos.exps, neg.exps, alg.unit_monomial.exps}
    passes = _passes(page, [0], [k, -k, 0])
    bounds = {w for w, _, meet in passes if meet(0, classes.__contains__)}
    problems = []
    if d(alg.monomial_element(pos)):
        problems.append("d(iota^k) != 0")
    if d(alg.monomial_element(neg)):
        problems.append("d(iota^-k) != 0")
    if k in bounds:
        problems.append("iota^k is a boundary")
    if -k in bounds:
        problems.append("iota^-k is a boundary")
    product = alg.monomial_element(pos) * alg.monomial_element(neg)
    if product != alg.one():
        problems.append("iota^k * iota^-k != 1")
    if 0 in bounds:
        problems.append("1 is a boundary")
    if problems:
        return VerificationReport("unit", params, "Fail", problems)
    return VerificationReport(
        "unit", params, "Pass", {"classes": [f"iota^{k}", f"iota^-{k}", "1"]}
    )


def betti_oracle(
    space: SpaceSpec, components: Iterable[int], cutoff: int = DEFAULT_CUTOFF
) -> BettiTable:
    """Homology dimensions in the ordinary grading, by counting monomials
    with integers only: the route independent of `betti_table`.

    d sends iota^a u^b R c^j (R a monomial in the operation family) to
    a(n+1) iota^(a-1) u^(b+1) R c^(j+n), and distinct monomials go to
    distinct monomials. So the rank of d out of a spot is the number of
    its monomials with j = 0, u^(b+1) != 0 and a(n+1) != 0 in the field;
    the holomorphic variant only has a >= 0. The operation family is
    rebuilt here from its degree formulas.
    """
    validate_cutoff(cutoff)
    n, p = space.n, space.field.characteristic
    comps = _check_components(space.variant, components)
    # (degree, weight, exterior) of u, then of the operation family; a
    # monomial of ordinary degree <= cutoff has Pontrjagin degree <= cutoff
    gens = [(2 * n - 1, 1, p != 2)]
    i = 1
    while p and 2 * p**i * n - 2 <= cutoff:
        if p == 2:
            gens.append((2 ** (i + 1) * n - 1, 2**i, False))
        else:
            gens += [(2 * p**i * n - 1, p**i, True), (2 * p**i * n - 2, p**i, False)]
        i += 1
    # (Pontrjagin degree, weight, exponent of u) -> number of monomials u^b R
    counts = {(0, 0, 0): 1}
    for index, (degree, weight, exterior) in enumerate(gens):
        grown: dict = {}
        for (pd, w, b), c in counts.items():
            top = (cutoff - pd) // degree
            for e in range(min(top, 1) + 1 if exterior else top + 1):
                key = (pd + e * degree, w + e * weight, b if index else e)
                grown[key] = grown.get(key, 0) + c
        counts = grown
    entries = {}
    for k in comps:
        dims: dict = {}
        sources: dict = {}
        for (pd, w, b), c in counts.items():
            if space.variant == HOL and w > k:
                continue
            for j in range(n + 1):
                dims[pd - 2 * j] = dims.get(pd - 2 * j, 0) + c
            coefficient = (k - w) * (n + 1)
            if (p == 2 or b == 0) and (coefficient % p if p else coefficient):
                sources[pd] = sources.get(pd, 0) + c
        for d in range(-2 * n, cutoff - 2 * n + 1):
            betti = dims.get(d, 0) - sources.get(d, 0) - sources.get(d + 1, 0)
            if betti:
                entries[(k, d + 2 * n)] = betti
    return BettiTable(space, "ordinary", cutoff, entries)


def check_oracle(
    n: int,
    field: Union[Field, str, int],
    components: Iterable[int],
    cutoff: int = DEFAULT_CUTOFF,
) -> VerificationReport:
    """Engine Betti numbers agree with the count of `betti_oracle` at every
    ordinary degree through the cutoff, for the loop components and the
    nonnegative holomorphic ones."""
    field = _check_inputs(n, field, cutoff)
    comps = _check_components(LOOP, components)
    params = {"n": n, "field": field, "components": comps, "cutoff": cutoff}
    if not comps:
        return VerificationReport("oracle", params, "NoClaim", {"compared": 0})
    mismatches = []
    checked = 0
    for variant in (LOOP, HOL):
        want = [k for k in comps if variant == LOOP or k >= 0]
        if not want:
            continue
        spec = SpaceSpec(variant, n, field)
        engine = betti_table(spec, want, cutoff).entries
        oracle = betti_oracle(spec, want, cutoff).entries
        checked += len(want) * (cutoff + 1)
        for k, degree in sorted(engine.keys() | oracle.keys()):
            got, count = engine.get((k, degree), 0), oracle.get((k, degree), 0)
            if got != count:
                mismatches.append(
                    {"variant": variant, "k": k, "degree": degree,
                     "engine": got, "oracle": count}
                )
    if mismatches:
        return VerificationReport("oracle", params, "Fail", mismatches)
    return VerificationReport("oracle", params, "Pass", {"cells": checked})
