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

Checks. CHECKS is the table of the structural checks. Each is called as
(n, field, components, cutoff), `unit_check` without components, plus a
keyword-only k where its row reads one; `field` is a Field, "q", "f<p>" or
an int. A check returns a VerificationReport whose verdict is "Pass",
"Fail", or "NoClaim": the hypothesis of the statement under test is not
met by the arguments, so nothing is claimed either way. `_verify`, the one
opening of every check, makes its refusals before any work and says
NoClaim, with witness {"compared": 0}, where nothing is compared.
"""

from __future__ import annotations

from typing import Iterable, Union

from ._record import Record, _fill
from .dga import DgaPage, _passes, homology_dimensions
# differential_matrix and rank_of_columns have no caller here; the bench
# tracer wraps them by name
from .dga import differential_matrix
from .errors import CompositeCharacteristic, InvalidGrading, InvalidStep, InvalidVerdict
from .linalg import rank_of_columns
from .scalars import Field, is_int, make_field
from .spaces import DEFAULT_CUTOFF, HOL, LOOP, _check_args, _check_components, _check_n
from .spaces import e2_page, validate_cutoff

GRADINGS = ("ordinary", "regraded")

_PAGE_CACHE: dict = {}

FieldSpec = Union[Field, str, int]


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


def _grading_shift(grading: str, n: int) -> int:
    """How far a grading's degrees sit above the internal degree; the one
    refusal of an unknown grading."""
    if grading not in GRADINGS:
        raise InvalidGrading(f"unknown grading {grading!r}")
    return 2 * n if grading == "ordinary" else 0


class SpaceSpec(Record):
    """Which space: variant ("loop" or "hol"), target dimension n, field.
    Checked on construction, so every consumer may rely on them."""

    __slots__ = _fields = ("variant", "n", "field")

    def __init__(self, variant: str, n: int, field: Field):
        _check_args(n, field, variant)
        _fill(self, variant, n, field)


class BettiTable(Record):
    """Homology dimensions by (component, degree); zeros are omitted. An
    unknown grading and a bad cutoff are refused on construction."""

    __slots__ = _fields = ("space", "grading", "cutoff", "entries")

    def __init__(self, space: SpaceSpec, grading: str, cutoff: int, entries: dict):
        _grading_shift(grading, space.n)
        validate_cutoff(cutoff)
        _fill(self, space, grading, cutoff, entries)

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
    entries = {(w, d + shift): prof.betti for (d, w), prof in profiles.items() if prof.betti}
    return BettiTable(space, grading, cutoff, entries)


class PoincareSeries(Record):
    """Coefficients of the Poincare series of one component. A component
    that is not an int, or a negative holomorphic one, an unknown grading
    and a bad cutoff are refused on construction."""

    __slots__ = _fields = ("space", "component", "grading", "cutoff", "coefficients")

    def __init__(
        self, space: SpaceSpec, component: int, grading: str, cutoff: int, coefficients: dict
    ):
        _check_components(space.variant, [component])
        _grading_shift(grading, space.n)
        validate_cutoff(cutoff)
        _fill(self, space, component, grading, cutoff, coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d in sorted(self.coefficients):
            c = self.coefficients[d]
            head = "" if c == 1 and d != 0 else str(c)
            parts.append(head + ("" if d == 0 else "t" if d == 1 else f"t^{d}"))
        return " + ".join(parts)


def poincare_series(
    space: SpaceSpec,
    component: int,
    cutoff: int = DEFAULT_CUTOFF,
    grading: str = "ordinary",
) -> PoincareSeries:
    table = betti_table(space, [component], cutoff, grading)
    return PoincareSeries(space, component, grading, cutoff, table.column(component))


VERDICTS = ("Pass", "Fail", "NoClaim")


class VerificationReport(Record):
    """The outcome of one check; a verdict outside VERDICTS is refused on
    construction (InvalidVerdict)."""

    __slots__ = _fields = ("check", "params", "verdict", "witness")

    def __init__(self, check: str, params: dict, verdict: str, witness: object = None):
        if verdict not in VERDICTS:
            raise InvalidVerdict(f"verdict must be one of {VERDICTS}, got {verdict!r}")
        _fill(self, check, params, verdict, witness)

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


# The checks in the order `verify --check all` runs them: (name, function
# here, reads components, reads a keyword-only k, needs a prime field).
CHECKS = (
    ("collapse", "check_collapse", True, False, True),
    ("periodicity", "check_periodicity", True, True, True),
    ("dichotomy", "check_dichotomy", True, False, False),
    ("unit", "unit_check", False, True, True),
    ("oracle", "check_oracle", True, False, False),
)


def _verify(name, body, n, field, cutoff, components=None, k=None) -> VerificationReport:
    """The report of the check `name`, by its row of CHECKS: the refusals
    before any work (cutoff, field, Q where a prime is needed, n, k,
    components), then NoClaim where nothing is compared (no components, or
    k = 0), else the (verdict, witness) of `body(n, field, components,
    cutoff, k)`. The params are what the row reads, the field as p where
    the row needs a prime."""
    _, _, reads_components, reads_k, prime = next(row for row in CHECKS if row[0] == name)
    validate_cutoff(cutoff)
    field = field if isinstance(field, Field) else make_field(field)
    if prime and field.is_rational:
        raise CompositeCharacteristic("this check needs a prime field, got Q")
    _check_n(n)
    params = {"n": n, "p": field.characteristic} if prime else {"n": n, "field": field}
    if reads_k:
        if not is_int(k):
            raise InvalidStep(f"k must be an integer, got {k!r}")
        params["k"] = k
    if reads_components:
        components = params["components"] = _check_components(LOOP, components)
    params["cutoff"] = cutoff
    if reads_components and (not components or k == 0):
        return VerificationReport(name, params, "NoClaim", {"compared": 0})
    return VerificationReport(name, params, *body(n, field, components, cutoff, k))


def collapse_predicted(n: int, p: int, k: int, variant: str) -> bool:
    """Whether the page of component k is predicted to have no nonzero
    differential mod p.

    Collapse holds iff p divides n+1, or p is odd and divides k. The
    degree-0 holomorphic component is constants only, where the
    differential has nothing to act on, so it collapses unconditionally.
    """
    return (n + 1) % p == 0 or p % 2 == 1 and k % p == 0 or variant == HOL and k == 0


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
    n: int, field: FieldSpec, components: Iterable[int], cutoff: int = DEFAULT_CUTOFF
) -> VerificationReport:
    """Compare observed degeneration against the predicted collapse rule,
    for both variants, component by component.

    A component's page collapses when dim E-infinity equals dim E2 at
    every spot through the cutoff, i.e. all differential ranks vanish.
    A predicted non-collapse that the cutoff is too low to show makes the
    verdict NoClaim (unless another component Fails), with those
    components as the witness.
    """
    return _verify("collapse", _collapse, n, field, cutoff, components)


def _collapse(n, field, comps, cutoff, _) -> tuple:
    p = field.characteristic
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
        return "Fail", mismatches
    if hidden:
        return "NoClaim", hidden
    return "Pass", cells


def check_periodicity(
    n: int, field: FieldSpec, components: Iterable[int], cutoff: int = DEFAULT_CUTOFF, *, k: int
) -> VerificationReport:
    """Components i and i+k have equal homology after regrading, whenever
    p divides k(n+1); multiplication by iota^k is the underlying map.

    NoClaim when p does not divide k(n+1), or when the cutoff is below
    every compared component's first differential (witness: the first
    cutoff at which one can show), since then no two components differ.
    """
    return _verify("periodicity", _periodicity, n, field, cutoff, components, k)


def _periodicity(n, field, comps, cutoff, k) -> tuple:
    p = field.characteristic
    if (k * (n + 1)) % p != 0:
        return "NoClaim", None
    needed = sorted(set(comps) | {i + k for i in comps})
    visible = _noncollapse_visible_from(n, p, needed)
    if cutoff < visible:
        return "NoClaim", {"visible_from": visible}
    spec = SpaceSpec(LOOP, n, field)
    columns = betti_table(spec, needed, cutoff, grading="regraded").columns()
    for i in comps:
        a, b = columns.get(i, {}), columns.get(i + k, {})
        if a != b:
            return "Fail", {"i": i, "difference": sorted(set(a.items()) ^ set(b.items()))}
    return "Pass", {"pairs": len(comps)}


def check_dichotomy(
    n: int, field: FieldSpec, components: Iterable[int], cutoff: int = DEFAULT_CUTOFF
) -> VerificationReport:
    """Every component's homology matches component 0's or component 1's
    (after regrading).

    NoClaim, as in `check_periodicity`, when the cutoff is below every
    compared component's first differential.
    """
    return _verify("dichotomy", _dichotomy, n, field, cutoff, components)


def _dichotomy(n, field, comps, cutoff, _) -> tuple:
    needed = sorted(set(comps) | {0, 1})
    visible = _noncollapse_visible_from(n, field.characteristic, needed)
    if cutoff < visible:
        return "NoClaim", {"visible_from": visible}
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
            return "Fail", {"component": i}
    return "Pass", assignment


def unit_check(
    n: int, field: FieldSpec, cutoff: int = DEFAULT_CUTOFF, *, k: int
) -> VerificationReport:
    """When p divides k(n+1), iota^k and iota^-k are permanent cycles whose
    homology classes multiply to the class of 1: a unit and its inverse.

    Verified on the loop page: d kills both powers, neither is a boundary,
    their product is exactly the unit monomial, and the unit is not a
    boundary either.
    """
    return _verify("unit", _unit, n, field, cutoff, k=k)


def _unit(n, field, _, cutoff, k) -> tuple:
    if k < 1:
        raise InvalidStep(f"k must be a positive integer, got {k!r}")
    if (k * (n + 1)) % field.characteristic != 0:
        return "NoClaim", None
    page = _page(n, field, LOOP, cutoff)
    alg, d = page.algebra, page.differential
    pos, neg = alg.monomial({"iota": k}), alg.monomial({"iota": -k})
    # a monomial bounds iff its line meets the boundaries; weights k, -k, 0 hold one each
    classes = {pos.exps, neg.exps, alg.unit_monomial.exps}
    passes = _passes(page, [0], [k, -k, 0])
    bounds = {w for w, _, meet in passes if meet(0, classes.__contains__)}
    product = alg.monomial_element(pos) * alg.monomial_element(neg)
    found = (
        (d(alg.monomial_element(pos)), "d(iota^k) != 0"),
        (d(alg.monomial_element(neg)), "d(iota^-k) != 0"),
        (k in bounds, "iota^k is a boundary"),
        (-k in bounds, "iota^-k is a boundary"),
        (product != alg.one(), "iota^k * iota^-k != 1"),
        (0 in bounds, "1 is a boundary"),
    )
    problems = [problem for failed, problem in found if failed]
    if problems:
        return "Fail", problems
    return "Pass", {"classes": [f"iota^{k}", f"iota^-{k}", "1"]}


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
    n: int, field: FieldSpec, components: Iterable[int], cutoff: int = DEFAULT_CUTOFF
) -> VerificationReport:
    """Engine Betti numbers agree with the count of `betti_oracle` at every
    ordinary degree through the cutoff, for the loop components and the
    nonnegative holomorphic ones."""
    return _verify("oracle", _oracle, n, field, cutoff, components)


def _oracle(n, field, comps, cutoff, _) -> tuple:
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
        return "Fail", mismatches
    return "Pass", {"cells": checked}
