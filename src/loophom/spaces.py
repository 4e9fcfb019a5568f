"""Builders for the pages computing mapping-space homology.

The spaces in play are the components of the free mapping space of the
two-sphere into complex projective n-space, and of its subspace of
holomorphic (rational) maps. Components are indexed by the topological
degree k of a map, which the algebra sees as the weight grading.

The engine's model is a single differential bigraded algebra: the
Pontrjagin ring of the based double loop space (or of the space of based
rational maps, for the holomorphic variant) tensored with the cohomology
of projective space placed in negative even degrees. Writing iota for the
class of a degree-one component, u for the fundamental fiber class in
degree 2n - 1 and c for the hyperplane class in degree -2, the one
nonzero differential value is

    d(iota) = (n + 1) * u * c^n,

extended as a derivation. Homology of this complex gives the E-infinity
page; the degree reported to the user is the internal degree shifted up
by 2n (`analysis` handles the shift).

Pontrjagin ring generators over F_p come in an infinite family of
iterated homology operations applied to u. With y in degree d and weight
w the operation lands in degree p*d + (p - 1) and weight p*w; over an odd
prime the family also carries Bockstein partners one degree down. At p=2
this gives degrees 2^(i+1)*n - 1, at odd p degrees 2*p^i*n - 1 and
2*p^i*n - 2. Builders instantiate the family through a degree cutoff and
record the cutoff on the algebra so homology routines cannot silently
read past it.
"""

from __future__ import annotations

from ._record import Record, _fill, _set
from .dga import Derivation, DgaPage, InducedMapReport, _induced_ranks, _inclusion
# induced_map_on_homology has no caller here; the bench tracer wraps it by name
from .dga import induced_map_on_homology
from .errors import InvalidComponent, InvalidCutoff, InvalidDimension, InvalidVariant
from .errors import NegativeCutoff
from .graded_algebra import GradedAlgebra
from .scalars import Field, check_field, is_int

LOOP = "loop"
HOL = "hol"
VARIANTS = (LOOP, HOL)

DEFAULT_CUTOFF = 30


def _check_n(n: int) -> None:
    if not is_int(n) or n < 1:
        raise InvalidDimension(f"n must be a positive integer, got {n!r}")


def _check_args(n: int, field: Field, variant: str) -> None:
    _check_n(n)
    if variant not in VARIANTS:
        raise InvalidVariant(f"variant must be one of {VARIANTS}, got {variant!r}")
    check_field(field)


def _check_components(variant: str, components) -> list:
    """The components sorted without repeats, after refusing one that is
    not an int (a bool is not one) and a negative one of the holomorphic
    variant."""
    comps = list(components)
    for k in comps:
        if not is_int(k):
            raise InvalidComponent(f"a component must be an int, got {k!r}")
    if variant == HOL and any(k < 0 for k in comps):
        raise InvalidComponent("holomorphic components have nonnegative degree")
    return sorted(set(comps))


def validate_cutoff(cutoff: int) -> None:
    """Refuse a cutoff that is not a nonnegative int before any work."""
    if not is_int(cutoff):
        raise InvalidCutoff(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 0:
        raise NegativeCutoff(f"cutoff must be nonnegative, got {cutoff}")


def operation_degree(n: int, p: int, i: int) -> int:
    """Degree of the i-th iterated operation on u: index 0 is u itself.

    Follows the recursion deg Q(y) = p*deg(y) + (p-1) from deg u = 2n-1,
    which closes to 2*p^i*n - 1.
    """
    return 2 * p**i * n - 1


def generator_schedule(n: int, field: Field, variant: str, cutoff: int) -> list:
    """Generator declarations (name, degree, weight, kind) for the
    Pontrjagin ring, in canonical order: iota, u, then the operation
    family ascending, Bocksteins interleaved at odd primes.

    Q_i u is kept iff its degree is at most the cutoff, with the kind of
    u; at an odd prime its polynomial Bockstein partner bQ_i u sits one
    degree lower. Over the rationals the ring is just iota and u. A
    negative cutoff raises NegativeCutoff, so no page builder accepts one.
    """
    _check_args(n, field, variant)
    validate_cutoff(cutoff)
    p = field.characteristic
    iota_kind = "laurent" if variant == LOOP else "polynomial"
    u_kind = "polynomial" if p == 2 else "exterior"
    rows = [("iota", 0, 1, iota_kind), ("u", 2 * n - 1, 1, u_kind)]
    bockstein = p % 2  # odd primes only
    i = 1
    while p and operation_degree(n, p, i) - bockstein <= cutoff:
        dq = operation_degree(n, p, i)
        if dq <= cutoff:
            rows.append((f"Q{i}u", dq, p**i, u_kind))
        if bockstein:
            rows.append((f"bQ{i}u", dq - 1, p**i, "polynomial"))
        i += 1
    return rows


def pontrjagin_algebra(
    n: int, field: Field, variant: str, cutoff: int = DEFAULT_CUTOFF
) -> GradedAlgebra:
    """The Pontrjagin ring of the based mapping space, weight-graded by
    the degree of maps. The loop variant has iota invertible (laurent);
    the holomorphic variant only its nonnegative powers."""
    horizon = cutoff if field.characteristic else None
    return GradedAlgebra(field, generator_schedule(n, field, variant, cutoff), horizon)


def e2_page(n: int, field: Field, variant: str, cutoff: int = DEFAULT_CUTOFF) -> DgaPage:
    """The starting page: Pontrjagin ring tensored with projective
    cohomology, differential d(iota) = (n+1) u c^n.

    The cutoff bounds Pontrjagin generator degrees. Because c can lower a
    monomial's degree by at most 2n, bases are complete through internal
    degree cutoff - 2n, and the algebra records that horizon (None over
    the rationals, where the generator list is not truncated).
    """
    rows = generator_schedule(n, field, variant, cutoff) + [("c", -2, 0, "truncated", n)]
    alg = GradedAlgebra(field, rows, cutoff - 2 * n if field.characteristic else None)
    image = alg.monomial_element(alg.monomial({"u": 1, "c": n}), n + 1)
    differential = Derivation(alg, {"iota": image})
    return DgaPage(alg, differential)


class HolLoopInclusion(Record):
    """The holomorphic page sitting inside the loop page, monomial by
    monomial; verified to commute with the differentials on creation,
    once. `in_sub`, the predicate that check gives (see
    `dga._inclusion`), is kept on construction; it is not a field."""

    _fields = ("sub_page", "big_page")
    __slots__ = _fields + ("in_sub",)

    def __init__(self, sub_page: DgaPage, big_page: DgaPage):
        in_sub = _inclusion(sub_page, big_page)
        _fill(self, sub_page, big_page)
        _set(self, "in_sub", in_sub)

    def induced_homology(self, degrees, weights) -> InducedMapReport:
        """`induced_map_on_homology` of the two pages, without checking the
        inclusion again."""
        return _induced_ranks(self.sub_page, self.big_page, self.in_sub, degrees, weights)


def hol_to_loop_inclusion(
    n: int, field: Field, cutoff: int = DEFAULT_CUTOFF
) -> HolLoopInclusion:
    sub = e2_page(n, field, HOL, cutoff)
    big = e2_page(n, field, LOOP, cutoff)
    return HolLoopInclusion(sub, big)


def closed_form_rational_hol_betti(n: int, k: int) -> dict:
    """Rational Betti numbers of the degree-k holomorphic component, by
    degree (ordinary grading).

    For k > 0 the component has the rational homology of projective
    (n-1)-space plus a copy of the reduced homology of projective n-space
    shifted up by 2n - 1: ones in degrees 0, 2, ..., 2n-2 and
    2n+1, 2n+3, ..., 4n-1. The degree-0 component is projective n-space
    itself.
    """
    _check_n(n)
    _check_components(HOL, [k])
    if k == 0:
        return {2 * i: 1 for i in range(n + 1)}
    table = {2 * i: 1 for i in range(n)}
    for i in range(1, n + 1):
        table[2 * n - 1 + 2 * i] = 1
    return table
