"""Free graded-commutative algebras with a second (weight) grading.

Generators come in four kinds:

* ``polynomial``  unbounded nonnegative exponents,
* ``laurent``     arbitrary integer exponents (degree-0 generators only),
* ``exterior``    exponents 0 or 1, square equal to zero,
* ``truncated``   exponents 0..m, higher powers equal to zero.

An algebra is built whole, one row per generator, and never changes:

    GradedAlgebra(Field(3), [("iota", 0, 1, "laurent"), ("u", 3, 1, "exterior"),
                             ("c", -2, 0, "truncated", 2)], complete_through_degree=10)

Elements are finite sums of monomials with exact field coefficients.
Multiplication carries the Koszul sign: commuting odd-degree factors past
each other costs a minus sign (no signs in characteristic 2).

A monomial is its canonical exponent tuple, ((gid, e), ...), gids
strictly increasing and every exponent nonzero; the empty tuple is the
unit. Its degree is the exponent-weighted sum of generator degrees and
its weight the same sum over generator weights (`bidegree`), computed
when asked, never stored, so the algebra is graded by (degree, weight)
pairs. The engine lists monomials with `graded_monomials`: those of one
degree in the generators that are not free, bucketed by weight; a
finiteness certificate checks first that every such list, and every
(degree, weight) piece, is finite. `enumerate_basis`, which only the
tests and the bench's tracer call, lists the whole basis of one
(degree, weight) pair from them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import Mapping, Optional, Union

from ._record import ReadOnly, ReadOnlyMap, Record, _fill, _set
from .errors import (
    AlgebraMismatch,
    DuplicateName,
    InfiniteBasis,
    InhomogeneousElement,
    InvalidExponent,
    InvalidGenerator,
    InvalidHorizon,
    LaurentNonzeroDegree,
    ParityViolation,
    UnknownGenerator,
)
from .scalars import Field, check_field, is_int

KINDS = ("polynomial", "laurent", "exterior", "truncated")


class Generator(Record):
    """The types of name, degree, weight and truncation, the kind, the
    truncation and a laurent generator's degree 0 are checked on
    construction; the `GradedAlgebra` constructor adds a new name and
    parity. `top`, kept on construction, is the largest exponent of a
    nonzero power, None when unbounded: 1 for exterior, the truncation
    for truncated generators."""

    _fields = ("gid", "name", "degree", "weight", "kind", "truncation")
    __slots__ = _fields + ("top",)

    def __init__(
        self, gid: int, name: str, degree: int, weight: int, kind: str,
        truncation: Optional[int] = None,
    ):
        if not isinstance(name, str):
            raise InvalidGenerator(f"a generator's name must be a str, got {name!r}")
        for attr, value in (("degree", degree), ("weight", weight), ("truncation", truncation)):
            if not is_int(value) and not (attr == "truncation" and value is None):
                raise InvalidGenerator(f"{attr} of {name!r} must be an int, got {value!r}")
        if kind not in KINDS:
            raise InvalidGenerator(f"unknown generator kind {kind!r}")
        if kind == "laurent" and degree != 0:
            raise LaurentNonzeroDegree(f"laurent generator {name!r} has degree {degree}")
        if kind == "truncated":
            if truncation is None or truncation < 1:
                raise InvalidGenerator(f"truncated generator {name!r} needs truncation >= 1")
        elif truncation is not None:
            raise InvalidGenerator("truncation only applies to truncated generators")
        _fill(self, gid, name, degree, weight, kind, truncation)
        _set(self, "top", 1 if kind == "exterior" else truncation)


class GradedAlgebra(ReadOnly):
    """A free bigraded-commutative algebra over an exact field, built whole
    from its generator rows, a row's place its gid: each has 4 or 5 items
    (InvalidGenerator), makes a `Generator`, has a new name (DuplicateName)
    and fits the field's parity (ParityViolation). No attribute can be
    assigned (ReadOnlyValue).

    `complete_through_degree`, when set, records the largest degree d such
    that the generators produce the same monomial basis in all degrees
    <= d as some larger intended generator set would. Builders that
    truncate an infinite family of generators set it; homology routines
    refuse to read past it.
    """

    # the attributes, then the enumeration memo, which nothing can make
    # stale, then the one zero element
    __slots__ = _fields = ("field", "generators", "complete_through_degree",
                           "_by_name", "_plan", "_by_degree", "_zero")

    def __init__(self, field: Field, generators, complete_through_degree: Optional[int] = None):
        check_field(field)
        if complete_through_degree is not None and not is_int(complete_through_degree):
            raise InvalidHorizon(
                f"complete_through_degree must be None or an int, got {complete_through_degree!r}"
            )
        by_name: dict[str, Generator] = {}
        for row in generators:
            if not isinstance(row, (tuple, list)) or len(row) not in (4, 5):
                raise InvalidGenerator(f"a generator row has 4 or 5 items, got {row!r}")
            gen = Generator(len(by_name), *row)
            if gen.name in by_name:
                raise DuplicateName(f"generator {gen.name!r} has two rows")
            if field.characteristic != 2:
                if gen.kind == "exterior" and gen.degree % 2 == 0:
                    raise ParityViolation(f"even exterior generator {gen.name!r} over {field}")
                if gen.kind != "exterior" and gen.degree % 2 != 0:
                    raise ParityViolation(f"odd {gen.kind} generator {gen.name!r} over {field}")
            by_name[gen.name] = gen
        _fill(self, field, tuple(by_name.values()), complete_through_degree, by_name, None, {})
        _set(self, "_zero", Element(self, {}))  # once `field` is set: Element reads it

    def __reduce__(self):  # copy and pickle rebuild from the rows, with a fresh memo
        rows = tuple((g.name, g.degree, g.weight, g.kind, g.truncation) for g in self.generators)
        return GradedAlgebra, (self.field, rows, self.complete_through_degree)

    def generator(self, key: Union[int, str]) -> Generator:
        """The generator of a name or a gid; any other key (a bool is no
        gid) raises UnknownGenerator."""
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise UnknownGenerator(key) from None
        if is_int(key) and 0 <= key < len(self.generators):
            return self.generators[key]
        raise UnknownGenerator(key)

    # -- monomials ---------------------------------------------------------

    def monomial(self, exponents: Mapping[Union[int, str], int]) -> Optional[tuple]:
        """Canonical exponent tuple for an exponent assignment, or None for
        zero.

        Exponents past an exterior or truncated bound make the monomial
        zero in the quotient, hence the None. A negative exponent on a
        generator that is not laurent raises InvalidExponent, even where a
        bound would make the monomial zero, and so does an exponent that is
        not an int (a bool is not one).
        """
        merged: dict[int, int] = {}
        for key, e in exponents.items():
            g = self.generator(key)
            if not is_int(e):
                raise InvalidExponent(f"exponent of {g.name!r} must be an int, got {e!r}")
            merged[g.gid] = merged.get(g.gid, 0) + e
        for gid, e in merged.items():
            g = self.generators[gid]
            if e < 0 and g.kind != "laurent":
                raise InvalidExponent(f"negative exponent on {g.kind} generator {g.name!r}")
        return self._canonical({}, merged.items())

    def _canonical(self, merged: dict, added) -> Optional[tuple]:
        """The exponent tuple of `merged` ({gid: e}, within bounds, filled
        in place) plus the pairs `added`: None at the first sum past its
        generator's `top`, before any sort; else gids sorted, zero
        exponents dropped. Bounds apply only here."""
        for gid, e in added:
            e += merged.get(gid, 0)
            top = self.generators[gid].top
            if top is not None and e > top:
                return None
            merged[gid] = e
        return tuple(sorted((gid, e) for gid, e in merged.items() if e))

    def _times(self, a: tuple, b: tuple) -> tuple:
        """a*b for b a block of free generators, which have degree 0 and no
        bound, so the product has no sign and is never zero. Where every
        generator of b comes before those of a, as a page's one free
        generator iota comes first, it is b + a; anywhere else
        `_canonical` merges them."""
        if not (a and b) or b[-1][0] < a[0][0]:
            return b + a
        return self._canonical(dict(a), b)

    def bidegree(self, m: tuple) -> tuple:
        """(degree, weight) of the monomial m, summed over its blocks."""
        degree = weight = 0
        for gid, e in m:
            g = self.generators[gid]
            degree += e * g.degree
            weight += e * g.weight
        return degree, weight

    def _is_canonical(self, m) -> bool:
        """Whether m is a canonical exponent tuple of this algebra: (gid, e)
        pairs of ints, gids strictly increasing within the generators, each
        e nonzero, negative only on a laurent generator and at most the
        generator's `top`."""
        if not isinstance(m, tuple):
            return False
        last = -1
        for pair in m:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                return False
            gid, e = pair
            if not (is_int(gid) and last < gid < len(self.generators) and is_int(e) and e):
                return False
            g = self.generators[gid]
            if e < 0 and g.kind != "laurent" or g.top is not None and e > g.top:
                return False
            last = gid
        return True

    def format(self, m: tuple) -> str:
        """The monomial m as name^e factors joined by `*`, "1" for the unit."""
        parts = []
        for gid, e in m:
            name = self.generators[gid].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) or "1"

    def exponent_vector(self, m: tuple) -> tuple:
        v = [0] * len(self.generators)
        for gid, e in m:
            v[gid] = e
        return tuple(v)

    def multiply_monomials(self, a: tuple, b: tuple):
        """Product of two monomials: (sign, monomial), or (1, None) when an
        exterior square or truncation bound kills the product. `_canonical`
        applies the bounds as it adds b's exponents into a's, so a killed
        product is dropped at the first overflow, before any sort or sign
        work."""
        product = self._canonical(dict(a), b)
        if product is None or self.field.characteristic == 2:
            return 1, product
        # gids of odd-total-degree blocks, ascending; only odd*odd flips
        odd_a = [gid for gid, e in a if (self.generators[gid].degree * e) & 1]
        flips = 0
        if odd_a:
            for gid, e in b:
                if (self.generators[gid].degree * e) & 1:
                    flips += len(odd_a) - bisect_right(odd_a, gid)
        return -1 if flips & 1 else 1, product

    # -- elements ----------------------------------------------------------

    def zero(self) -> "Element":
        """The algebra's one zero element: no element can change, so all share it."""
        return self._zero

    def one(self) -> "Element":
        return Element(self, {(): 1})

    def monomial_element(self, m: Optional[tuple], coeff=1) -> "Element":
        if m is None:
            return self.zero()
        return Element(self, {m: coeff})

    def gen(self, key: Union[int, str]) -> "Element":
        return Element(self, {((self.generator(key).gid, 1),): 1})

    # -- basis enumeration ---------------------------------------------------

    def _certificate(self) -> None:
        """Finiteness certificate for (degree, weight)-homogeneous bases.

        Raises InfiniteBasis unless all of the following hold: no
        non-laurent generator sits in bidegree (0, 0); negative-degree
        generators have bounded exponents (exterior or truncated kind);
        positive-degree polynomial generators have nonnegative weight;
        degree-0 polynomial generators have positive weight; there is at
        most one laurent generator, it carries nonzero weight, and it
        never coexists with a degree-0 polynomial generator.
        """
        laurents = [g for g in self.generators if g.kind == "laurent"]
        if len(laurents) > 1:
            raise InfiniteBasis("more than one laurent generator")
        for g in laurents:
            if g.weight == 0:
                raise InfiniteBasis(f"laurent generator {g.name!r} has weight 0")
        for g in self.generators:
            if g.kind == "laurent":
                continue
            if g.degree == 0 and g.weight == 0:
                raise InfiniteBasis(f"generator {g.name!r} in bidegree (0, 0)")
            if g.degree < 0 and g.kind == "polynomial":
                raise InfiniteBasis(f"unbounded negative-degree generator {g.name!r}")
            if g.kind == "polynomial" and g.degree > 0 and g.weight < 0:
                raise InfiniteBasis(f"negative-weight generator {g.name!r}")
            if g.kind == "polynomial" and g.degree == 0:
                if g.weight < 0:
                    raise InfiniteBasis(f"degree-0 generator {g.name!r} with negative weight")
                if laurents:
                    raise InfiniteBasis(
                        f"degree-0 generator {g.name!r} alongside a laurent generator"
                    )

    def _enumeration_plan(self) -> tuple:
        """(free, steps, least, most), built once, at the first enumeration.

        `free` holds the degree-0 polynomial and laurent generators, whose
        exponents are solved from the weight. `steps` has one entry
        (g, top) for every other generator g, in gid order, with top its
        largest exponent (None for polynomial generators, whose degree is
        positive). least[i] and most[i] are the lowest and highest degree
        the steps from i on can add (most[i] is math.inf past a polynomial
        step), so least[-1] = most[-1] = 0 and (least[0], most[0]) is
        `degree_reach`.
        """
        if self._plan is None:
            self._certificate()
            free = tuple(
                g for g in self.generators
                if g.degree == 0 and g.kind in ("polynomial", "laurent")
            )
            steps = [(g, g.top) for g in self.generators if g not in free]
            least, most = [0], [0]
            for g, top in reversed(steps):
                least.append(least[-1] + (0 if top is None else min(g.degree * top, 0)))
                most.append(most[-1] + (math.inf if top is None else max(g.degree * top, 0)))
            _set(self, "_plan", (free, steps, least[::-1], most[::-1]))
        return self._plan

    def degree_reach(self) -> tuple:
        """(low, high): every basis monomial has a degree in low..high, and
        both finite ends hold one. high is math.inf when there is a
        polynomial generator of positive degree."""
        _, _, least, most = self._enumeration_plan()
        return least[0], most[0]

    def free_generators(self) -> tuple:
        """The degree-0 polynomial and laurent generators, in gid order:
        the only ones unbounded within one degree."""
        return self._enumeration_plan()[0]

    def graded_monomials(self, degree: int) -> ReadOnlyMap:
        """The monomials of the given degree in the generators that are not
        free, bucketed by weight: {weight: tuple of monomials in
        lexicographic order of their exponent vectors}, weights ascending,
        kept on the algebra in a `ReadOnlyMap`.

        A request past every degree listed so far walks (`_walk`) on from
        the last one through the requested degree, so one walk lists every
        degree below it too: a caller that needs a range asks its top
        first. No monomial is listed twice.
        """
        found = self._by_degree.get(degree)
        if found is not None:
            return found
        low, high = self.degree_reach()
        walked = low - 1 + len(self._by_degree)  # it holds every degree from low on
        if degree <= walked or degree > high:
            return ReadOnlyMap()
        self._walk(walked, degree)
        return self._by_degree[degree]

    def _walk(self, floor: int, top: int) -> None:
        """Keep the weight buckets of every degree floor + 1..top, empty or
        not, in `_by_degree`, from one depth-first walk over the steps
        with exponents ascending, so each bucket comes out in
        lexicographic order. A prefix is entered only when the range of
        degrees the remaining steps can add (the plan's `least`..`most`)
        overlaps floor + 1..top. The range may have gaps, so a node can
        still lead to no monomial; the last step adds nothing, so every
        leaf lies in the window.
        """
        _, steps, least, most = self._enumeration_plan()
        by_degree, last = {degree: {} for degree in range(floor + 1, top + 1)}, len(steps)

        def rec(i, degree, weight, acc):
            if i == last:
                buckets = by_degree[degree]
                found = buckets.get(weight)
                if found is None:
                    found = buckets[weight] = []
                found.append(acc)
                return
            (g, bound), low, high = steps[i], least[i + 1], most[i + 1]
            for e in range(bound + 1) if bound is not None else itertools.count():
                d = degree + e * g.degree
                if d + low > top:
                    if g.degree > 0:
                        break
                elif d + high > floor:
                    rec(i + 1, d, weight + e * g.weight, acc + ((g.gid, e),) if e else acc)

        rec(0, 0, 0, ())
        for degree, buckets in by_degree.items():
            buckets = sorted((weight, tuple(found)) for weight, found in buckets.items())
            self._by_degree[degree] = ReadOnlyMap(buckets)

    def enumerate_basis(self, degree: int, weight: int) -> list[tuple]:
        """All basis monomials of the given (degree, weight), sorted
        lexicographically on full exponent vectors, in a fresh list: the
        products y*m, with m in a weight bucket of the degree's
        `graded_monomials` and y a block of free generators that makes up
        the rest of the weight. The certificate in `_certificate`, checked
        at the first enumeration, guarantees the lists are finite and
        complete.
        """
        free, found = self.free_generators(), []
        for mw, listed in self.graded_monomials(degree).items():
            blocks = _free_exponents(free, weight - mw)
            found += [tuple(sorted(m + y)) for m in listed for y in blocks]
        return sorted(found, key=self.exponent_vector)

    def __repr__(self):
        names = ", ".join(g.name for g in self.generators)
        return f"GradedAlgebra({self.field}; {names})"


def _free_exponents(free: list, weight: int) -> list:
    """Every exponent block ((gid, e), ...) of the degree-0 generators
    `free` with total weight `weight`, blocks in gid order. The last
    generator's exponent is solved by division; the certificate makes a
    laurent generator the only one."""
    if not free:
        return [()] if weight == 0 else []
    g, later = free[0], free[1:]
    if not later:
        q, r = divmod(weight, g.weight)
        return [] if r or (q < 0 and g.kind != "laurent") else [((g.gid, q),) if q else ()]
    out = []
    for e in range(weight // g.weight + 1):
        head = ((g.gid, e),) if e else ()
        out += [head + tail for tail in _free_exponents(later, weight - e * g.weight)]
    return out


class Element(Record):
    """A finite field-linear combination of monomials in one algebra:
    `terms` maps each monomial to its raw coefficient, in a `ReadOnlyMap`.
    A key that is not a canonical exponent tuple of the algebra (see
    `GradedAlgebra._is_canonical`) raises AlgebraMismatch. Every
    coefficient goes through the algebra's `Field.reduce`, which refuses
    a value that is no element of the field (`InvalidScalar`,
    `DivisionByZero`), and a zero one is dropped, so equal elements have
    equal terms. Elements compare by the identity of their algebra and
    by their terms."""

    __slots__ = _fields = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: Mapping[tuple, object]):
        reduce, kept = algebra.field.reduce, {}
        for m, c in terms.items():
            if not algebra._is_canonical(m):
                raise AlgebraMismatch(f"{m!r} is no monomial of {algebra}")
            c = reduce(c)
            if c:
                kept[m] = c
        _fill(self, algebra, ReadOnlyMap(kept))

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Element(self.algebra, terms)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        s = self.algebra.field.reduce(c)
        return Element(self.algebra, {m: v * s for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)  # refuses what is not a scalar
        self._check(other)
        alg = self.algebra
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = alg.multiply_monomials(m1, m2)
                if m is None:
                    continue
                acc[m] = acc.get(m, 0) + sign * c1 * c2
        return Element(alg, acc)

    def __rmul__(self, other):
        return self.scale(other)  # only reached with a left operand that is not an Element

    def __pow__(self, n: int) -> "Element":
        if not is_int(n) or n < 0:
            raise InvalidExponent(f"the power of an element must be an int >= 0, got {n!r}")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_homogeneous(self) -> bool:
        return len({self.algebra.bidegree(m) for m in self.terms}) <= 1

    def bidegree(self) -> Optional[tuple]:
        """(degree, weight) of a homogeneous element, None for zero."""
        seen = {self.algebra.bidegree(m) for m in self.terms}
        if not seen:
            return None
        if len(seen) > 1:
            raise InhomogeneousElement(f"inhomogeneous element spans {sorted(seen)}")
        return seen.pop()

    def coefficient(self, m: tuple):
        return self.terms.get(m, self.algebra.field.reduce(0))

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        parts = []
        for m in sorted(self.terms, key=alg.exponent_vector):
            c = self.terms[m]
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(alg.format(m))
            else:
                parts.append(f"{c}*{alg.format(m)}")
        return " + ".join(parts)
