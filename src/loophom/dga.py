"""Differential graded algebras: derivations, matrices, homology ranks.

A differential here is a square-zero derivation of bidegree (-1, 0): it
lowers degree by one, preserves weight, and satisfies the signed Leibniz
rule. It is determined by its values on generators, and d(d(g)) = 0 on
generators already forces d*d = 0 everywhere, because d*d is itself a
derivation. `DgaPage` checks all of this when it is built.

Monomials are the algebra's exponent tuples. Matrices of d come from
one Leibniz skeleton per call (`_Skeleton`). Every basis monomial of a
spot is y*m, with m in a weight bucket of the degree's
`graded_monomials` and y a block of the free (degree-0, even) generators,
so d(y*m) = y*d(m) + sum over free g of e_g*(y/g)*(d(g)*m). The skeleton
expands d(m) and each d(g)*m once per degree, and each block y with its
quotients y/g once. One sweep of it per weight gives that weight's
columns, grouped by degree, and only the degrees with a column: `_passes`
builds and ranks a matrix only there, and keeps only its rank. A
dimension is a sum of bucket lengths times free blocks. No basis is
enumerated. Within a call, `_passes` shares one profile among the spots
with the same numbers, and one map of spots among the weights with the
same free-block counts and nonzero ranks; the dimensions are summed once
per vector of block counts.

Maps on homology need one more number per spot, dim(S meet B) for S a
span of basis monomials and B the boundaries: `_passes` answers it from
the weight's sweep, which the skeleton keeps (`meet`), and `_inclusion`
gives the S of an inclusion of pages.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from ._record import ReadOnlyMap, Record, _fill, _set
from .errors import (
    AlgebraMismatch,
    CutoffTooTight,
    DuplicateName,
    FieldMismatch,
    InhomogeneousElement,
    InhomogeneousImage,
    InvalidComponent,
    InvalidDegree,
    InvalidRank,
    NotAChainMap,
    NotSquareZero,
    UnknownGenerator,
    WrongBidegree,
)
from .graded_algebra import Element, GradedAlgebra, _free_exponents
# kernel_basis and rank_of_columns have no caller here; the bench tracer wraps them by name
from .linalg import Matrix, kernel_basis, rank_of_columns
from .scalars import is_int


class Derivation(Record):
    """A derivation given on generators: `images` maps each generator, by
    name or gid, to its image, and the derivation keeps the nonzero ones
    by gid, in a `ReadOnlyMap`. A generator keyed twice raises
    DuplicateName and an image of another algebra AlgebraMismatch. Any
    images extend by the signed Leibniz rule; `DgaPage` checks that they
    make a differential. It keeps no table of its own; where a product
    passes an exterior or truncated bound, `multiply_monomials` says so.
    """

    __slots__ = _fields = ("algebra", "images")

    def __init__(self, algebra: GradedAlgebra, images: Mapping[Union[int, str], Element]):
        kept = {}
        for key, img in images.items():
            g = algebra.generator(key)
            if g.gid in kept:
                raise DuplicateName(f"generator {g.name!r} is given two images")
            if img.algebra is not algebra:
                raise AlgebraMismatch(f"image of {g.name!r} lives in a different algebra")
            kept[g.gid] = img
        _fill(self, algebra, ReadOnlyMap({gid: img for gid, img in kept.items() if img}))

    def is_zero(self) -> bool:
        return not self.images

    def apply_monomial(self, m: tuple) -> Element:
        """Signed Leibniz expansion over the blocks of one monomial.

        For a block g^e the derivation contributes e * g^(e-1) * d(g),
        valid for negative (laurent) e as well; the sign is the parity of
        the degree of everything to the left of the block, summed only at
        a block whose generator has an image. Each term
        L * d(g) * R equals (-1)^(|d(g)| |R|) (L R) * d(g), one product of
        monomials. On a page d has bidegree (-1, 0), so every term lands
        one degree below m, in m's weight.

        A block whose exponent the characteristic divides is skipped before
        any product is built; a term whose product passes an exterior or
        truncated bound is skipped on the None `multiply_monomials` gives.
        The raw terms are summed into one dict; where none is left, the
        expansion is the algebra's one zero element.
        """
        alg = self.algebra
        out: dict = {}
        p = alg.field.characteristic
        signed = p != 2
        for idx, (gid, e) in enumerate(m):
            image = self.images.get(gid)
            if image is None or p and e % p == 0:
                continue
            left, right = m[:idx], m[idx + 1 :]
            rest = left + (((gid, e - 1),) if e != 1 else ()) + right
            coeff = -e if signed and alg.bidegree(left)[0] & 1 else e
            right_odd = signed and alg.bidegree(right)[0] & 1
            for im, c in image.terms.items():
                sign, target = alg.multiply_monomials(rest, im)
                if target is None:
                    continue
                if right_odd and alg.bidegree(im)[0] & 1:
                    sign = -sign
                out[target] = out.get(target, 0) + sign * coeff * c
        return _element(alg, out)

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("element of a different algebra")
        out: dict = {}
        for m, c in x.terms.items():
            for t, v in self.apply_monomial(m).terms.items():
                out[t] = out.get(t, 0) + c * v
        return _element(self.algebra, out)


def _element(alg: GradedAlgebra, terms: dict) -> Element:
    """The element of summed raw `terms`: the algebra's one zero element
    where every term cancels."""
    return terms and Element(alg, terms) or alg.zero()


class DgaPage(Record):
    """An algebra with its differential, checked on construction, so every
    routine that takes a page reads a differential: the derivation acts
    on the algebra (AlgebraMismatch), each image is homogeneous
    (InhomogeneousImage) of bidegree (-1, 0) relative to its generator
    (WrongBidegree), and d(d(g)) = 0 on every generator g (NotSquareZero).
    """

    __slots__ = _fields = ("algebra", "differential")

    def __init__(self, algebra: GradedAlgebra, differential: Derivation):
        if differential.algebra is not algebra:
            raise AlgebraMismatch("the differential acts on a different algebra")
        images = differential.images
        for gid, img in images.items():
            g = algebra.generators[gid]
            try:
                bideg = img.bidegree()
            except InhomogeneousElement as exc:
                raise InhomogeneousImage(f"image of {g.name!r}: {exc}") from None
            expected = (g.degree - 1, g.weight)
            if bideg != expected:
                raise WrongBidegree(
                    f"image of {g.name!r} has bidegree {bideg}, expected {expected}"
                )
        for gid, img in images.items():
            if differential(img):
                raise NotSquareZero(f"d(d({algebra.generators[gid].name})) != 0")
        _fill(self, algebra, differential)


def _check_counts(*counts: int) -> None:
    """Refuse a dimension, rank or Betti number that is not an int >= 0."""
    for count in counts:
        if not is_int(count) or count < 0:
            raise InvalidRank(f"a dimension or rank must be an int >= 0, got {count!r}")


class RankProfile(Record):
    """Linear data of one (degree, weight) spot of a page.

    betti = dim - rank_d_here - rank_d_above is the homology dimension,
    kept on construction; it is not a field.
    """

    _fields = ("dim", "rank_d_here", "rank_d_above")
    __slots__ = _fields + ("betti",)

    def __init__(self, dim: int, rank_d_here: int, rank_d_above: int):
        _check_counts(dim, rank_d_here, rank_d_above)
        if rank_d_here + rank_d_above > dim:
            raise InvalidRank(f"ranks {rank_d_here} + {rank_d_above} exceed the dimension {dim}")
        _fill(self, dim, rank_d_here, rank_d_above)
        _set(self, "betti", dim - rank_d_here - rank_d_above)


class _Skeleton:
    """d on the free multiples y*m of each degree's monomials m, for one
    call. Each m of a weight bucket of `graded_monomials` that a
    requested weight reaches has its `moves`: {g: [(monomial, raw
    value)]}, the terms of d(g)*m for each free g with an image, by
    `multiply_monomials`, which drops a term a bound kills, and under
    None the terms of d(m) itself, by `apply_monomial`. An m with no term
    keeps no entry. `reach` has every bucket weight met, and whether a
    requested weight is reachable from it. A degree or weight that is
    not an int is refused first (InvalidDegree, InvalidComponent), then
    a degree past the algebra's horizon, where the list may be
    incomplete (CutoffTooTight)."""

    def __init__(self, page: DgaPage, degrees, weights):
        for d in degrees:
            if not is_int(d):
                raise InvalidDegree(f"a degree must be an int, got {d!r}")
        for w in weights:
            if not is_int(w):
                raise InvalidComponent(f"a weight must be an int, got {w!r}")
        alg, der = page.algebra, page.differential
        top, horizon = max(degrees), alg.complete_through_degree
        if horizon is not None and top > horizon:
            raise CutoffTooTight(
                f"d at degree {top} needs a complete basis there, past the "
                f"algebra's horizon {horizon}"
            )
        self.p, self.free, self.times = alg.field.characteristic, alg.free_generators(), alg._times
        self.entries, self._blocks, self.swept = {}, {}, (None, {})
        images = [
            (g.gid, *term)
            for g in self.free
            if g.gid in der.images
            for term in der.images[g.gid].terms.items()
        ]
        reach = self.reach = {}  # bucket weight -> whether a requested weight is reachable
        alg.graded_monomials(top)  # one walk lists every degree below it
        for d in degrees:
            for mw, listed in alg.graded_monomials(d).items():
                if mw not in reach:
                    reach[mw] = any(self.blocks(w - mw) for w in weights)
                if not reach[mw]:
                    continue
                for m in listed:
                    here = der.apply_monomial(m).terms
                    moves = here and {None: list(here.items())}
                    for gid, im, c in images:
                        # m * d(g) meets a bound within d(g)'s few blocks; d(g), of
                        # degree -1 as g is free, times m is the same up to (-1)^d
                        sign, t = alg.multiply_monomials(m, im)
                        if t is not None:
                            if d & 1:
                                sign = -sign
                            moves = moves or {}
                            moves.setdefault(gid, []).append((t, c if sign > 0 else -c))
                    if moves:
                        self.entries.setdefault(d, []).append((mw, moves))

    def blocks(self, rest: int) -> list:
        """(y, quotients) for each free exponent block y of total weight
        `rest`: first (None, 1, None), which the sweep reads as y*d(m),
        then (g, e_g, y/g) for each free g in y whose exponent e_g the
        characteristic does not divide; kept for the call. The first is
        one shared constant, so a block costs no more than its quotients."""
        found = self._blocks.get(rest)
        if found is None:
            found = self._blocks[rest] = [
                (
                    y,
                    [(None, 1, None)]
                    + [
                        (g, e, self.times(y, ((g, -1),)))
                        for g, e in y
                        if not self.p or e % self.p
                    ],
                )
                for y in _free_exponents(self.free, rest)
            ]
        return found

    def sweep(self, weight: int) -> dict:
        """{degree: (rows, entries, ncols)} of the weight, from one pass
        over the entries: a column for each free multiple y*m that d does
        not kill by its shape, with the terms e*(y/g)*(d(g)*m) for each
        quotient whose g moves m, y*d(m) first. Only a degree with a
        column appears. The last weight's sweep is kept, and only that
        one: a pass's `meet` reads it there."""
        if self.swept[0] != weight:
            self.swept = (weight, {})  # the previous weight's go first
            times = self.times
            for d, found in self.entries.items():
                rows, entries, j = {}, {}, 0
                for mw, moves in found:
                    for y, quotients in self.blocks(weight - mw):
                        filled = len(entries)  # a column's first term adds an entry
                        for g, e, lowered in quotients:
                            for t, c in moves.get(g, ()):
                                key = times(t, y if g is None else lowered)
                                ij = (rows.setdefault(key, len(rows)), j)
                                entries[ij] = entries.get(ij, 0) + e * c
                        j += len(entries) > filled
                if j:
                    self.swept[1][d] = (rows, entries, j)
        return self.swept[1]


def differential_matrix(page: DgaPage, degree: int, weight: int, *, skeleton=None) -> Matrix:
    """Matrix of d from (degree, weight) to (degree - 1, weight).

    The columns are the free multiples y*m of the spot (y a block of free
    generators, m in the degree's `graded_monomials`) that d does not
    kill by their shape, as the skeleton's sweep of the weight lists
    them; the rows are the monomials those reach, numbered in the order
    they first appear, and the sweep's `rows` label them.
    The columns left out are zero, so the rank is that of d at the spot
    (an empty matrix where none is left); `Matrix` reduces the summed raw
    values and drops zeros. `skeleton` hands over a pass's `_Skeleton`,
    whose building checked the horizon; omitted, one is built for this
    spot alone, and refuses a degree past the page's horizon.
    """
    if skeleton is None:
        skeleton = _Skeleton(page, [degree], [weight])
    rows, entries, ncols = skeleton.sweep(weight).get(degree) or ({}, {}, 0)
    return Matrix(page.algebra.field, len(rows), ncols, entries)


def _passes(page: DgaPage, degrees: Iterable[int], weights: Iterable[int]):
    """Yield (weight, {degree: RankProfile}, meet) for each requested
    weight, over the requested degrees, both ascending without repeats.
    Spots of the call with the same (dim, rank of d out, rank of d in)
    share one profile, and weights with the same key share one map of
    spots: the key is the number of free blocks each monomial weight of
    the skeleton's `reach` meets, and the nonzero ranks, by degree, at
    every needed degree, which together fix every dimension and rank.
    The dimensions are summed once per block-count vector, and the map
    once per key. `meet(degree, in_s)`, at a requested degree, is
    dim(S meet B), S spanned by the monomials whose exponent tuples pass
    `in_s` and B the image of d: rank B - rank(B without S's rows), from
    the weight's sweep at degree + 1 and the rank already found there,
    or 0 where no column gave one.
    d in needs a complete basis one degree above the top; the skeleton,
    built on the call, not on first use, checks the horizon there.

    One `_Skeleton` serves every spot of the call. Each weight sweeps it
    once, and a matrix is built and ranked only at the degrees the sweep
    gives, those with a column; any other spot has rank 0 and no matrix.
    Only the nonzero ranks are kept. The skeleton keeps the last weight's
    sweep, so `meet` called in order reads it as it is; called after the
    pass has moved on, it sweeps its weight again. Nothing outlives the
    call.
    """
    degs = sorted(set(degrees))
    if not degs:
        return iter(())
    alg = page.algebra
    needed = sorted(set(degs) | {d + 1 for d in degs})
    ws = sorted(set(weights))
    skeleton = _Skeleton(page, needed, ws)
    # (dim, here, above) -> its one RankProfile; block counts -> dimensions by degs; key -> map
    profiles, dims, maps = {}, {}, {}

    def profile(*t):
        return profiles.get(t) or profiles.setdefault(t, RankProfile(*t))

    def spots(w):
        rank = {
            d: r
            for d in skeleton.sweep(w)
            if (r := differential_matrix(page, d, w, skeleton=skeleton).rank())
        }
        size = tuple(len(skeleton.blocks(w - mw)) for mw in skeleton.reach)

        def meet(degree, in_s):
            labels, entries, ncols = skeleton.sweep(w).get(degree + 1) or ({}, {}, 0)
            if not ncols:
                return 0
            rows = {i for exps, i in labels.items() if in_s(exps)}
            kept = {ij: c for ij, c in entries.items() if ij[0] not in rows}
            return rank.get(degree + 1, 0) - Matrix(alg.field, len(labels), ncols, kept).rank()

        key = (size, *rank.items())
        if key not in maps:
            if size not in dims:
                blocks = dict(zip(skeleton.reach, size))
                dims[size] = [
                    sum(len(ms) * blocks[mw] for mw, ms in alg.graded_monomials(d).items())
                    for d in degs
                ]
            maps[key] = {
                d: profile(dim, rank.get(d, 0), rank.get(d + 1, 0))
                for d, dim in zip(degs, dims[size])
            }
        return w, maps[key], meet

    return map(spots, ws)


def homology_dimensions(
    page: DgaPage, degrees: Iterable[int], weights: Iterable[int]
) -> dict:
    """RankProfile for every requested (degree, weight).

    One extra degree above the requested top is computed silently so the
    incoming rank is exact there. The profiles are `_passes`'s, so spots
    with the same numbers share one.
    """
    passes = _passes(page, degrees, weights)
    return {(d, w): profile for w, spots, _ in passes for d, profile in spots.items()}


class InducedCell(Record):
    __slots__ = _fields = ("rank", "betti_sub", "betti_big")

    def __init__(self, rank: int, betti_sub: int, betti_big: int):
        _check_counts(rank, betti_sub, betti_big)
        if rank > betti_sub or rank > betti_big:
            raise InvalidRank(f"rank {rank} exceeds a Betti number, {betti_sub} or {betti_big}")
        _fill(self, rank, betti_sub, betti_big)

    @property
    def injective(self) -> bool:
        return self.rank == self.betti_sub


class InducedMapReport(Record):
    __slots__ = _fields = ("cells",)

    def __init__(self, cells: dict):
        _fill(self, cells)

    @property
    def injective(self) -> bool:
        return all(c.injective for c in self.cells.values())


def _generator_translation(sub: GradedAlgebra, big: GradedAlgebra) -> dict:
    """gid map sub -> big by generator name; checks the data matches.

    A polynomial generator may widen to a laurent one of the same name (a
    subalgebra missing negative powers); all other kind changes are
    rejected.
    """
    if sub.field != big.field:
        raise FieldMismatch(f"{sub.field} vs {big.field}")
    mapping = {}
    for g in sub.generators:
        try:
            h = big.generator(g.name)
        except UnknownGenerator:
            raise NotAChainMap(f"generator {g.name!r} missing from the big algebra")
        if (g.degree, g.weight) != (h.degree, h.weight):
            raise NotAChainMap(f"generator {g.name!r} changes bidegree")
        if g.kind != h.kind and not (g.kind == "polynomial" and h.kind == "laurent"):
            raise NotAChainMap(f"generator {g.name!r} changes kind {g.kind} -> {h.kind}")
        if g.top != h.top:
            raise NotAChainMap(f"generator {g.name!r} changes truncation")
        mapping[g.gid] = h.gid
    return mapping


def _translate_monomial(m: tuple, mapping: dict, big: GradedAlgebra) -> tuple:
    """(sign, monomial) of the sub monomial m in big: the product of its
    blocks in sub's order, taken by `big.multiply_monomials`, which gives
    the Koszul sign of moving odd blocks into big's gid order. The blocks
    sit on distinct generators within their bounds, so it is never zero."""
    sign, out = 1, ()
    for gid, e in m:
        flip, out = big.multiply_monomials(out, ((mapping[gid], e),))
        sign *= flip
    return sign, out


def _inclusion(sub_page: DgaPage, big_page: DgaPage):
    """Check the inclusion sub -> big, which sends each sub generator to
    the big generator of the same name, and return `in_sub`: whether a big
    exponent tuple is a sub monomial's, that is, every generator in it
    comes from sub, and is negative only where the sub one is laurent.

    The inclusion must commute with the differentials; checking that on
    generators suffices since both sides are derivations along an algebra
    map.
    """
    sub, big = sub_page.algebra, big_page.algebra
    mapping = _generator_translation(sub, big)
    for g in sub.generators:
        lhs = {}
        for m, c in sub_page.differential(sub.gen(g.gid)).terms.items():
            sign, t = _translate_monomial(m, mapping, big)
            lhs[t] = c if sign > 0 else -c
        if Element(big, lhs) != big_page.differential(big.gen(mapping[g.gid])):
            raise NotAChainMap(f"differentials disagree on generator {g.name!r}")
    laurent = {mapping[g.gid]: g.kind == "laurent" for g in sub.generators}
    return lambda exps: all(h in laurent and (e > 0 or laurent[h]) for h, e in exps)


def induced_map_on_homology(
    sub_page: DgaPage, big_page: DgaPage, degrees: Iterable[int], weights: Iterable[int]
) -> InducedMapReport:
    """Homology of the inclusion sub -> big (see `_inclusion`), per
    (degree, weight), from ranks only.

    The sub basis goes to distinct big basis monomials, spanning a
    coordinate subspace S, so the sub cycles map onto S meet Z, and the
    rank is dim(sub cycles) - dim(S meet B): the big pass's `meet`. It is
    0 without further matrix work where the sub homology is zero.
    """
    return _induced_ranks(sub_page, big_page, _inclusion(sub_page, big_page), degrees, weights)


def _induced_ranks(sub_page, big_page, in_sub, degrees, weights) -> InducedMapReport:
    """`induced_map_on_homology` past its check, with the `in_sub` that
    `_inclusion` gave for these pages. Cells with equal numbers share one."""
    degrees, weights = list(degrees), list(weights)  # read by both passes
    passes = zip(_passes(sub_page, degrees, weights), _passes(big_page, degrees, weights))
    report, cells = {}, {}  # (rank, betti_sub, betti_big) -> its one cell
    for (w, sub_spots, _), (_, big_spots, meet) in passes:
        for d, sub in sub_spots.items():
            rank = sub.dim - sub.rank_d_here - meet(d, in_sub) if sub.betti else 0
            t = (rank, sub.betti, big_spots[d].betti)
            report[(d, w)] = cells.get(t) or cells.setdefault(t, InducedCell(*t))
    return InducedMapReport(report)
