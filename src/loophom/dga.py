"""Differential graded algebras: derivations, matrices, homology ranks.

A differential here is a square-zero derivation of bidegree (-1, 0): it
lowers degree by one, preserves weight, and satisfies the signed Leibniz
rule. It is determined by its values on generators, and d(d(g)) = 0 on
generators already forces d*d = 0 everywhere, because d*d is itself a
derivation.

Matrices of d come from one Leibniz skeleton per degree (`_Skeleton`).
Every basis monomial of a spot is y*m, with m in the degree's
`graded_monomials` and y a block of the free (degree-0, even) generators,
so d(y*m) = y*d(m) + sum over free g of e_g*(y/g)*(d(g)*m). The skeleton
expands d(m) and each d(g)*m once per degree and call; a weight's matrix
is then block arithmetic on those terms, with its rows keyed by monomial
in the order they first appear, and each spot's columns are walked once.
The same walk counts the degree's monomials by weight, so a dimension is
a sum of counts times free blocks. No basis is enumerated.

Maps on homology need one more number per spot, dim(S meet B) for S a
span of basis monomials and B the boundaries: `_passes` answers it from
the matrix of d it holds (`meet`), and `_inclusion` gives the S of an
inclusion of pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import (
    AlgebraMismatch,
    CutoffTooTight,
    DuplicateName,
    FieldMismatch,
    InhomogeneousElement,
    InhomogeneousImage,
    NotAChainMap,
    NotSquareZero,
    UnknownGenerator,
    WrongBidegree,
)
from .graded_algebra import Element, GradedAlgebra, Monomial, _free_exponents
# kernel_basis and rank_of_columns have no caller here; the bench tracer wraps them by name
from .linalg import Matrix, kernel_basis, rank_of_columns


class Derivation:
    """A square-zero degree (-1, 0) derivation given on generators.

    Use `from_generator_images`; the bare constructor skips validation.
    """

    def __init__(self, algebra: GradedAlgebra, images: dict):
        self.algebra = algebra
        self.images = images
        # gid -> (term, coefficient, bounded) for each term of its image;
        # bounded lists (gid, exponent, bound) of the term's exterior and
        # truncated blocks, the only ones a product can push past a bound
        bound_of = {g.gid: g.top for g in algebra.generators if g.top is not None}
        self._image_terms = {
            gid: [
                (im, c, tuple((h, e, bound_of[h]) for h, e in im.exps if h in bound_of))
                for im, c in img.terms.items()
            ]
            for gid, img in images.items()
        }

    @classmethod
    def from_generator_images(
        cls, algebra: GradedAlgebra, images: Mapping[Union[int, str], Element]
    ) -> "Derivation":
        clean: dict[int, Element] = {}
        keyed = set()
        for key, img in images.items():
            g = algebra.generator(key)
            if g.gid in keyed:
                raise DuplicateName(f"generator {g.name!r} is given two images")
            keyed.add(g.gid)
            if img.algebra is not algebra:
                raise AlgebraMismatch(f"image of {g.name!r} lives in a different algebra")
            if not img:
                continue
            try:
                bideg = img.bidegree()
            except InhomogeneousElement as exc:
                raise InhomogeneousImage(f"image of {g.name!r}: {exc}") from None
            expected = (g.degree - 1, g.weight)
            if bideg != expected:
                raise WrongBidegree(
                    f"image of {g.name!r} has bidegree {bideg}, expected {expected}"
                )
            clean[g.gid] = img
        der = cls(algebra, clean)
        for gid, img in clean.items():
            if der(img):
                name = algebra.generators[gid].name
                raise NotSquareZero(f"d(d({name})) != 0")
        return der

    def is_zero(self) -> bool:
        return not self.images

    def apply_monomial(self, m: Monomial) -> Element:
        """Signed Leibniz expansion over the blocks of one monomial.

        For a block g^e the derivation contributes e * g^(e-1) * d(g),
        valid for negative (laurent) e as well; the sign is the parity of
        the degree of everything to the left of the block. Each term
        L * d(g) * R equals (-1)^(|d(g)| |R|) (L R) * d(g), one product of
        monomials. d has bidegree (-1, 0), so every term lands in degree
        m.degree - 1 and weight m.weight.

        Terms the quotient kills are skipped before any product is built:
        a block whose exponent the characteristic divides, and an image
        term whose exterior or truncated exponents, added to the ones left
        in m once g^e is lowered, pass a bound.
        """
        alg = self.algebra
        out: dict = {}
        if not self.images:
            return Element(alg, out)
        p = alg.field.characteristic
        char2 = p == 2
        prefix_degree = 0
        blocks = m.exps
        exps = None  # m's exponents by gid, built on first need
        for idx, (gid, e) in enumerate(blocks):
            g = alg.generators[gid]
            block_degree = g.degree * e
            terms = self._image_terms.get(gid)
            if terms is not None and not (p and e % p == 0):
                if exps is None:
                    exps = dict(blocks)
                live = [(im, c) for im, c, bounded in terms if _fits(exps, gid, bounded)]
                if live:
                    coeff = alg.field.scalar(e)
                    if not char2 and (prefix_degree & 1):
                        coeff = -coeff
                    lowered = ((gid, e - 1),) if e != 1 else ()
                    rest = Monomial(
                        blocks[:idx] + lowered + blocks[idx + 1 :],
                        m.degree - g.degree,
                        m.weight - g.weight,
                    )
                    right_odd = not char2 and (m.degree - prefix_degree - block_degree) & 1
                    for im, c in live:
                        sign, target = alg.multiply_monomials(rest, im)
                        if right_odd and im.degree & 1:
                            sign = -sign
                        c = coeff * c if sign > 0 else -(coeff * c)
                        s = out.get(target)
                        s = c if s is None else s + c
                        if s:
                            out[target] = s
                        else:
                            out.pop(target, None)
            prefix_degree += block_degree
        return Element(alg, out)

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("element of a different algebra")
        out = self.algebra.zero()
        for m, c in x.terms.items():
            out = out + self.apply_monomial(m).scale(c)
        return out


def _fits(exps: dict, lowered, bounded) -> bool:
    """Whether `exps`, less one power of generator `lowered` (None for
    none), times a term with these bounded blocks stays within bounds."""
    return all(exps.get(h, 0) - (h == lowered) + e <= bound for h, e, bound in bounded)


@dataclass
class DgaPage:
    """An algebra with its differential."""

    algebra: GradedAlgebra
    differential: Derivation

    def __post_init__(self):
        if self.differential.algebra is not self.algebra:
            raise AlgebraMismatch("the differential acts on a different algebra")


@dataclass(frozen=True)
class RankProfile:
    """Linear data of one (degree, weight) spot of a page.

    betti = dim - rank_d_here - rank_d_above is the homology dimension.
    """

    dim: int
    rank_d_here: int
    rank_d_above: int

    @property
    def betti(self) -> int:
        return self.dim - self.rank_d_here - self.rank_d_above


class _Skeleton:
    """d on the free multiples y*m of each degree's monomials m, for one
    call. Each m of `graded_monomials` that a requested weight reaches
    keeps the terms (exponents, coefficient) of d(m), by `apply_monomial`,
    and of d(g)*m for each free g with an image; an m where all are 0 is
    dropped. The same walk counts each degree's monomials by weight, so
    `dimension` needs no basis. `rows[(degree, weight)]` maps the
    exponents of each row of a matrix `differential_matrix` built from it
    to the row's index."""

    def __init__(self, page: DgaPage, degrees, weights):
        alg, der = page.algebra, page.differential
        self.field, self.free = alg.field, alg.free_generators()
        self.rows, self.entries, self.counts, self._blocks = {}, {}, {}, {}
        images = [(g.gid, der._image_terms.get(g.gid, ())) for g in self.free]
        reach: dict = {}  # m.weight -> whether a requested weight is reachable
        for d in degrees:
            found, count = self.entries[d], self.counts[d] = [], {}
            for m in alg.graded_monomials(d):
                count[m.weight] = count.get(m.weight, 0) + 1
                if m.weight not in reach:
                    reach[m.weight] = any(self.blocks(w - m.weight) for w in weights)
                if not reach[m.weight]:
                    continue
                exps, moves = dict(m.exps), {}
                for gid, terms in images:
                    for im, c, bounded in terms:
                        if _fits(exps, None, bounded):  # apply_monomial's pre-test
                            sign, t = alg.multiply_monomials(im, m)
                            moves.setdefault(gid, []).append((t.exps, c if sign > 0 else -c))
                here = [(t.exps, c) for t, c in der.apply_monomial(m).terms.items()]
                if here or moves:
                    found.append((m.weight, here, moves))

    def blocks(self, rest: int) -> list:
        """The free exponent blocks of total weight `rest`, kept for the
        call: the reach test, `columns` and `dimension` share them."""
        found = self._blocks.get(rest)
        if found is None:
            found = self._blocks[rest] = _free_exponents(self.free, rest)
        return found

    def dimension(self, degree: int, weight: int) -> int:
        """len(enumerate_basis(degree, weight)), counted: the degree's
        monomials of each weight times the free blocks of the rest."""
        return sum(k * len(self.blocks(weight - mw)) for mw, k in self.counts[degree].items())

    def columns(self, degree: int, weight: int):
        """The column of each free multiple y*m of the weight that d does
        not kill by its shape, as (exponents, coefficient) terms: y*d(m),
        and e_g*(y/g)*(d(g)*m) for each free g in y whose exponent e_g
        the characteristic does not divide."""
        p = self.field.characteristic
        for mw, here, moves in self.entries[degree]:
            for y in self.blocks(weight - mw):
                terms = [(_times(t, y), c) for t, c in here]
                for g, e in y:
                    if g in moves and (not p or e % p):
                        k, lowered = self.field.scalar(e), _times(y, ((g, -1),))
                        terms += [(_times(t, lowered), k * c) for t, c in moves[g]]
                if terms:
                    yield terms


def _times(a: tuple, b: tuple) -> tuple:
    """Exponents of a product with a free block, which no bound can kill:
    exponents add, and zeros drop."""
    if not b:
        return a
    merged = dict(a)
    for g, e in b:
        e += merged.get(g, 0)
        if e:
            merged[g] = e
        else:
            del merged[g]
    return tuple(sorted(merged.items()))


def differential_matrix(page: DgaPage, degree: int, weight: int, *, skeleton=None) -> Matrix:
    """Matrix of d from (degree, weight) to (degree - 1, weight).

    The columns are the free multiples y*m of the spot (y a block of free
    generators, m in the degree's `graded_monomials`) that d does not
    kill by their shape, as `_Skeleton.columns` lists them; the rows are
    the monomials those reach, numbered in the order they first appear,
    and `skeleton.rows[(degree, weight)]` labels them. The columns left
    out are zero, so the rank is that of d at the spot. `skeleton` hands
    over a pass's `_Skeleton`; omitted, one is built for this spot alone.
    """
    if skeleton is None:
        skeleton = _Skeleton(page, [degree], [weight])
    rows, entries, ncols = {}, {}, 0
    for j, terms in enumerate(skeleton.columns(degree, weight)):
        for t, c in terms:
            ij = (rows.setdefault(t, len(rows)), j)
            entries[ij] = entries[ij] + c if ij in entries else c  # Matrix drops 0
        ncols = j + 1
    skeleton.rows[(degree, weight)] = rows
    return Matrix(page.algebra.field, len(rows), ncols, entries)


_EMPTY = RankProfile(0, 0, 0)


def _passes(page: DgaPage, degrees: Iterable[int], weights: Iterable[int]):
    """Yield (weight, {degree: (dim, rank of d out, rank of d in)}, meet)
    for each requested weight, over the requested degrees, both ascending
    without repeats. `meet(degree, in_s)`, at a requested degree, is
    dim(S meet B), S spanned by the monomials whose exponent tuples pass
    `in_s` and B the image of d: rank B - rank(B without S's rows), from
    the matrix of d in and its row labels, or 0 where it has no column.
    d in needs a complete basis one degree above the top; the horizon is
    checked on the call, not on first use.

    One `_Skeleton` serves every spot of the call: it counts the
    dimensions, and `differential_matrix` builds a matrix at each degree
    where it holds entries, walking that spot's columns once. A matrix
    with a column is kept and its rank taken; any other spot has rank 0
    and no matrix. A weight's matrices live as long as its `meet`, and
    nothing is kept past the call.
    """
    degs = sorted(set(degrees))
    if not degs:
        return iter(())
    alg = page.algebra
    top, horizon = degs[-1], alg.complete_through_degree
    if horizon is not None and top + 1 > horizon:
        raise CutoffTooTight(
            f"homology at degree {top} needs a complete basis at degree "
            f"{top + 1}, past the algebra's horizon {horizon}"
        )
    needed = sorted(set(degs) | {d + 1 for d in degs})
    ws = sorted(set(weights))
    skeleton = _Skeleton(page, needed, ws)

    def spots(w):
        rank, inward = dict.fromkeys(needed, 0), {}
        for d, found in skeleton.entries.items():
            if found:
                matrix = differential_matrix(page, d, w, skeleton=skeleton)
                labels = skeleton.rows.pop((d, w))
                if matrix.ncols:
                    inward[d] = (matrix, labels)
                    rank[d] = matrix.rank()

        def meet(degree, in_s):
            if degree + 1 not in inward:
                return 0
            matrix, labels = inward[degree + 1]
            rows = {i for exps, i in labels.items() if in_s(exps)}
            kept = {ij: c for ij, c in matrix.entries.items() if ij[0] not in rows}
            return rank[degree + 1] - Matrix(matrix.field, matrix.nrows, matrix.ncols, kept).rank()

        return w, {d: (skeleton.dimension(d, w), rank[d], rank[d + 1]) for d in degs}, meet

    return map(spots, ws)


def homology_dimensions(
    page: DgaPage, degrees: Iterable[int], weights: Iterable[int]
) -> dict:
    """RankProfile for every requested (degree, weight).

    One extra degree above the requested top is computed silently so the
    incoming rank is exact there. Spots of dimension 0 share one profile.
    """
    out = {}
    for w, spots, _ in _passes(page, degrees, weights):
        for d, (dim, here, above) in spots.items():
            out[(d, w)] = RankProfile(dim, here, above) if dim else _EMPTY
    return out


@dataclass(frozen=True)
class InducedCell:
    rank: int
    betti_sub: int
    betti_big: int

    @property
    def injective(self) -> bool:
        return self.rank == self.betti_sub


@dataclass
class InducedMapReport:
    cells: dict

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


def _translate_monomial(m: Monomial, mapping: dict) -> Monomial:
    exps = sorted((mapping[gid], e) for gid, e in m.exps)
    return Monomial(tuple(exps), m.degree, m.weight)


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
        image = sub_page.differential(sub.gen(g.gid))
        lhs = big.element({_translate_monomial(m, mapping): c for m, c in image.terms.items()})
        if lhs != big_page.differential(big.gen(mapping[g.gid])):
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
    in_sub = _inclusion(sub_page, big_page)
    degrees, weights = list(degrees), list(weights)  # read by both passes
    passes = zip(_passes(sub_page, degrees, weights), _passes(big_page, degrees, weights))
    report = {}
    for (w, sub_spots, _), (_, big_spots, meet) in passes:
        for d, (sub_dim, sub_here, sub_above) in sub_spots.items():
            big_dim, big_here, big_above = big_spots[d]
            betti_sub = sub_dim - sub_here - sub_above
            rank = sub_dim - sub_here - meet(d, in_sub) if betti_sub else 0
            report[(d, w)] = InducedCell(rank, betti_sub, big_dim - big_here - big_above)
    return InducedMapReport(report)
