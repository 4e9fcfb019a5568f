"""Differential graded algebras: derivations, matrices, homology ranks.

A differential here is a square-zero derivation of bidegree (-1, 0): it
lowers degree by one, preserves weight, and satisfies the signed Leibniz
rule. It is determined by its values on generators, and d(d(g)) = 0 on
generators already forces d*d = 0 everywhere, because d*d is itself a
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import (
    AlgebraMismatch,
    CutoffTooTight,
    FieldMismatch,
    InhomogeneousImage,
    NotAChainMap,
    NotSquareZero,
    UnknownGenerator,
    WrongBidegree,
)
from .graded_algebra import Element, GradedAlgebra, Monomial
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
        # the bounded blocks of every image term of a free generator
        self._free_terms = [
            bounded
            for g in algebra.free_generators()
            for _, _, bounded in self._image_terms.get(g.gid, ())
        ]

    @classmethod
    def from_generator_images(
        cls, algebra: GradedAlgebra, images: Mapping[Union[int, str], Element]
    ) -> "Derivation":
        clean: dict[int, Element] = {}
        for key, img in images.items():
            g = algebra.generator(key)
            if img.algebra is not algebra:
                raise AlgebraMismatch(f"image of {g.name!r} lives in a different algebra")
            if not img:
                continue
            try:
                bideg = img.bidegree()
            except ValueError as exc:
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

    def is_active(self, m: Monomial) -> bool:
        """Whether d is nonzero on some free multiple y*m of m, y a block
        of degree-0 free generators: d(y*m) = y*d(m) + d(y)*m, and d(y) is
        a sum of multiples of (y/g)*t over the terms t of d(g), g free. So
        iff d(m) != 0 or some such t*m survives the bounds."""
        exps = dict(m.exps)
        if any(_fits(exps, None, bounded) for bounded in self._free_terms):
            return True
        return bool(self.apply_monomial(m))

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


def differential_matrix(page: DgaPage, degree: int, weight: int, *, source=None) -> Matrix:
    """Matrix of d from (degree, weight) to (degree - 1, weight), columns
    in the order of `source` and rows always the whole basis below, as
    `enumerate_basis` lists it.

    `source`, when given, may be any list of basis monomials of the spot;
    omitted, it is the whole basis as `enumerate_basis` lists it.
    """
    alg = page.algebra
    if source is None:
        source = alg.enumerate_basis(degree, weight)
    target = alg.enumerate_basis(degree - 1, weight)
    index = {m: i for i, m in enumerate(target)}
    entries = {}
    for j, m in enumerate(source):
        for mt, c in page.differential.apply_monomial(m).terms.items():
            entries[(index[mt], j)] = c
    return Matrix(alg.field, len(target), len(source), entries)


def _rank_without_rows(
    page: DgaPage, degree: int, weight: int, matrix: Matrix, monomials
) -> int:
    """Rank of `matrix`, a matrix of d into (degree, weight), with the rows
    of the given basis monomials deleted. With S their span and B the
    image of d, dim(S meet B) = rank B - this rank."""
    basis = page.algebra.enumerate_basis(degree, weight)  # the rows of matrix
    rows = {i for i, m in enumerate(basis) if m in monomials}
    kept = {(i, j): c for (i, j), c in matrix.entries.items() if i not in rows}
    return Matrix(matrix.field, matrix.nrows, matrix.ncols, kept).rank()


_EMPTY = RankProfile(0, 0, 0)


def _passes(page: DgaPage, degrees: Iterable[int], weights: Iterable[int]):
    """Yield (weight, {degree: (dim, rank of d out, rank of d in, matrix of
    d in or None)}) for each requested weight, over the requested degrees,
    both ascending without repeats. d in needs a complete basis one degree
    above the top; the horizon is checked on the call, not on first use.

    Every basis monomial of a spot is a free multiple of a monomial in
    the degree's `graded_monomials`, and d is zero on all of them unless
    that monomial is active (`Derivation.is_active`). Dimensions are
    counted (`GradedAlgebra.dimensions`). The matrix takes only the free
    multiples of the active monomials as its columns; every other column
    is zero, so the rank is unchanged. A spot without an active column
    gets rank 0 and no matrix.

    The active monomials are found once per degree and call, and a
    weight's matrices are dropped when the next weight starts. Nothing
    is kept past the call.
    """
    degs = sorted(set(degrees))
    if not degs:
        return iter(())
    alg, der = page.algebra, page.differential
    top, horizon = degs[-1], alg.complete_through_degree
    if horizon is not None and top + 1 > horizon:
        raise CutoffTooTight(
            f"homology at degree {top} needs a complete basis at degree "
            f"{top + 1}, past the algebra's horizon {horizon}"
        )
    needed = sorted(set(degs) | {d + 1 for d in degs})
    ws = sorted(set(weights))
    dims = {d: alg.dimensions(d, ws) for d in needed}
    moving = {d: [m for m in alg.graded_monomials(d) if der.is_active(m)] for d in needed}

    def spots(w):
        rank, mat = {}, {}
        for d in needed:
            source = alg.free_multiples(moving[d], w) if moving[d] else None
            mat[d] = differential_matrix(page, d, w, source=source) if source else None
            rank[d] = 0 if mat[d] is None else mat[d].rank()
        return w, {d: (dims[d][w], rank[d], rank[d + 1], mat[d + 1]) for d in degs}

    return map(spots, ws)


def homology_dimensions(
    page: DgaPage, degrees: Iterable[int], weights: Iterable[int]
) -> dict:
    """RankProfile for every requested (degree, weight).

    One extra degree above the requested top is computed silently so the
    incoming rank is exact there. Spots of dimension 0 share one profile.
    """
    out = {}
    for w, spots in _passes(page, degrees, weights):
        for d, (dim, here, above, _) in spots.items():
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


def translate_element(x: Element, big: GradedAlgebra, mapping: dict) -> Element:
    return big.element({_translate_monomial(m, mapping): c for m, c in x.terms.items()})


def induced_map_on_homology(
    sub_page: DgaPage, big_page: DgaPage, degrees: Iterable[int], weights: Iterable[int]
) -> InducedMapReport:
    """Homology of the inclusion sub -> big, per (degree, weight).

    The inclusion sends each sub generator to the big generator of the
    same name. It must commute with the differentials; checking that on
    generators suffices since both sides are derivations along an algebra
    map.

    The rank at a spot needs ranks only. The sub basis goes to distinct
    big basis monomials, spanning a coordinate subspace S, so the sub
    cycles map onto S meet Z, and that meets the boundaries B in S meet B,
    of dimension rank B - rank(B without the rows of S). So the rank is
    dim(sub cycles) - rank B + rank(B without the rows of S); it is 0
    without further matrix work where the sub homology is zero.
    """
    sub, big = sub_page.algebra, big_page.algebra
    mapping = _generator_translation(sub, big)
    for g in sub.generators:
        lhs = translate_element(sub_page.differential(sub.gen(g.gid)), big, mapping)
        rhs = big_page.differential(big.gen(mapping[g.gid]))
        if lhs != rhs:
            raise NotAChainMap(f"differentials disagree on generator {g.name!r}")
    degrees, weights = list(degrees), list(weights)  # read by both passes
    passes = zip(_passes(sub_page, degrees, weights), _passes(big_page, degrees, weights))
    report = {}
    for (w, sub_spots), (_, big_spots) in passes:
        for d, (sub_dim, sub_here, sub_above, _) in sub_spots.items():
            betti_sub = sub_dim - sub_here - sub_above
            big_dim, big_here, r_bound, m_big_above = big_spots[d]  # d in: the boundaries
            betti_big = big_dim - big_here - r_bound
            if not betti_sub:
                report[(d, w)] = InducedCell(0, 0, betti_big)
                continue

            dropped = 0  # no boundaries without an active column at d + 1
            if m_big_above is not None:
                image = {_translate_monomial(m, mapping) for m in sub.enumerate_basis(d, w)}
                dropped = _rank_without_rows(big_page, d, w, m_big_above, image)
            rank = sub_dim - sub_here - r_bound + dropped
            report[(d, w)] = InducedCell(rank, betti_sub, betti_big)
    return InducedMapReport(report)
