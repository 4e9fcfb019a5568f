"""A naive signed Leibniz expansion and monomial product: the references
the tests compare `Derivation.apply_monomial` and
`GradedAlgebra.multiply_monomials` with. They share no code with
`loophom.dga` and do not use the algebra's monomial product: they write
each term out as a sequence of generator powers, count the Koszul swaps
that sort it, and add up exponents themselves. Only the generator table,
the `Monomial` container and the field arithmetic are the library's."""

from loophom.graded_algebra import Monomial


def _bound(generator):
    if generator.kind == "exterior":
        return 1
    return generator.truncation  # None for polynomial and laurent generators


def write_out(algebra, written: list) -> tuple:
    """The product of the generator powers `written`, (gid, exponent)
    pairs in the order written: (sign, Monomial), the sign (-1) to the
    number of swaps of odd blocks that sort them by gid (always 1 in
    characteristic 2), or (1, None) when a summed exponent passes its
    generator's bound."""
    gens = algebra.generators
    exps: dict = {}
    for h, f in written:
        exps[h] = exps.get(h, 0) + f
    if any(_bound(gens[h]) is not None and f > _bound(gens[h]) for h, f in exps.items()):
        return 1, None
    sign = 1
    if algebra.field.characteristic != 2:
        odd = [h for h, f in written if gens[h].degree * f % 2]
        swaps = sum(
            1 for i in range(len(odd)) for j in range(i + 1, len(odd)) if odd[i] > odd[j]
        )
        sign = -1 if swaps % 2 else 1
    kept = tuple(sorted((h, f) for h, f in exps.items() if f))
    degree = sum(gens[h].degree * f for h, f in kept)
    weight = sum(gens[h].weight * f for h, f in kept)
    return sign, Monomial(kept, degree, weight)


def product(algebra, a: Monomial, b: Monomial) -> tuple:
    """a*b as `write_out` gives it: a's blocks, then b's."""
    return write_out(algebra, list(a.exps) + list(b.exps))


def leibniz(algebra, images: dict, m: Monomial) -> list:
    """d(m) as (monomial, coefficient) pairs in insertion order, for the
    derivation with the given generator images (gid -> Element).

    Block g^e of m contributes (-1)^|L| e L g^(e-1) d(g) R, with L and R
    the blocks left and right of it. Terms are summed in block order and,
    within a block, in the order of d(g)'s terms; a sum that cancels is
    removed, and a later term for it is inserted afresh.
    """
    gens = algebra.generators
    field = algebra.field
    signed = field.characteristic != 2
    blocks = list(m.exps)
    out: dict = {}
    for idx, (gid, e) in enumerate(blocks):
        image = images.get(gid)
        if image is None:
            continue
        left_degree = sum(gens[h].degree * f for h, f in blocks[:idx])
        for term, c in image.terms.items():
            written = blocks[:idx] + [(gid, e - 1)] + list(term.exps) + blocks[idx + 1 :]
            sign, key = write_out(algebra, written)
            if key is None:
                continue
            if signed and left_degree % 2:
                sign = -sign
            coefficient = field.scalar(sign * e) * c
            if not coefficient:
                continue
            total = out.get(key)
            total = coefficient if total is None else total + coefficient
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return list(out.items())
