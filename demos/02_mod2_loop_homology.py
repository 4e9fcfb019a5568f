"""Mod-2 homology of the free mapping space, checked two ways.

The single differential d(iota) = (n+1) u c^n sends each monomial to a
multiple of one monomial, never the same one twice, so every rank is a
count of monomials. `betti_oracle` does that count with plain integers;
the engine does linear algebra over F_2. They must agree cell for cell.
"""

from loophom import (
    GF2,
    LOOP,
    SpaceSpec,
    betti_oracle,
    betti_table,
    check_oracle,
    e2_page,
    generator_schedule,
)

n = 2
cutoff = 20

print("Pontrjagin generators for n=2 mod 2, through degree", cutoff)
for name, degree, weight, kind in generator_schedule(n, GF2, LOOP, cutoff):
    print(f"  {name:5s} degree {degree:3d} weight {weight:2d} {kind}")
print()

page = e2_page(n, GF2, LOOP, cutoff)
iota = page.algebra.gen("iota")
print("d(iota) =", page.differential(iota))
print()

spec = SpaceSpec(LOOP, n, GF2)
table = betti_table(spec, range(-2, 3), cutoff)
print(f"Betti numbers by component (ordinary degree <= {cutoff}):")
for k in table.components():
    col = table.column(k)
    row = " ".join(f"{col.get(d, 0)}" for d in range(cutoff + 1))
    print(f"  k={k:2d}: {row}")
print()

print("Independent monomial count at the same spots:")
counted = betti_oracle(spec, range(-2, 3), cutoff)
for k in counted.components():
    col = counted.column(k)
    row = " ".join(f"{col.get(d, 0)}" for d in range(cutoff + 1))
    print(f"  k={k:2d}: {row}")
print()

report = check_oracle(n, GF2, range(-4, 5), cutoff=30)
print(report)
assert report.passed
