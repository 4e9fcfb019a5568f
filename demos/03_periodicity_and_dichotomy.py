"""Component periodicity, the two-type dichotomy, and unit classes.

After regrading (shifting each component's homology down by 2n) the
components of the free mapping space become comparable. Three structural
facts then hold mod p:

* multiplication by iota^k is an isomorphism between components i and
  i+k whenever p divides k(n+1), so columns repeat with period k;
* every column equals column 0's or column 1's, never a third shape;
* the classes of iota^k and iota^-k survive to homology and multiply to
  the unit, which itself survives: the component shift is invertible.
"""

from loophom import (
    LOOP,
    Field,
    SpaceSpec,
    betti_table,
    check_dichotomy,
    check_periodicity,
    unit_check,
)

n, p, k = 2, 2, 2
spec = SpaceSpec(LOOP, n, Field(p))
table = betti_table(spec, range(-2, 5), cutoff=14, grading="regraded")
print(f"Regraded columns for n={n} mod {p} (degree: dimension):")
for i in table.components():
    print(f"  component {i:2d}: {table.column(i)}")
print()

print(check_periodicity(n, p, range(-2, 3), k=k, cutoff=20))
print(check_periodicity(1, 3, range(-2, 3), k=3, cutoff=20))
print(check_periodicity(1, 3, range(-2, 3), k=1, cutoff=20), "(hypothesis not met)")
print()

for field in ("q", 2, 3):
    report = check_dichotomy(n, field, range(-3, 4), cutoff=20)
    print(report)
    print("  column type by component:", report.witness)
print()

for n, p, k in ((2, 3, 1), (2, 2, 2), (1, 2, 1)):
    print(unit_check(n, p, k=k, cutoff=20))
