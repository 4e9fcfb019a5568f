"""Run every structural check over a small grid and tally the verdicts.

Equivalent to `loophom verify --check all ...` across several fields,
plus the holomorphic-to-free injectivity comparison that has no CLI
selector (it is a statement about a map, not a table).
"""

from loophom import (
    GF2,
    Field,
    check_collapse,
    check_dichotomy,
    check_oracle,
    check_periodicity,
    hol_to_loop_inclusion,
    unit_check,
)

CUTOFF = 20
reports = []

for n, p in ((1, 2), (2, 2), (1, 3), (2, 3), (3, 2)):
    reports.append(check_collapse(n, p, range(-3, 4), cutoff=CUTOFF))
    reports.append(check_periodicity(n, p, range(-2, 3), k=p, cutoff=CUTOFF))
    reports.append(check_dichotomy(n, p, range(-3, 4), cutoff=CUTOFF))
    reports.append(unit_check(n, p, k=p, cutoff=CUTOFF))
for n in (1, 2, 3, 4):
    for field in ("q", 2, 3, 5):
        reports.append(check_oracle(n, field, range(-2, 3), cutoff=16))

for report in reports:
    print(report)

print()
print("Holomorphic classes stay independent inside the free space:")
for n in (1, 2):
    for field in (GF2, Field(3)):
        incl = hol_to_loop_inclusion(n, field, cutoff=14)
        cells = incl.induced_homology(range(-2 * n, 10 - 2 * n), range(0, 4))
        verdict = "injective" if cells.injective else "NOT injective"
        print(f"  n={n} mod {field.characteristic}: {verdict} "
              f"({len(cells.cells)} spots)")

failed = [r for r in reports if r.failed]
print()
print(f"{len(reports)} checks, {len(failed)} failures")
assert not failed
