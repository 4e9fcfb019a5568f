"""Acceptance gate: the nine headline guarantees, each timed and printed.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion. Every value asserted here is exact; the timing bounds are
wall-clock ceilings, not benchmarks.
"""

import itertools
import random
import time

from dense_reference import rank_dense
from loophom.analysis import (
    SpaceSpec,
    betti_table,
    check_collapse,
    check_dichotomy,
    check_oracle,
    check_periodicity,
    unit_check,
)
from loophom.dga import differential_matrix
from loophom.linalg import rank_sparse
from loophom.scalars import GF2, RATIONALS, Field
from loophom.spaces import (
    HOL,
    LOOP,
    closed_form_rational_hol_betti,
    e2_page,
    hol_to_loop_inclusion,
)

F3 = Field(3)
F5 = Field(5)


def report(number, label, ok, seconds):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {verdict} ({seconds:.2f}s)")


def test_criterion_1_rational_holomorphic_tables():
    t0 = time.monotonic()
    ok = True
    slowest = 0.0
    details = []
    for n, k in itertools.product((1, 2, 3), repeat=2):
        c0 = time.monotonic()
        cutoff = 4 * n
        got = betti_table(SpaceSpec(HOL, n, RATIONALS), [k], cutoff).column(k)
        cell = time.monotonic() - c0
        slowest = max(slowest, cell)
        want = closed_form_rational_hol_betti(n, k)
        if got != want or cell >= 1.0:
            ok = False
            details.append((n, k, got, want, cell))
    dt = time.monotonic() - t0
    report(1, "rational holomorphic tables", ok, dt)
    assert ok, details
    assert slowest < 1.0, f"slowest cell {slowest:.3f}s"


def test_criterion_2_collapse_when_p_divides_n_plus_one():
    t0 = time.monotonic()
    ok = True
    details = []
    for n, p in ((2, 3), (4, 5), (1, 2), (3, 2)):
        c0 = time.monotonic()
        rep = check_collapse(n, p, range(-4, 5), cutoff=20)
        took = time.monotonic() - c0
        collapsed = rep.passed and all(v == "collapse" for v in rep.witness.values())
        if not collapsed or took >= 10.0:
            ok = False
            details.append((n, p, str(rep), took))
    dt = time.monotonic() - t0
    report(2, "collapse for p dividing n+1", ok, dt)
    assert ok, details


def test_criterion_3_non_collapse_patterns():
    t0 = time.monotonic()
    # n=2 mod 2: no collapse at any odd component
    rep22 = check_collapse(2, 2, [-3, -1, 1, 3], cutoff=20)
    w = rep22.witness
    odd_open = rep22.passed and all(
        w[(LOOP, k)] == "non-collapse" and w[(HOL, k)] == "non-collapse"
        for k in (1, 3)
    )
    # n=2 mod 3: three divides n+1, so every component collapses, k=1 and
    # k=3 included; the interesting odd-p split needs p coprime to n+1
    rep23 = check_collapse(2, 3, [1, 3], cutoff=20)
    all_closed = rep23.passed and all(v == "collapse" for v in rep23.witness.values())
    # n=1 mod 3: collapse exactly at components divisible by 3
    rep13 = check_collapse(1, 3, [1, 3], cutoff=20)
    w13 = rep13.witness
    split = rep13.passed and (
        w13[(LOOP, 1)] == "non-collapse" and w13[(LOOP, 3)] == "collapse"
    )
    ok = odd_open and all_closed and split
    dt = time.monotonic() - t0
    report(3, "non-collapse patterns", ok, dt)
    assert odd_open, str(rep22)
    assert all_closed, str(rep23)
    assert split, str(rep13)


def test_criterion_4_mod2_closed_form_oracle():
    t0 = time.monotonic()
    rep = check_oracle(2, GF2, range(-4, 5), cutoff=30)
    dt = time.monotonic() - t0
    ok = rep.passed and dt < 30.0
    report(4, "mod-2 counting oracle", ok, dt)
    assert rep.passed, str(rep)
    assert dt < 30.0


def test_criterion_5_periodicity():
    t0 = time.monotonic()
    reps = [
        check_periodicity(2, 2, range(-2, 3), k=2, cutoff=20),
        check_periodicity(1, 3, range(-2, 3), k=3, cutoff=20),
    ]
    ok = all(r.passed for r in reps)
    dt = time.monotonic() - t0
    report(5, "component periodicity", ok, dt)
    assert ok, [str(r) for r in reps]


def test_criterion_6_dichotomy():
    t0 = time.monotonic()
    reps = []
    for n in (1, 2):
        for field in (RATIONALS, GF2, F3):
            reps.append(check_dichotomy(n, field, range(-3, 4), cutoff=20))
    ok = all(r.passed for r in reps)
    dt = time.monotonic() - t0
    report(6, "two-type dichotomy", ok, dt)
    assert ok, [str(r) for r in reps]


def test_criterion_7_holomorphic_injectivity():
    t0 = time.monotonic()
    ok = True
    details = []
    top = 20
    for n in (1, 2, 3):
        for field in (GF2, F3):
            incl = hol_to_loop_inclusion(n, field, cutoff=top + 2)
            degrees = range(-2 * n, top - 2 * n + 1)
            rep = incl.induced_homology(degrees, range(0, 5))
            if not rep.injective:
                ok = False
                bad = {k: c for k, c in rep.cells.items() if c.rank != c.betti_sub}
                details.append((n, field.characteristic, bad))
    dt = time.monotonic() - t0
    report(7, "holomorphic-to-free injectivity", ok, dt)
    assert ok, details


def test_criterion_8_property_suite():
    t0 = time.monotonic()
    rng = random.Random(2024)
    failures = []

    pages = [
        e2_page(2, RATIONALS, LOOP, cutoff=22),
        e2_page(2, GF2, LOOP, cutoff=22),
        e2_page(1, F3, LOOP, cutoff=22),
        e2_page(2, F5, HOL, cutoff=22),
    ]

    def pool(page, spots, per_spot):
        mons = []
        for d, w in spots:
            basis = page.algebra.enumerate_basis(d, w)
            rng.shuffle(basis)
            mons.extend(basis[:per_spot])
        return mons

    spots = [(d, w) for d in range(-3, 8) for w in range(0, 4)]

    # d squared vanishes on every sampled monomial
    for page in pages:
        d = page.differential
        for m in pool(page, spots, 3):
            if d(d(page.algebra.monomial_element(m))):
                failures.append(("d^2", page.algebra.field, m))

    # Leibniz on 200 random pairs, signs included
    for page in pages:
        alg, d = page.algebra, page.differential
        mons = pool(page, spots, 3)
        char2 = alg.field.characteristic == 2
        for _ in range(50):
            m1, m2 = rng.choice(mons), rng.choice(mons)
            x, y = alg.monomial_element(m1), alg.monomial_element(m2)
            sign = -1 if (m1.degree % 2) and not char2 else 1
            if d(x * y) != d(x) * y + (x * d(y)).scale(sign):
                failures.append(("leibniz", alg.field, m1, m2))

    # graded commutativity for every monomial pair below degree 15
    alg = e2_page(1, F3, LOOP, cutoff=16).algebra
    small = []
    for d_ in range(-2, 15):
        for w_ in range(0, 3):
            small.extend(alg.enumerate_basis(d_, w_))
    for m1, m2 in itertools.product(small, repeat=2):
        lhs = alg.monomial_element(m1) * alg.monomial_element(m2)
        rhs = alg.monomial_element(m2) * alg.monomial_element(m1)
        if (m1.degree * m2.degree) % 2:
            rhs = -rhs
        if lhs != rhs:
            failures.append(("koszul", m1, m2))

    # both rank routes agree on every differential matrix sampled
    cols = 0
    for page in pages:
        for d_, w_ in spots:
            mat = differential_matrix(page, d_, w_)
            if mat.ncols == 0 or cols + mat.ncols > 200:
                continue
            cols += mat.ncols
            if rank_sparse(mat) != rank_dense(mat):
                failures.append(("rank", page.algebra.field, d_, w_))

    # symbolic power rule for iota through exponent 10, both signs
    page = e2_page(2, F5, LOOP, cutoff=20)
    alg, d = page.algebra, page.differential
    d_iota = d(alg.gen("iota"))
    for k in range(-10, 11):
        if k == 0:
            continue
        got = d(alg.monomial_element(alg.monomial({"iota": k})))
        want = (alg.monomial_element(alg.monomial({"iota": k - 1})) * d_iota).scale(k)
        if got != want:
            failures.append(("power", k))

    # regrading is an involution on tables
    table = betti_table(SpaceSpec(LOOP, 2, GF2), range(-2, 3), cutoff=14)
    if table.to_regraded().to_ordinary().entries != table.entries:
        failures.append(("grading",))

    dt = time.monotonic() - t0
    ok = not failures and dt < 300.0
    report(8, "algebraic property suite", ok, dt)
    assert not failures, failures[:5]
    assert dt < 300.0


def test_criterion_9_unit_classes():
    t0 = time.monotonic()
    reps = [
        unit_check(2, 3, k=1, cutoff=20),
        unit_check(2, 2, k=2, cutoff=20),
        unit_check(1, 2, k=1, cutoff=20),
    ]
    ok = all(r.passed for r in reps)
    dt = time.monotonic() - t0
    report(9, "invertible component classes", ok, dt)
    assert ok, [str(r) for r in reps]
