"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import contextlib
import io
import json
import random
import time
from math import gcd

from apn20.apn import apn_scan, differential_uniformity
from apn20.cli import main
from apn20.classify import ccz_witness, check_family_b_divisor
from apn20.divisors import (
    HYPERPLANE_DIVISOR,
    VERDICT_SURVIVOR,
    case_analysis,
    survivors,
)
from apn20.fields import Field, TowerField, roots
from apn20.polys import UniPoly, format_unipoly, is_permutation, parse_unipoly
from apn20.surface import run_identity_suite, surface_poly
from family_oracles import (
    FamilyAParams,
    FamilyBParams,
    build_family_a,
    build_family_b,
    checked_hits,
    verify_family_a_quotient,
)

F2 = Field(1)


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name}  ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"


def test_criterion_1_identity_suite():
    with _Timer("criterion 1: identity suite over GF(2), GF(8), GF(16)", 5):
        for n in (1, 3, 4):
            for report in run_identity_suite(Field(n)):
                assert report.holds, (n, report.name, report.witness)


def test_criterion_2_kernel_property():
    with _Timer("criterion 2: kernel = q-affine for all 512 degree<=8 polys", 10):
        for mask in range(1 << 9):
            f = UniPoly(F2, {e: (mask >> e) & 1 for e in range(9)})
            assert (not surface_poly(f)) == f.is_qaffine(), bin(mask)


def test_criterion_3_apn_ground_truth():
    with _Timer("criterion 3: Gold/Kasami scan for n in 2..10", 120):
        expected = {
            3: set(range(2, 11)),
            5: {3, 5, 7, 9},
            20: {3, 5, 7, 9},
            13: {3, 5, 7, 9},
        }
        for d, want in expected.items():
            rows = apn_scan(UniPoly.monomial(F2, d), range(2, 11))
            got = {r.n for r in rows if r.is_apn}
            assert got == want, (d, got)


def test_criterion_4_family_a_round_trip():
    with _Timer("criterion 4: quotient slices + divisor search on the 2/8 tower", 60):
        tower = TowerField(F2)
        ext = tower.ext
        trace_zero = [b for b in range(ext.order) if tower.trace_bits(b) == 0]
        assert len(trace_zero) == 4
        for c1 in trace_zero:
            for a12 in (0, 1):
                params = FamilyAParams(tower, c1, a12, UniPoly.zero(F2))
                report = verify_family_a_quotient(params)
                assert report.all_ok, (c1, a12, [(s.degree, s.ok) for s in report.slices])
            f, _ = build_family_a(
                FamilyAParams(tower, c1, 0, UniPoly.zero(F2))
            )
            hits = set(checked_hits(f, tower))
            orbit = {c1, tower.frob_bits(c1), tower.frob_bits(tower.frob_bits(c1))}
            assert orbit <= hits
            assert all(tower.trace_bits(b) == 0 for b in hits)


def test_criterion_5_family_a_apn():
    with _Timer("criterion 5: L^5 differential profile matches x^5", 60):
        f = parse_unipoly("x^4+x^2+x", F2) ** 5
        gold = UniPoly.monomial(F2, 5)
        for n, apn_expected in ((5, True), (7, True), (4, False)):
            K = Field(n)
            rep_f = differential_uniformity(f, K)
            rep_g = differential_uniformity(gold, K)
            assert rep_f.is_apn == apn_expected, n
            assert rep_f.delta == rep_g.delta, n


def test_criterion_6_nonzero_multiplier_breaks_apn():
    with _Timer("criterion 6: the x^20+x^12 instance fails APN at some odd n<=9", 60):
        tower = TowerField(F2)
        f, _ = build_family_a(
            FamilyAParams(tower, 0, 1, UniPoly.zero(F2))
        )
        assert f == parse_unipoly("x^20+x^12", F2)
        rows = apn_scan(f, [3, 5, 7, 9])
        assert any(not r.is_apn for r in rows), [(r.n, r.delta) for r in rows]


def test_criterion_7_family_b_exhaustive():
    with _Timer("criterion 7: family B over GF(2) and GF(8), all parameters and scalings", 30):
        for n in (1, 3):
            K = Field(n)
            for a20 in range(1, K.order):
                for a10 in range(K.order):
                    for a5 in range(K.order):
                        p = FamilyBParams(K, a10, a5, UniPoly.zero(K))
                        f = build_family_b(p).scale(a20)
                        rep = check_family_b_divisor(f)
                        assert rep.divides and rep.factorization_ok, (n, a20, a10, a5)
                        w = ccz_witness(f)
                        assert w and w.kind == "linear_of_power", (n, a20, a10, a5)
                        L = UniPoly(K, {4: 1, 2: a10, 1: a5}).scale(a20)
                        assert w.L == L, (n, a20, a10, a5)


def test_criterion_8_divisor_replay():
    with _Timer("criterion 8: divisor case analysis", 1):
        cases = case_analysis()
        surv = survivors(cases)
        assert {repr(c.x0) for c in surv} == {"A0+A1+A2", "A0+A1+A2+C1+C2"}
        full = next(c for c in surv if c.x0.degree == 5)
        assert full.orbit_sum + full.residual == HYPERPLANE_DIVISOR
        for c in cases:
            assert c.uniform_agrees
            if c.verdict != VERDICT_SURVIVOR:
                assert c.verdict.startswith("contradiction")


def test_criterion_9_invariance():
    with _Timer("criterion 9: 50 q-affine additions + 20 linear permutations", 60):
        K = Field(5)
        f = parse_unipoly("x^20+x^10+x^5", K)
        base = differential_uniformity(f, K).delta
        rng = random.Random(20260810)
        for _ in range(50):
            g = UniPoly(
                K, {e: rng.randrange(K.order) for e in (16, 8, 4, 2, 1, 0)}
            )
            assert g.is_qaffine()
            assert differential_uniformity(f + g, K).delta == base
        perms = []
        while len(perms) < 20:
            L = UniPoly(K, {e: rng.randrange(K.order) for e in (16, 8, 4, 2, 1)})
            if L and is_permutation(L, K):
                perms.append(L)
        for L in perms:
            assert differential_uniformity(f.compose(L), K).delta == base
            assert differential_uniformity(L.compose(f), K).delta == base


def test_criterion_10_gold_monomials_to_n16():
    with _Timer("criterion 10: delta of x^3, x^5, x^9, x^20 is 2^gcd(i, n) for n in 11..16", 30):
        # x^20 = (x^5)^4 shares the differential profile of x^(2^2+1)
        for d, i in ((3, 1), (5, 2), (9, 3), (20, 2)):
            f = UniPoly.monomial(F2, d)
            for n in range(11, 17):
                rep = differential_uniformity(f, Field(n))
                assert rep.delta == 1 << gcd(i, n), (d, n, rep.delta)


def _classify_json(n, poly):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify", "--field", str(n), "--poly", poly, "--json"])
    assert code == 0, (n, poly, code)
    return json.loads(out.getvalue())


def test_criterion_11_classify_reaches_gf256():
    with _Timer("criterion 11: classify decides families A, B and none over GF(2^4)..GF(2^8)", 20):
        readme_a = "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5"
        tail = "+x^16+x^2+1"
        for n in range(4, 9):
            K = Field(n)
            # L = x^4+x^2+x is x(x+c)(x+c^2)(x+c^4) for the roots c of X^3+X+1
            # in GF(8): trace zero in the tower unless GF(8) lies in the base
            got = _classify_json(n, readme_a + tail)
            if n % 3:
                assert got["family"] == "A" and got["L"] == "x^4+x^2+x", (n, got)
                assert all(got["constraints"].values()), (n, got["constraints"])
            else:
                assert got["failure_stage"] == "family_a_search", (n, got)
            # X^3 + X + s3 without roots in the base: its roots are conjugate
            # and trace zero, so L = x^4 + x^2 + s3 x gives a family-A member
            s3 = next(s for s in range(1, K.order) if not roots([s, 1, 0, 1], K))
            L = UniPoly(K, {4: 1, 2: 1, 1: s3})
            got = _classify_json(n, format_unipoly(L ** 5) + tail)
            assert got["family"] == "A" and got["L"] == format_unipoly(L), (n, got)
            assert all(got["constraints"].values()), (n, got["constraints"])
            got = _classify_json(n, "0x3*x^20+0x2*x^10+x^5" + tail)
            assert got["family"] == "B" and got["quintic_factorization_ok"], (n, got)
            got = _classify_json(n, "x^20+x^19+x^7")
            assert got["family"] == "none", (n, got)
