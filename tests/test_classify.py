import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from apn20 import classify
from apn20.apn import differential_uniformity
from apn20.classify import (
    FAMILY_A_CONSTRAINTS,
    CczWitness,
    NoWitness,
    ccz_witness,
    check_family_b_divisor,
    default_check_field,
    search_perturbations,
)
from apn20.fields import Field, TowerField
from apn20.linear import rank
from apn20.polys import (
    NotDivisible,
    TriPoly,
    UniPoly,
    exact_div,
    is_permutation,
    parse_unipoly,
)
from apn20.surface import plane_product, surface_monomial, surface_poly
from family_oracles import (
    FamilyAParams,
    FamilyBParams,
    QuadraticPerturbation,
    _conjugate_product_base,
    build_family_a,
    build_family_b,
    check_family_a_divisor,
    checked_hits,
    conjugate_product,
    constraints_for,
    linearized_from_conjugates,
    perturbed_plane,
    verify_family_a_quotient,
)

F2 = Field(1)
TW = TowerField(F2)
EXT = TW.ext
G = 0b10

TRACE_ZERO = [b for b in range(EXT.order) if TW.trace_bits(b) == 0]


def fam_a(c1, a12=0, tail=None):
    return FamilyAParams(TW, c1, a12, tail or UniPoly.zero(F2))


def test_trace_zero_set():
    assert sorted(TRACE_ZERO) == [0, 2, 4, 6]


def test_linearized_from_conjugates():
    L = linearized_from_conjugates(TW, G)
    assert L == parse_unipoly("x^4+x^2+x", F2)
    assert linearized_from_conjugates(TW, 0) == parse_unipoly("x^4", F2)
    with pytest.raises(ValueError, match="trace"):
        linearized_from_conjugates(TW, 0b11)


def test_build_family_a_gold_instance():
    f, L = build_family_a(fam_a(G))
    assert f == parse_unipoly("x^4+x^2+x", F2) ** 5
    assert f.degree == 20
    assert L == parse_unipoly("x^4+x^2+x", F2)


def test_build_family_a_degenerate():
    f, L = build_family_a(fam_a(0, a12=1))
    assert L == parse_unipoly("x^4", F2)
    assert f == parse_unipoly("x^20+x^12", F2)


def test_family_a_params_validated():
    with pytest.raises(ValueError, match="trace"):
        fam_a(0b11)
    with pytest.raises(ValueError, match="q-affine"):
        FamilyAParams(TW, G, 0, parse_unipoly("x^3", F2))


ZERO = UniPoly.zero(F2)


@pytest.mark.parametrize(
    "name, build",
    [
        ("c1", lambda: FamilyAParams(TW, EXT.order, 0, ZERO)),
        ("c1", lambda: linearized_from_conjugates(TW, -2)),
        ("a12", lambda: FamilyAParams(TW, G, 2, ZERO)),
        ("a10", lambda: FamilyBParams(F2, 2, 0, ZERO)),
        ("a5", lambda: FamilyBParams(F2, 0, -1, ZERO)),
        ("c1", lambda: QuadraticPerturbation(TW, 8, 0, 0, 0)),
        ("c4", lambda: QuadraticPerturbation(TW, G, 8, 0, 0)),
        ("b1", lambda: QuadraticPerturbation(TW, G, G, 9, 0)),
        ("d", lambda: QuadraticPerturbation(TW, G, G, 0, -1)),
    ],
)
def test_parameters_out_of_range_rejected(name, build):
    with pytest.raises(ValueError, match=f"^{name} = .* is not an element of GF"):
        build()


def test_family_a_always_degree_20_over_base():
    for c1 in TRACE_ZERO:
        for a12 in (0, 1):
            f, _ = build_family_a(fam_a(c1, a12))
            assert f.degree == 20
            assert f.field == F2


def test_build_family_b():
    assert build_family_b(FamilyBParams(F2, 0, 0, UniPoly.zero(F2))) == parse_unipoly("x^20", F2)
    f = build_family_b(FamilyBParams(F2, 1, 1, UniPoly.zero(F2)))
    assert f == parse_unipoly("x^20+x^10+x^5", F2)
    L = parse_unipoly("x^4+x^2+x", F2)
    assert f == L.compose(parse_unipoly("x^5", F2))


def test_family_b_surface_is_linear_combination():
    F8 = Field(3)
    for a10 in (0, 3, 7):
        for a5 in (0, 1, 5):
            p = FamilyBParams(F8, a10, a5, UniPoly.zero(F8))
            f = build_family_b(p)
            expected = (
                surface_monomial(20, F8)
                + surface_monomial(10, F8).scale(a10)
                + surface_monomial(5, F8).scale(a5)
            )
            assert surface_poly(f) == expected


def test_perturbed_plane_shapes():
    zero = QuadraticPerturbation(TW, 0, 0, 0, 0)
    assert perturbed_plane(zero) == plane_product(EXT)
    qp = QuadraticPerturbation.canonical(TW, G)
    s5 = surface_monomial(5, EXT)
    expected = (
        plane_product(EXT)
        + s5.scale(G)
        + TriPoly.constant(EXT, EXT.pow_(G, 3))
    )
    assert perturbed_plane(qp) == expected


def test_perturbed_plane_is_symmetric():
    from apn20.surface import to_symmetric, NotSymmetric

    qp = QuadraticPerturbation(TW, G, 5, 7, 3)
    assert not isinstance(to_symmetric(perturbed_plane(qp)), NotSymmetric)


def test_conjugate_product_equals_surface_of_linearized_cube():
    for c1 in TRACE_ZERO:
        qp = QuadraticPerturbation.canonical(TW, c1)
        L = linearized_from_conjugates(TW, c1)
        assert conjugate_product(qp) == surface_poly(L ** 3).embed(EXT)


def test_conjugate_product_on_bigger_tower():
    tw = TowerField(Field(2))
    tz = [b for b in range(tw.ext.order) if tw.trace_bits(b) == 0]
    for c1 in tz[:6]:
        qp = QuadraticPerturbation.canonical(tw, c1)
        L = linearized_from_conjugates(tw, c1)
        assert conjugate_product(qp) == surface_poly(L ** 3).embed(tw.ext)


def test_conjugate_product_slice_closed_forms():
    # the top four degree slices of (A+P)(A+P^q)(A+P^{q^2}) in terms of the
    # trace, norm and conjugate forms of arbitrary perturbation parameters
    import random

    from apn20.surface import sym_expr

    for base_n in (1, 2, 3):
        tw = TowerField(Field(base_n))
        ext = tw.ext
        rng = random.Random(100 + base_n)
        for _ in range(12):
            c1, c4, b1, d = (rng.randrange(ext.order) for _ in range(4))
            qp = QuadraticPerturbation(tw, c1, c4, b1, d)
            prod = conjugate_product(qp)
            A = plane_product(ext)
            assert prod.homogeneous_part(9) == A ** 3
            assert prod.homogeneous_part(8) == (A ** 2) * sym_expr(
                ext, {(2, 0, 0): tw.trace_bits(c1), (0, 1, 0): tw.trace_bits(c4)}
            )
            assert prod.homogeneous_part(7) == A * sym_expr(
                ext,
                {
                    (4, 0, 0): tw.q1_bits(c1),
                    (0, 2, 0): tw.q1_bits(c4),
                    (2, 1, 0): tw.q5_bits(c1, c4),
                },
            ) + (A ** 2) * sym_expr(ext, {(1, 0, 0): tw.trace_bits(b1)})
            assert prod.homogeneous_part(6) == (
                (A ** 2).scale(tw.trace_bits(d))
                + A
                * sym_expr(
                    ext,
                    {(3, 0, 0): tw.q5_bits(c1, b1), (1, 1, 0): tw.q5_bits(c4, b1)},
                )
                + sym_expr(
                    ext,
                    {
                        (6, 0, 0): tw.norm_bits(c1),
                        (4, 1, 0): tw.q4_bits(c1, c4),
                        (2, 2, 0): tw.q4_bits(c4, c1),
                        (0, 3, 0): tw.norm_bits(c4),
                    },
                )
            )


def test_check_family_a_divisor_round_trip():
    f, _ = build_family_a(fam_a(G))
    rep = check_family_a_divisor(f, QuadraticPerturbation.canonical(TW, G))
    assert rep.divides
    assert all(rep.constraints.values())
    assert rep.quotient.homogeneous_part(8) == surface_monomial(5, F2) ** 4


def test_check_family_a_divisor_negative():
    rep = check_family_a_divisor(
        parse_unipoly("x^20+x^17", F2), QuadraticPerturbation.canonical(TW, G)
    )
    assert not rep.divides
    assert rep.remainder_monomial is not None


def test_family_a_constraints_are_identities():
    # the roots of h = X^3 + s X + t as polynomials over GF(2): c = r0, its
    # conjugates r1 and r2 = r0 + r1 (h has no X^2 term), with d = c^3,
    # c4 = c1 and b1 = 0 as in the canonical perturbation; every form is
    # symmetric in the orbit, so the order of the roots does not matter
    x, y = TriPoly.variable(F2, "x"), TriPoly.variable(F2, "y")
    zero = TriPoly.zero(F2)
    c = (x, y, x + y)
    d = tuple(r ** 3 for r in c)
    c4, b1 = c, (zero, zero, zero)

    def tr(a):
        return a[0] + a[1] + a[2]

    def norm(a):
        return a[0] * a[1] * a[2]

    def q1(a):
        return a[0] * a[1] + a[0] * a[2] + a[1] * a[2]

    def q4(a, b):
        return a[0] * a[1] * b[2] + a[0] * b[1] * a[2] + b[0] * a[1] * a[2]

    def q5(a, b):
        return a[0] * (b[1] + b[2]) + b[0] * (a[1] + a[2]) + a[1] * b[2] + b[1] * a[2]

    sides = {
        "tr_c1_zero": (tr(c), zero),
        "tr_c4_zero": (tr(c4), zero),
        "c1_eq_c4": (c[0], c4[0]),
        "b1_zero": (b1[0], zero),
        "d_eq_c1_cubed": (d[0], c[0] ** 3),
        "tr_d_eq_norm_c1": (tr(d), norm(c)),
        "q5_c1_d_zero": (q5(c, d), zero),
        "q4_c1_d_zero": (q4(c, d), zero),
        "q1_d_relation": (q1(d), q1(c) ** 3 + norm(c) ** 2),
        "q4_d_c1_relation": (q4(d, c), norm(c) * q1(c) ** 2),
        "norm_d_relation": (norm(d), norm(c) ** 3),
    }
    for name, (lhs, rhs) in sides.items():
        assert lhs == rhs, name
    # the printed order is the order of the tower-side evaluation
    assert tuple(sides) == FAMILY_A_CONSTRAINTS
    assert tuple(constraints_for(QuadraticPerturbation.canonical(TW, G))) == FAMILY_A_CONSTRAINTS


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_family_a_constraints_hold_in_the_tower(m):
    # evaluated in GF(q^3) on every trace-zero c1 for m <= 3, 64 of them for m = 4
    tw = TowerField(Field(m))
    trace_zero = [b for b in range(tw.ext.order) if tw.trace_bits(b) == 0]
    for c1 in random.Random(m).sample(trace_zero, min(len(trace_zero), 64)):
        constraints = constraints_for(QuadraticPerturbation.canonical(tw, c1))
        assert all(constraints.values()), (m, c1, constraints)


def test_search_recovers_galois_orbit():
    f, _ = build_family_a(fam_a(G))
    hits = set(checked_hits(f, TW))
    orbit = {G, TW.frob_bits(G), TW.frob_bits(TW.frob_bits(G))}
    assert orbit <= hits
    assert all(TW.trace_bits(b) == 0 for b in hits)
    # hits are closed under the Galois action
    assert {TW.frob_bits(b) for b in hits} == hits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_product_is_constant_on_frobenius_orbits(n):
    tw = TowerField(Field(n))
    rng = random.Random(n)
    for c1 in rng.sample(range(tw.ext.order), min(tw.ext.order, 24)):
        c2 = tw.frob_bits(c1)
        c3 = tw.frob_bits(c2)
        first = _conjugate_product_base(QuadraticPerturbation.canonical(tw, c1))
        for c in (c2, c3):
            assert _conjugate_product_base(QuadraticPerturbation.canonical(tw, c)) == first


def test_search_on_pure_power():
    f = parse_unipoly("x^20", F2)
    assert checked_hits(f, TW) == [0]
    assert search_perturbations(f) == parse_unipoly("x^4", F2)


def test_quotient_slices_all_parameters():
    for c1 in TRACE_ZERO:
        for a12 in (0, 1):
            rep = verify_family_a_quotient(fam_a(c1, a12))
            assert rep.all_ok, [(s.degree, s.ok) for s in rep.slices]
            assert rep.sextic_coeff_ok


def test_quotient_degenerate_parameter():
    rep = verify_family_a_quotient(fam_a(0, 1))
    by_deg = {s.degree: s for s in rep.slices}
    assert by_deg[8].actual == surface_monomial(5, F2) ** 4
    assert by_deg[0].actual == TriPoly.constant(F2, 1)
    for d in range(1, 8):
        assert not by_deg[d].actual


def _divided_family_b(f):
    """Oracle for check_family_b_divisor: divide the surface of f by S5 and
    compare the quotient with a20 A^3 S5^3 + a10 A S5 + a5.  Returns
    (divides, factorization_ok, quotient)."""
    K = f.field
    s5 = surface_monomial(5, K)
    q = exact_div(surface_poly(f), s5)
    if isinstance(q, NotDivisible):
        return False, False, None
    A = plane_product(K)
    expected = (
        ((A ** 3) * (s5 ** 3)).scale(f.coeff(20))
        + (A * s5).scale(f.coeff(10))
        + TriPoly.constant(K, f.coeff(5))
    )
    return True, q == expected, q


def _family_b_keys(f):
    rep = check_family_b_divisor(f)
    return rep.divides, rep.factorization_ok


def test_check_family_b_divisor():
    for a10 in (0, 1):
        for a5 in (0, 1):
            f = build_family_b(FamilyBParams(F2, a10, a5, UniPoly.zero(F2)))
            rep = check_family_b_divisor(f)
            assert rep.divides and rep.factorization_ok
    rep = check_family_b_divisor(parse_unipoly("x^20+x^15", F2))
    assert not rep.divides
    f20 = parse_unipoly("x^20", F2)
    assert _family_b_keys(f20) == (True, True)
    assert _divided_family_b(f20)[2] == plane_product(F2) ** 3 * surface_monomial(5, F2) ** 3


# the exponents e < 20 whose S_e is not a multiple of S5: S_e = 0 for 0 and the
# powers of two, and S5, S10 and S17 are multiples (x^17 is toggled separately)
_NON_QUINTIC = (3, 6, 7, 9, 11, 12, 13, 14, 15, 18, 19)


def test_family_b_rule_matches_division_over_gf2():
    # every x^20 + (subset of the non-quintic exponents), with and without x^17
    for bits in range(1 << len(_NON_QUINTIC)):
        terms = {e: 1 for i, e in enumerate(_NON_QUINTIC) if bits >> i & 1}
        for a17 in (0, 1):
            f = UniPoly(F2, {20: 1, 17: a17, **terms})
            assert _family_b_keys(f) == _divided_family_b(f)[:2], f


@pytest.mark.parametrize("n", [2, 3, 4])
def test_family_b_rule_matches_division_sampled(n):
    # a20 x^20 + a17 x^17 + a10 x^10 + a5 x^5 + q-affine tail, with a17 and a
    # stray non-quintic term each present in about half of the draws
    K = Field(n)
    rng = random.Random(40 + n)
    seen = set()
    for _ in range(48):
        terms = {e: rng.randrange(K.order) for e in (10, 5, 16, 8, 4, 2, 1, 0)}
        terms[20] = rng.randrange(1, K.order)
        if rng.random() < 0.5:
            terms[17] = rng.randrange(1, K.order)
        if rng.random() < 0.5:
            terms[rng.choice(_NON_QUINTIC)] = rng.randrange(1, K.order)
        f = UniPoly(K, terms)
        keys = _family_b_keys(f)
        assert keys == _divided_family_b(f)[:2], f
        seen.add(keys)
    assert seen == {(True, True), (True, False), (False, False)}


def test_witness_gold_compose():
    f, L = build_family_a(fam_a(G))
    w = ccz_witness(f)
    assert isinstance(w, CczWitness)
    assert w.kind == "gold_compose"
    assert w.L == L
    assert not w.residual
    assert w.check_field == Field(5)
    assert w.delta_match


def test_witness_linear_of_power():
    f = parse_unipoly("x^20+x^10+x^5", F2)
    w = ccz_witness(f)
    assert w.kind == "linear_of_power"
    assert w.L == parse_unipoly("x^4+x^2+x", F2)
    assert w.delta_match


def test_witness_reconstruction_with_tail():
    tail = parse_unipoly("x^16+x^8+x^2+1", F2)
    f, L = build_family_a(fam_a(G, tail=tail))
    w = ccz_witness(f)
    assert w.kind == "gold_compose"
    assert w.residual == tail
    assert L ** 5 + w.residual == f


def test_witness_absent_for_odd_tail():
    w = ccz_witness(parse_unipoly("x^20+x^19", F2))
    assert isinstance(w, NoWitness)
    assert w.stage == "family_a_search"


def test_witness_absent_for_nonzero_multiplier():
    f, _ = build_family_a(fam_a(G, a12=1))
    w = ccz_witness(f)
    assert isinstance(w, NoWitness)
    assert w.stage == "family_a_reconstruction"


def test_witness_degenerate_linear_part_skips_delta_check():
    f = build_family_b(FamilyBParams(F2, 1, 0, UniPoly.zero(F2)))
    w = ccz_witness(f)
    assert w.kind == "linear_of_power"
    assert w.check_field is None


def test_default_check_field_avoids_conjugate_roots():
    L = linearized_from_conjugates(TW, G)
    K = default_check_field(F2, L)
    assert K.n == 5
    # on the chosen field both sides are APN with equal uniformity
    f, _ = build_family_a(fam_a(G))
    assert differential_uniformity(f, K).delta == differential_uniformity(
        UniPoly.monomial(F2, 5), K
    ).delta


def _old_check_field(base, L):
    # oracle: the exhaustive search over k = 5, 7, 11, 13 it replaced
    for k in (5, 7, 11, 13):
        if 1 << (base.n * k) > classify.CHECK_FIELD_CAP:
            return None
        K = Field(base.n * k)
        if is_permutation(L, K):
            return K
    return None


def _linearized_polys(m, count=None):
    """Every L = a x^4 + b x^2 + c x over GF(2^m), or count seeded ones."""
    q = 1 << m
    coeffs = itertools.product(range(q), repeat=3)
    if count is not None:
        rng = random.Random(m)
        coeffs = [[rng.randrange(q) for _ in range(3)] for _ in range(count)]
    return [UniPoly(Field(m), {4: a, 2: b, 1: c}) for a, b, c in coeffs]


@pytest.mark.parametrize("m,count", [(1, None), (2, None), (3, 40), (4, 12)])
def test_rank_over_the_base_decides_every_extension(m, count):
    # L = a x^4 + b x^2 + c x of full rank over GF(q) permutes GF(q^k) for
    # every k prime to 3, and for every k when L is a monomial; L of lower
    # rank permutes no GF(q^k); checked pointwise for every mk <= 16
    fields = {k: Field(m * k) for k in range(1, 16 // m + 1)}
    for L in _linearized_polys(m, count):
        full = rank(L.eval_bits(1 << i) for i in range(m)) == m
        for k, K in fields.items():
            want = full and (k % 3 != 0 or len(L.terms) == 1)
            assert is_permutation(L, K) == want, (L, k)


@pytest.mark.parametrize("m", [1, 2])
def test_default_check_field_matches_the_exhaustive_search(m):
    base = Field(m)
    for L in _linearized_polys(m):
        assert default_check_field(base, L) == _old_check_field(base, L), L


def test_default_check_field_rejects_other_polynomials():
    for text in ("x^8+x", "x^4+x^3", "x^4+x+1"):
        with pytest.raises(ValueError, match="linearized"):
            default_check_field(F2, parse_unipoly(text, F2))
    with pytest.raises(ValueError, match="linearized"):
        default_check_field(Field(2), parse_unipoly("x^4+x", F2))


def test_witness_requires_degree_20():
    with pytest.raises(ValueError, match="degree"):
        ccz_witness(parse_unipoly("x^12", F2))


def test_full_pipeline_on_quartic_base_tower():
    # base GF(4), extension GF(64): non-trivial coefficients end to end
    F4 = Field(2)
    tw = TowerField(F4)
    ext = tw.ext
    c1 = next(
        b for b in range(1, ext.order) if tw.trace_bits(b) == 0
    )
    p = FamilyAParams(tw, c1, 0, UniPoly.zero(F4))
    f, L = build_family_a(p)
    assert f.degree == 20 and f.field == F4

    rep = verify_family_a_quotient(p)
    assert rep.all_ok and rep.sextic_coeff_ok

    hits = set(checked_hits(f, tw))
    orbit = {c1, tw.frob_bits(c1), tw.frob_bits(tw.frob_bits(c1))}
    assert orbit <= hits

    w = ccz_witness(f)
    assert w.kind == "gold_compose" and w.L == L
    assert w.check_field == Field(10)
    assert w.delta_match

    pb = FamilyBParams(F4, 0b10, 0b11, UniPoly(F4, {16: 1}))
    fb = build_family_b(pb)
    rb = check_family_b_divisor(fb)
    assert rb.divides and rb.factorization_ok
    wb = ccz_witness(fb)
    assert wb.kind == "linear_of_power"
    assert wb.residual == UniPoly(F4, {16: 1})


def _exhaustive_hits(f, tower):
    """Oracle: every c1 in the tower extension whose canonical conjugate
    product divides the surface of f."""
    phi = surface_poly(f)
    hits = []
    for c1 in range(tower.ext.order):
        qp = QuadraticPerturbation.canonical(tower, c1)
        prod = conjugate_product(qp).map_coeffs(tower.embedding.inverse_bits, tower.base)
        if not isinstance(exact_div(phi, prod), NotDivisible):
            hits.append(c1)
    return hits


@st.composite
def degree_20_inputs(draw, K, kind):
    """Degree-20 f over K with any leading coefficient a20 and a q-affine tail,
    one shape per branch of the hit rule:
      random     any coefficients below x^20;
      l5         a20 (L^5 + a12 L^3) + tail for L = x^4 + s2 x^2 + s3 x with
                 random s2, s3, whose cubic X^3 + s2 X + s3 may be reducible;
      base_root  the same with the cubic (X+r)(X^2+rX+u), r != 0 in K;
      scaled     the l5 shape with a20 != 1 (where K allows) and a12 != 0;
      x12        a20 x^20 + a12 x^12 + tail, the l5 shape with L = x^4.
    """
    elem = st.integers(0, K.order - 1)
    nonzero = st.integers(1, K.order - 1)
    a20 = draw(st.integers(min(2, K.order - 1), K.order - 1) if kind == "scaled" else nonzero)
    if kind == "random":
        return UniPoly(K, {e: draw(elem) for e in range(20)}) + UniPoly(K, {20: a20})
    if kind == "base_root":
        r, u = draw(nonzero), draw(elem)
        s2, s3 = u ^ K.sqr(r), K.mul(r, u)
    elif kind == "x12":
        s2 = s3 = 0
    else:
        s2, s3 = draw(elem), draw(elem)
    L = UniPoly(K, {4: 1, 2: s2, 1: s3})
    tail = UniPoly(K, {e: draw(elem) for e in (16, 8, 4, 2, 1, 0)})
    a12 = draw(nonzero if kind == "scaled" else elem)
    return (L ** 5 + (L ** 3).scale(a12)).scale(a20) + tail


@pytest.mark.parametrize("kind", ["random", "l5", "base_root", "scaled", "x12"])
@pytest.mark.parametrize(
    "n, ext_modulus", [(1, None), (1, 0xd), (2, None), (3, None)], ids=["2", "2-0xd", "4", "8"]
)
def test_cubic_roots_match_exhaustive_search(n, ext_modulus, kind):
    K = Field(n)
    tw = TowerField(K, None if ext_modulus is None else Field(3 * n, ext_modulus))

    @settings(max_examples=12 if n < 3 else 4, derandomize=True, deadline=None)
    @given(f=degree_20_inputs(K, kind))
    def check(f):
        assert checked_hits(f, tw) == _exhaustive_hits(f, tw)

    check()


# one input per branch of the hit rule, with the hits the division-based
# search returned on the default towers
_HIT_TABLE = [
    # t != 0 and L of full rank: h irreducible, its roots linear structures
    (1, "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5", [2, 4, 6]),
    (1, "x^20+x^18+x^17+x^6+x^4+x^3", [2, 4, 6]),
    (8, "0x2*x^20+0x2*x^18+0x2*x^17+0x2*x^12+0x2*x^10+0x2*x^9+0x2*x^8+0x2*x^6+0x2*x^5",
     [58028, 279372, 303584]),
    # h irreducible, but D_c f not constant
    (1, "x^20+x^18+x^17", []),
    # h = X^3, every exponent outside {0, 1, 2} divisible by 4
    (1, "x^20+x^12", [0]),
    (2, "0x2*x^20+0x2*x^12", [0]),
    (4, "x^20+x^16+x^12+x^8+x^4+x^2+x+1", [0]),
    # t = 0 otherwise
    (3, "x^20+x^12+x^3", []),
    (1, "x^20+x^18", []),
    # a nonzero root of h in the base field
    (1, "x^20+x^17", []),
    (2, "x^20+0x3*x^18+0x2*x^17+0x3*x^8+x^5+x^4+0x3*x^3", []),
]


@pytest.mark.parametrize("n, text, hits", _HIT_TABLE)
def test_hit_rule_branches(n, text, hits):
    K = Field(n)
    assert checked_hits(parse_unipoly(text, K), TowerField(K)) == hits
