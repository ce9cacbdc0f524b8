import random

import pytest

from apn20.fields import Field
from apn20 import surface
from apn20.polys import NotDivisible, TriPoly, UniPoly, exact_div, parse_tripoly, parse_unipoly
from apn20.surface import (
    IDENTITY_NAMES,
    NamedIdentity,
    NotSymmetric,
    SymPoly,
    check_identity,
    plane_product,
    power_sum,
    run_identity_suite,
    surface_monomial,
    surface_poly,
    sym_expr,
    to_symmetric,
)

F2 = Field(1)
F8 = Field(3)
F16 = Field(4)


def four_point_sum(f: UniPoly) -> TriPoly:
    """f(x) + f(y) + f(z) + f(x+y+z), built in the field of f."""
    x, y, z = (TriPoly.variable(f.field, v) for v in "xyz")
    out = TriPoly.zero(f.field)
    for e, c in f.terms.items():
        out = out + (x ** e + y ** e + z ** e + (x + y + z) ** e).scale(c)
    return out


def divided_in_field(f: UniPoly) -> TriPoly:
    """The oracle: the four-point sum divided by (x+y)(x+z)(y+z) in the field of f."""
    x, y, z = (TriPoly.variable(f.field, v) for v in "xyz")
    q = exact_div(four_point_sum(f), (x + y) * (x + z) * (y + z))
    assert not isinstance(q, NotDivisible)
    return q


def test_cube_gives_constant_one():
    assert surface_poly(UniPoly.monomial(F2, 3)) == TriPoly.constant(F2, 1)


def test_quintic_gives_full_quadric():
    assert surface_poly(UniPoly.monomial(F2, 5)) == parse_tripoly(
        "x^2+y^2+z^2+x*y+x*z+y*z", F2
    )


def test_qaffine_kernel_examples():
    for text in ("x^16+x^8+x^4+x^2+x+1", "x^2", "0x0", "0x1"):
        assert not surface_poly(parse_unipoly(text, F2))


def test_kernel_is_exactly_qaffine_over_gf2():
    for mask in range(1 << 9):
        f = UniPoly(F2, {e: (mask >> e) & 1 for e in range(9)})
        assert (not surface_poly(f)) == f.is_qaffine()


def test_kernel_sampled_over_gf8():
    rng = random.Random(23)
    for _ in range(40):
        f = UniPoly(F8, {e: rng.randrange(8) for e in range(12)})
        assert (not surface_poly(f)) == f.is_qaffine()


@pytest.mark.parametrize(
    "spec", [(3, None), (4, 0x19), (8, 0x11D)], ids=["GF8", "GF16:0x19", "GF256:0x11d"]
)
@pytest.mark.parametrize("d", range(22))
def test_lifted_monomial_matches_surface_in_field(spec, d):
    # S_d is computed once over GF(2) and lifted; the oracle divides in K itself
    K = Field(*spec)
    assert surface_monomial(d, K) == divided_in_field(UniPoly.monomial(K, d))


@pytest.mark.parametrize(
    "spec",
    [(1, None), (3, None), (4, 0x19), (8, 0x11D)],
    ids=["GF2", "GF8", "GF16:0x19", "GF256:0x11d"],
)
def test_surface_poly_matches_division_in_field(spec):
    # random f up to degree 20, with constant and q-affine terms among them
    K = Field(*spec)
    rng = random.Random(spec[0])
    for _ in range(6):
        f = UniPoly(K, {e: rng.randrange(K.order) for e in range(21)})
        f = f + UniPoly(K, {0: rng.randrange(1, K.order), 16: rng.randrange(1, K.order)})
        assert surface_poly(f) == divided_in_field(f), f


def test_surface_poly_divides_nothing_once_its_monomials_are_known(monkeypatch):
    f = parse_unipoly("x^20+0x3*x^18+x^17+0x5*x^12+x^9+0x7*x^4+x+0x2", F8)
    expected = surface_poly(f)
    calls = []

    def counting(num, den):
        calls.append(num.field)
        return exact_div(num, den)

    monkeypatch.setattr(surface, "exact_div", counting)
    assert surface_poly(f) == expected
    assert surface_poly(f.embed(Field(6))) == expected.embed(Field(6))
    assert calls == []


def test_monomial_table_values():
    A = plane_product(F2)
    s5 = surface_monomial(5, F2)
    assert surface_monomial(12, F2) == A ** 3
    assert surface_monomial(20, F2) == A ** 3 * s5 ** 4
    assert surface_monomial(10, F2) == A * s5 ** 2
    assert not surface_monomial(1, F2)
    assert not surface_monomial(2, F2)


def test_numerator_is_plane_times_quotient():
    f = parse_unipoly("x^20+x^7+0x1", F2)
    assert plane_product(F2) * surface_poly(f) == four_point_sum(f)


def test_linearity():
    rng = random.Random(9)
    for _ in range(25):
        f = UniPoly(F8, {e: rng.randrange(8) for e in range(9)})
        g = UniPoly(F8, {e: rng.randrange(8) for e in range(9)})
        c = rng.randrange(1, 8)
        assert surface_poly(f + g) == divided_in_field(f) + divided_in_field(g)
        assert surface_poly(f.scale(c)) == divided_in_field(f).scale(c)


def test_total_degree_drop():
    # the top term must survive the quotient, so d may not be a power of two
    for d in (3, 5, 6, 7, 13, 20):
        f = UniPoly(F8, {d: 1, 1: 1})
        assert surface_poly(f).total_degree == d - 3


def test_power_sum_base_cases():
    assert power_sum(1) == SymPoly.monomial(F2, (1, 0, 0))
    assert power_sum(2) == SymPoly.monomial(F2, (2, 0, 0))
    assert power_sum(3) == SymPoly(F2, {(3, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1})


def test_power_sum_matches_direct_expansion():
    for i in range(41):
        direct = (
            TriPoly(F2, {(i, 0, 0): 1, (0, i, 0): 1, (0, 0, i): 1})
            if i
            else TriPoly.constant(F2, 1)
        )
        assert power_sum(i).expand() == direct


def test_monomial_agrees_with_power_sum_quotient():
    # the quotient of p_i + e1^i by the plane product reproduces S_i
    for i in range(3, 21):
        num = (power_sum(i, F8) + SymPoly.monomial(F8, (i, 0, 0))).expand()
        q = exact_div(num, plane_product(F8))
        assert q == surface_monomial(i, F8)


def test_to_symmetric_examples():
    e1 = TriPoly(F2, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert to_symmetric(e1) == SymPoly.monomial(F2, (1, 0, 0))
    assert to_symmetric(plane_product(F2)) == SymPoly(F2, {(1, 1, 0): 1, (0, 0, 1): 1})
    bad = to_symmetric(TriPoly(F2, {(1, 0, 0): 1, (0, 1, 0): 1}))
    assert isinstance(bad, NotSymmetric)


def test_to_symmetric_round_trip():
    rng = random.Random(4)
    for _ in range(25):
        s = SymPoly(
            F8,
            {
                (rng.randrange(4), rng.randrange(3), rng.randrange(3)): rng.randrange(1, 8)
                for _ in range(5)
            },
        )
        assert to_symmetric(s.expand()) == s


def test_quintic_in_symmetric_basis():
    assert to_symmetric(surface_monomial(5, F8)) == SymPoly(
        F8, {(2, 0, 0): 1, (0, 1, 0): 1}
    )


@pytest.mark.parametrize("n", [1, 3, 4, 5], ids=["GF2", "GF8", "GF16", "GF32"])
def test_identity_suite(n):
    for report in run_identity_suite(Field(n)):
        assert report.holds, (report.name, report.witness)


def test_identity_names_complete():
    assert len(IDENTITY_NAMES) == 10


@pytest.mark.parametrize("n", range(13, 24, 2))
def test_identity_suite_on_large_odd_fields(n):
    # quintic-factorization needs no GF(2^(2n)), which would pass GF(2^24)
    for report in run_identity_suite(Field(n)):
        assert report.holds, (report.name, report.witness)


def test_quintic_factorization_auto_extends_odd_degree_fields():
    # odd-degree fields have no order-3 element; S_5 has GF(2) coefficients,
    # so the checker factors it over GF(4) instead, which must stay fast
    import time

    start = time.perf_counter()
    report = check_identity("quintic-factorization", Field(9))
    assert report.holds
    assert time.perf_counter() - start < 5


def test_even_degree_split_parameters():
    r = check_identity("even-degree-split", F8, d=20, e=5, j=2)
    assert r.holds
    r = check_identity("even-degree-split", F8, d=12, e=3, j=2)
    assert r.holds
    with pytest.raises(ValueError):
        check_identity("even-degree-split", F8, d=20, e=10, j=1)


def test_custom_identity_failure_has_witness():
    ident = NamedIdentity(
        "bogus", "eq", surface_monomial(5, F2), plane_product(F2)
    )
    report = check_identity(ident)
    assert not report.holds
    assert report.witness


def test_unknown_identity_rejected():
    with pytest.raises(ValueError, match="unknown identity"):
        check_identity("no-such-identity", F2)


def test_quintic_not_dividing_plane_product_statement():
    # direct check behind the divisibility row: S5 divides S17 with the
    # expected cofactor degree
    q = exact_div(surface_monomial(17, F8), surface_monomial(5, F8))
    assert not isinstance(q, NotDivisible)
    assert q.total_degree == 12


def test_sym_expr_helper():
    assert sym_expr(F2, {(1, 1, 0): 1, (0, 0, 1): 1}) == plane_product(F2)


def test_quartic_generator_has_order_three():
    from apn20.surface import _quartic_generator

    for n in (2, 4, 6, 8, 10, 12, 16):
        K = Field(n)
        alpha = _quartic_generator(K)
        assert K.sqr(alpha) ^ alpha ^ 1 == 0, n
