import pytest
from hypothesis import given, settings, strategies as st

from apn20.fields import field_make
from apn20.polys import (
    NotDivisible,
    PolyParseError,
    TriPoly,
    UniPoly,
    exact_div,
    format_tripoly,
    format_unipoly,
    is_permutation,
    parse_tripoly,
    parse_unipoly,
)
from apn20.surface import SymPoly

F2 = field_make(1)
F8 = field_make(3)
F32 = field_make(5)


def test_compose_square_of_sum():
    xsq = UniPoly(F2, {2: 1})
    assert xsq.compose(parse_unipoly("x+1", F2)) == parse_unipoly("x^2+1", F2)


def test_eval_gf2_identity():
    f = parse_unipoly("x^3+x", F2)
    for a in range(2):
        assert f.eval_bits(a) == 0


def test_frobenius_squaring():
    f = parse_unipoly("x^4+x^2+x", F2)
    assert f * f == parse_unipoly("x^8+x^4+x^2", F2)


def test_degree_and_coeffs():
    f = parse_unipoly("x^20+0x3*x^5", F8)
    assert f.degree == 20
    assert f.coeff(5) == 3
    assert f.coeff(7) == 0
    assert UniPoly.zero(F8).degree == -1


def test_is_qaffine():
    assert parse_unipoly("x^16+x^8+x^4+x^2+x+1", F2).is_qaffine()
    assert not parse_unipoly("x^20", F2).is_qaffine()
    assert not parse_unipoly("x^5+x^4", F2).is_qaffine()
    assert UniPoly.zero(F2).is_qaffine()


def test_is_permutation_linearized():
    L = parse_unipoly("x^4+x^2+x", F2)
    assert is_permutation(L, F32)
    assert not is_permutation(L, F8)
    assert is_permutation(parse_unipoly("x^2", F2), F8)


def test_permutation_invariant_under_constant_shift():
    f = parse_unipoly("x^6+x", F8)
    base = is_permutation(f, F8)
    for c in range(8):
        assert is_permutation(f + UniPoly(F8, {0: c}), F8) == base


def test_linearized_permutation_iff_no_nonzero_root():
    # every linearized polynomial over GF(8) with exponents 1, 2, 4
    for c1 in range(8):
        for c2 in range(8):
            for c4 in range(8):
                f = UniPoly(F8, {1: c1, 2: c2, 4: c4})
                if not f:
                    continue
                has_root = any(f.eval_bits(x) == 0 for x in range(1, 8))
                assert is_permutation(f, F8) == (not has_root)


def test_tri_basics():
    x = TriPoly.variable(F2, "x")
    y = TriPoly.variable(F2, "y")
    z = TriPoly.variable(F2, "z")
    assert (x + y) * (x + y) == parse_tripoly("x^2+y^2", F2)
    a = parse_tripoly("x^2*y+z", F2)
    assert not (a + a)
    assert (x + y) * (x + z) * (y + z) == parse_tripoly(
        "x^2*y+x^2*z+x*y^2+y^2*z+x*z^2+y*z^2", F2
    )


def test_exact_div_examples():
    assert exact_div(parse_tripoly("x^2+y^2", F2), parse_tripoly("x+y", F2)) == parse_tripoly("x+y", F2)
    A = parse_tripoly("x^2*y+x^2*z+x*y^2+y^2*z+x*z^2+y*z^2", F2)
    s5 = parse_tripoly("x^2+y^2+z^2+x*y+x*z+y*z", F2)
    assert exact_div(A * s5, A) == s5
    res = exact_div(parse_tripoly("x^2+y", F2), parse_tripoly("x+y", F2))
    assert isinstance(res, NotDivisible)
    assert res.leading_monomial == (0, 2, 0)
    with pytest.raises(ZeroDivisionError):
        exact_div(A, TriPoly.zero(F2))


def tri_polys(field, max_exp=3, max_terms=5):
    coeffs = st.integers(min_value=1, max_value=field.order - 1)
    monos = st.tuples(
        st.integers(0, max_exp), st.integers(0, max_exp), st.integers(0, max_exp)
    )
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda d: TriPoly(field, d)
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(a=tri_polys(F8), b=tri_polys(F8))
def test_exact_div_round_trip(a, b):
    if not b:
        return
    assert exact_div(a * b, b) == a


def uni_polys(field, max_exp=6, max_terms=4):
    coeffs = st.integers(min_value=1, max_value=field.order - 1)
    return st.dictionaries(st.integers(0, max_exp), coeffs, max_size=max_terms).map(
        lambda d: UniPoly(field, d)
    )


def sym_polys(field, **kwargs):
    return tri_polys(field, **kwargs).map(lambda t: SymPoly(field, t.terms))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    p=st.one_of(
        uni_polys(F8),
        tri_polys(F8, max_exp=2, max_terms=3),
        sym_polys(F8, max_exp=2, max_terms=3),
    ),
    k=st.integers(0, 6),
)
def test_power_equals_repeated_product(p, k):
    # __pow__ squares through each class's _sqr; the oracle only multiplies
    expected = type(p).constant(F8, 1)
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


@settings(max_examples=40, derandomize=True, deadline=None)
@given(a=sym_polys(F8, max_terms=4), b=sym_polys(F8, max_terms=4))
def test_expand_is_multiplicative(a, b):
    assert (a * b).expand() == a.expand() * b.expand()
    assert (a + b).expand() == a.expand() + b.expand()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(p=tri_polys(F8))
def test_tripoly_format_parse_round_trip(p):
    assert parse_tripoly(format_tripoly(p), F8) == p


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    terms=st.dictionaries(
        st.integers(0, 24), st.integers(1, 7), max_size=6
    )
)
def test_unipoly_format_parse_round_trip(terms):
    p = UniPoly(F8, terms)
    assert parse_unipoly(format_unipoly(p), F8) == p


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as e:
        parse_unipoly("x^2 + w^3", F2)
    assert e.value.position == 6
    with pytest.raises(PolyParseError):
        parse_unipoly("x^2 + y", F2)
    with pytest.raises(PolyParseError):
        parse_unipoly("x^2 + + x", F2)
    with pytest.raises(PolyParseError, match="out of range"):
        parse_unipoly("0x9*x", F8)


def test_zero_polynomial_formats():
    assert format_unipoly(UniPoly.zero(F2)) == "0x0"
    assert parse_unipoly("0x0", F2) == UniPoly.zero(F2)
    assert format_tripoly(TriPoly.zero(F2)) == "0x0"


def test_embed_unipoly_into_extension():
    F4 = field_make(2)
    f = UniPoly(F4, {3: 0b10, 1: 0b11})
    g = f.embed(field_make(6))
    # evaluation commutes with the embedding
    from apn20.fields import find_embedding

    emb = find_embedding(F4, field_make(6))
    for x in range(4):
        assert g.eval_bits(emb.map_bits(x)) == emb.map_bits(f.eval_bits(x))


def test_cross_field_operations_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        parse_unipoly("x", F2) + parse_unipoly("x", F8)
    with pytest.raises(ValueError, match="mismatch"):
        parse_tripoly("x", F2) * parse_tripoly("x", F8)
