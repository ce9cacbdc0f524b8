import random

import pytest
from hypothesis import given, settings, strategies as st

from apn20.fields import Field
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

F2 = Field(1)
F8 = Field(3)
F32 = Field(5)


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


def test_is_permutation_matches_pointwise_oracle():
    # table fields decide through the value table; the oracle evaluates
    rng = random.Random(20)
    seen = set()
    for n in range(1, 9):
        K = Field(n)
        for _ in range(12):
            exps = [1 << i for i in range(n)] if rng.random() < 0.5 else range(3 * K.order)
            f = UniPoly(K, {e: rng.randrange(K.order) for e in rng.sample(exps, min(3, len(exps)))})
            f = f + UniPoly(K, {0: rng.randrange(K.order)})
            want = len({f.eval_bits(x) for x in range(K.order)}) == K.order
            assert is_permutation(f, K) == want
            seen.add(want)
    assert seen == {True, False}


def test_is_permutation_without_tables():
    K = Field(17)
    assert not K.has_tables
    assert is_permutation(parse_unipoly("x^2", F2), K)
    # x^4 + x vanishes at 0 and 1: the loop stops at x = 1
    assert not is_permutation(parse_unipoly("x^4+x", F2), K)
    # 3 divides 2^18 - 1, so cubing is not injective on GF(2^18)
    assert not is_permutation(parse_unipoly("x^3", F2), Field(18))


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


def reference_div(num, den):
    """Oracle: grlex reduction that scans the whole remainder for its leader."""
    field = num.field
    mul = field.mul
    key = lambda m: (m[0] + m[1] + m[2], m[0], m[1])
    dl = max(den.terms, key=key)
    dinv = field.inv(den.terms[dl])
    r = dict(num.terms)
    q = {}
    while r:
        rl = max(r, key=key)
        mi, mj, mk = rl[0] - dl[0], rl[1] - dl[1], rl[2] - dl[2]
        if mi < 0 or mj < 0 or mk < 0:
            return NotDivisible(rl)
        c = mul(r[rl], dinv)
        q[(mi, mj, mk)] = c
        for (di, dj, dk), dc in den.terms.items():
            m = (mi + di, mj + dj, mk + dk)
            v = r.get(m, 0) ^ mul(c, dc)
            if v:
                r[m] = v
            else:
                r.pop(m, None)
    return TriPoly(field, q)


def check_against_reference(field):
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        a=tri_polys(field, max_exp=30),
        b=tri_polys(field, max_exp=30),
        r=st.one_of(st.just(TriPoly.zero(field)), tri_polys(field, max_exp=30, max_terms=3)),
    )
    def check(a, b, r):
        if not b:
            return
        num = a * b + r
        got, want = exact_div(num, b), reference_div(num, b)
        if isinstance(want, NotDivisible):
            assert isinstance(got, NotDivisible)
            assert got.leading_monomial == want.leading_monomial
        else:
            assert got == want
        if not r:
            assert got == a

    check()


def test_exact_div_round_trip():
    # a*b and a*b + r, exponents up to 30, on table fields and a generic one
    generic = Field(18)
    assert not generic.has_tables
    for field in (F2, F8, Field(8), generic):
        check_against_reference(field)


def test_exact_div_remainder_exponents_exceed_the_inputs():
    # x*y = y*(x+y) + y^2: the remainder holds y^2, an exponent above any in
    # num and den, so packing must be sized by total degree
    res = exact_div(parse_tripoly("x*y", F2), parse_tripoly("x+y", F2))
    assert isinstance(res, NotDivisible)
    assert res.leading_monomial == (0, 2, 0)


def test_exact_div_exponents_beyond_16_bits():
    # exponents above 2^16 would overflow a fixed 16-bit packing
    e = (1 << 16) + 3
    num = TriPoly.monomial(F8, (e, 1, 0), 5)
    den = TriPoly.monomial(F8, (1, 1, 0))
    assert exact_div(num, den) == TriPoly.monomial(F8, (e - 1, 0, 0), 5)
    odd = num + TriPoly.monomial(F8, (0, 0, 1 << 16))
    res = exact_div(odd, den)
    assert isinstance(res, NotDivisible)
    assert res.leading_monomial == (0, 0, 1 << 16)


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
    with pytest.raises(PolyParseError) as e:
        parse_unipoly("x^2 + y", F2)
    assert e.value.position == 6
    with pytest.raises(PolyParseError):
        parse_unipoly("x^2 + + x", F2)
    with pytest.raises(PolyParseError, match="out of range"):
        parse_unipoly("0x9*x", F8)
    # the position is that of the '*'-separated piece at fault, not its term
    for text, message, position in (
        ("x^2 + x*w", "bad factor 'w'", 8),
        ("x^2 + 0x3*x^2*0xZ", "bad coefficient '0xZ'", 14),
        ("x^2 + x*y", "variable 'y'", 8),
        ("x^2 + x * 0x9", "out of range", 10),
    ):
        with pytest.raises(PolyParseError, match=message) as e:
            parse_unipoly(text, F8)
        assert e.value.position == position, text


def test_zero_polynomial_formats():
    assert format_unipoly(UniPoly.zero(F2)) == "0x0"
    assert parse_unipoly("0x0", F2) == UniPoly.zero(F2)
    assert format_tripoly(TriPoly.zero(F2)) == "0x0"


def test_embed_unipoly_into_extension():
    F4 = Field(2)
    f = UniPoly(F4, {3: 0b10, 1: 0b11})
    g = f.embed(Field(6))
    # evaluation commutes with the embedding
    from apn20.fields import find_embedding

    emb = find_embedding(F4, Field(6))
    for x in range(4):
        assert g.eval_bits(emb.map_bits(x)) == emb.map_bits(f.eval_bits(x))


def test_cross_field_operations_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        parse_unipoly("x", F2) + parse_unipoly("x", F8)
    with pytest.raises(ValueError, match="mismatch"):
        parse_tripoly("x", F2) * parse_tripoly("x", F8)
