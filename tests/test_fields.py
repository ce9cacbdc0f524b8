import pytest

from apn20.fields import (
    Field,
    TowerField,
    find_embedding,
    is_irreducible,
    parse_field_spec,
    roots,
    smallest_irreducible,
)
from apn20.polys import UniPoly


def brute_force_irreducible(m: int) -> bool:
    """Oracle: trial divide by every smaller-degree polynomial."""
    n = m.bit_length() - 1
    if n < 1:
        return False
    for d in range(1, n):
        for cand in range(1 << d, 1 << (d + 1)):
            r = m
            while r.bit_length() - 1 >= d:
                r ^= cand << (r.bit_length() - 1 - d)
            if r == 0:
                return False
    return True


def test_default_moduli():
    assert Field(2).modulus == 0b111
    assert Field(3).modulus == 0b1011


def test_smallest_irreducible_matches_brute_force():
    for n in range(1, 11):
        m = smallest_irreducible(n)
        assert brute_force_irreducible(m)
        # nothing smaller of the same degree is irreducible
        for c in range(1 << n, m):
            assert not brute_force_irreducible(c)


def test_rabin_matches_brute_force_exhaustively():
    for m in range(2, 1 << 9):
        if m.bit_length() - 1 >= 1:
            assert is_irreducible(m) == brute_force_irreducible(m), bin(m)


def test_explicit_modulus_accepted():
    f = Field(4, 0b11001)  # t^4 + t^3 + 1
    assert f.modulus == 0b11001


def test_reducible_modulus_rejected_with_factor():
    with pytest.raises(ValueError, match="divisible by"):
        Field(4, 0b10001)  # t^4+1 = (t+1)^4
    with pytest.raises(ValueError, match="degree"):
        Field(4, 0b1011)


def test_gf4_multiplication():
    F = Field(2)
    assert F.mul(0b10, 0b10) == 0b11  # t*t = t+1


def test_char2_addition():
    # addition is xor, and squaring is additive in characteristic 2
    F = Field(5)
    for a in range(F.order):
        for b in (0, 1, 0b10, 0b10110):
            assert F.sqr(a ^ b) == F.sqr(a) ^ F.sqr(b)


def test_gf8_inverse():
    F = Field(3)
    g = 0b10
    assert F.inv(g) == 0b101
    assert F.mul(g, 0b101) == 1
    assert F.pow_(g, -1) == 0b101 and F.pow_(g, 7) == 1
    for a in range(1, F.order):
        assert F.mul(a, F.inv(a)) == 1


def test_inverse_of_zero_rejected():
    F = Field(3)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_pow_matches_repeated_multiplication():
    F = Field(4)
    for a in range(F.order):
        acc = 1
        for e in range(10):
            assert F.pow_(a, e) == acc
            acc = F.mul(acc, a)


# irreducible moduli for which t is not primitive (t has order 5, 9 and 51),
# so the generator of the tables is not t
NON_PRIMITIVE_MODULI = [(4, 0x1F), (6, 0x49), (8, 0x11B)]
TABLE_MODULI = [(n, None) for n in range(1, 17)] + NON_PRIMITIVE_MODULI


def test_table_path_matches_generic_path():
    import random

    for n, modulus in TABLE_MODULI:
        F = Field(n, modulus)
        q1 = F.order - 1
        assert F.has_tables and len(F._exp) == 2 * q1
        assert sorted(F._exp[:q1]) == list(range(1, F.order)), F.spec()
        assert all(F._log[F._exp[i]] == i for i in range(q1)), F.spec()
        assert F._exp[q1:] == F._exp[:q1]
        if n <= 8:
            pairs = [(a, b) for a in range(F.order) for b in range(F.order)]
        else:
            rng = random.Random(n)
            pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
        for a, b in pairs:
            assert F.mul(a, b) == F.mul_generic(a, b), (F.spec(), a, b)


def test_table_generator_is_not_t_for_non_primitive_moduli():
    for n, modulus in NON_PRIMITIVE_MODULI:
        F = Field(n, modulus)
        assert any(F._pow_generic(0b10, k) == 1 for k in range(1, F.order - 1))
        assert F._exp[1] != 0b10


@pytest.mark.parametrize("n", range(17, 25))
def test_generic_inverse_matches_fermat(n):
    import random

    F = Field(n)
    assert not F.has_tables
    rng = random.Random(n)
    for a in [1, 0b10, F.order - 1] + [rng.randrange(1, F.order) for _ in range(30)]:
        inv = F.inv(a)
        assert inv == F._pow_generic(a, F.order - 2), a
        assert F.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_generic_only_field_agrees_with_table_field():
    # GF(2^8) has tables and GF(2^24) does not: the embedding is a
    # homomorphism only if both paths compute the same field
    import random

    small = Field(8)
    big = Field(24)
    assert small.has_tables and not big.has_tables
    emb = find_embedding(small, big).map_bits
    rng = random.Random(24)
    for _ in range(300):
        a, b = rng.randrange(1, small.order), rng.randrange(small.order)
        assert emb(small.mul(a, b)) == big.mul(emb(a), emb(b))
        assert emb(small.inv(a)) == big.inv(emb(a))


def test_field_spec_roundtrip():
    f = parse_field_spec("4:0x13")
    assert f.n == 4 and f.modulus == 0x13
    assert parse_field_spec(f.spec()) == f
    assert parse_field_spec("3").modulus == 0b1011
    with pytest.raises(ValueError):
        parse_field_spec("x")
    with pytest.raises(ValueError):
        parse_field_spec("4:zz")


# -- towers ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tower_1_3():
    return TowerField(Field(1))


@pytest.fixture(scope="module")
def tower_2_6():
    return TowerField(Field(2))


@pytest.fixture(scope="module")
def tower_3_9():
    return TowerField(Field(3))


def test_frobenius_generates_order_three(tower_2_6):
    tw = tower_2_6
    for b in range(tw.ext.order):
        assert tw.frob_bits(tw.frob_bits(tw.frob_bits(b))) == b


def test_frobenius_is_field_automorphism(tower_2_6):
    tw = tower_2_6
    import random

    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(tw.ext.order)
        b = rng.randrange(tw.ext.order)
        assert tw.frob_bits(a ^ b) == tw.frob_bits(a) ^ tw.frob_bits(b)
        assert tw.frob_bits(tw.ext.mul(a, b)) == tw.ext.mul(
            tw.frob_bits(a), tw.frob_bits(b)
        )


def test_base_is_fixed_field(tower_2_6):
    tw = tower_2_6
    image = {tw.embedding.map_bits(b) for b in range(tw.base.order)}
    fixed = {b for b in range(tw.ext.order) if tw.frob_bits(b) == b}
    assert image == fixed


def test_embedding_is_homomorphism(tower_3_9):
    tw = tower_3_9
    emb = tw.embedding.map_bits
    for a in range(tw.base.order):
        for b in range(tw.base.order):
            assert emb(tw.base.mul(a, b)) == tw.ext.mul(emb(a), emb(b))
            assert emb(a ^ b) == emb(a) ^ emb(b)
    assert emb(1) == 1


def test_gf8_frobenius_example(tower_1_3):
    tw = tower_1_3
    assert tw.frob_bits(0b10) == tw.ext.sqr(0b10)


def test_trace_norm_values(tower_1_3):
    tw = tower_1_3
    assert (tw.trace_bits(0b10), tw.norm_bits(0b10)) == (0, 1)
    assert (tw.trace_bits(1), tw.norm_bits(1)) == (1, 1)
    assert (tw.trace_bits(0), tw.norm_bits(0)) == (0, 0)


def test_trace_additive_norm_multiplicative(tower_1_3, tower_2_6):
    for tw in (tower_1_3, tower_2_6):
        q = tw.ext.order
        for a in range(q):
            for b in range(q):
                assert tw.trace_bits(a ^ b) == tw.trace_bits(a) ^ tw.trace_bits(b)
                assert tw.norm_bits(tw.ext.mul(a, b)) == tw.ext.mul(
                    tw.norm_bits(a), tw.norm_bits(b)
                )


def test_orbit_forms_are_galois_stable(tower_1_3, tower_2_6, tower_3_9):
    # single-argument forms exhaustively over every tower up to 2^15,
    # multi-argument forms on seeded samples
    import random

    rng = random.Random(11)
    towers = (tower_1_3, tower_2_6, tower_3_9, TowerField(Field(4)), TowerField(Field(5)))
    for tw in towers:
        for a in range(tw.ext.order):
            assert tw.frob_bits(tw.trace_bits(a)) == tw.trace_bits(a)
            assert tw.frob_bits(tw.norm_bits(a)) == tw.norm_bits(a)
            assert tw.frob_bits(tw.q1_bits(a)) == tw.q1_bits(a)
        for _ in range(40):
            a = rng.randrange(tw.ext.order)
            b = rng.randrange(tw.ext.order)
            for v in (tw.q4_bits(a, b), tw.q5_bits(a, b)):
                assert tw.frob_bits(v) == v


def test_frobenius_order_three_exhaustive_up_to_2_15():
    for n in (3, 4, 5):
        tw = TowerField(Field(n))
        for b in range(tw.ext.order):
            f = tw.frob_bits(b)
            assert tw.frob_bits(tw.frob_bits(f)) == b


def test_q_form_special_values(tower_2_6):
    tw = tower_2_6
    ext = tw.ext
    import random

    rng = random.Random(3)
    assert tw.q1_bits(0) == 0
    for _ in range(50):
        a = rng.randrange(ext.order)
        assert tw.q4_bits(a, 0) == 0
        assert tw.q4_bits(a, a) == tw.norm_bits(a)
        assert tw.q5_bits(a, a) == 0


def test_quartic_product_coefficients(tower_1_3, tower_2_6):
    # x (x+c)(x+c^q)(x+c^{q^2}) = x^4 + tr(c) x^3 + q1(c) x^2 + N(c) x
    for tw in (tower_1_3, tower_2_6):
        ext = tw.ext
        for c in range(ext.order):
            c1 = tw.frob_bits(c)
            c2 = tw.frob_bits(c1)
            # elementary symmetric functions of the three conjugates
            e1 = c ^ c1 ^ c2
            e2 = ext.mul(c, c1) ^ ext.mul(c, c2) ^ ext.mul(c1, c2)
            e3 = ext.mul(c, ext.mul(c1, c2))
            assert e1 == tw.trace_bits(c)
            assert e2 == tw.q1_bits(c)
            assert e3 == tw.norm_bits(c)
            if tw.trace_bits(c) == 0:
                assert tw.frob_bits(e2) == e2 and tw.frob_bits(e3) == e3


def test_to_base_rejects_non_fixed(tower_1_3):
    tw = tower_1_3
    moving = next(b for b in range(tw.ext.order) if tw.frob_bits(b) != b)
    with pytest.raises(ValueError, match="image"):
        tw.embedding.inverse_bits(moving)


def test_inverse_bits_inverts_map_bits_for_every_subfield():
    for n in range(1, 13):
        ext = Field(n)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            emb = find_embedding(Field(m), ext)
            image = set()
            for b in range(1 << m):
                image.add(emb.map_bits(b))
                assert emb.inverse_bits(emb.map_bits(b)) == b
            outside = next((v for v in range(ext.order) if v not in image), None)
            if outside is not None:
                with pytest.raises(ValueError, match="image"):
                    emb.inverse_bits(outside)
            for bad in (ext.order, -1):
                with pytest.raises(ValueError, match="image"):
                    emb.inverse_bits(bad)


def _frob_by_squaring(tw, b):
    # oracle: x^q by m squarings in the extension
    for _ in range(tw.base.n):
        b = tw.ext.sqr(b)
    return b


def test_frob_bits_equals_repeated_squaring():
    import random

    for m in (1, 2, 3, 4):
        tw = TowerField(Field(m))
        for b in range(tw.ext.order):
            assert tw.frob_bits(b) == _frob_by_squaring(tw, b)
    tw = TowerField(Field(8))
    rng = random.Random(8)
    for b in [0, 1, tw.ext.order - 1] + [rng.randrange(tw.ext.order) for _ in range(200)]:
        assert tw.frob_bits(b) == _frob_by_squaring(tw, b)


def test_general_embedding_tower():
    base = Field(4)
    ext = Field(12)
    emb = find_embedding(base, ext)
    for a in (0, 1, 5, 9, 15):
        for b in (0, 1, 7, 11):
            assert emb.map_bits(base.mul(a, b)) == ext.mul(
                emb.map_bits(a), emb.map_bits(b)
            )
    with pytest.raises(ValueError, match="embed"):
        find_embedding(Field(3), Field(4))


def _eval_dense(coeffs, x, K):
    acc = 0
    for c in reversed(coeffs):
        acc = K.mul(acc, x) ^ c
    return acc


def test_embedding_is_the_smallest_root_of_the_base_modulus():
    for n in range(1, 13):
        ext = Field(n)
        for m in (d for d in range(1, n + 1) if n % d == 0):
            base = Field(m)
            modulus = [(base.modulus >> i) & 1 for i in range(m + 1)]
            smallest = next(x for x in range(ext.order) if _eval_dense(modulus, x, ext) == 0)
            assert find_embedding(base, ext).beta == smallest, (m, n)


def test_roots_match_brute_force_with_repeated_factors():
    import random

    rng = random.Random(6)
    for n in (1, 2, 3, 4, 6, 8):
        K = Field(n)
        for _ in range(20):
            # squared linear factors and a random monic cofactor of degree 1..3
            p = UniPoly(K, {0: rng.randrange(1, K.order)})
            for _ in range(rng.randrange(4)):
                p = p * UniPoly(K, {1: 1, 0: rng.randrange(K.order)}) ** 2
            d = rng.randrange(1, 4)
            p = p * UniPoly(K, {e: rng.randrange(K.order) for e in range(d)} | {d: 1})
            coeffs = [p.coeff(e) for e in range(p.degree + 1)]
            brute = [x for x in range(K.order) if _eval_dense(coeffs, x, K) == 0]
            assert roots(coeffs, K) == brute, (n, coeffs)
    with pytest.raises(ValueError, match="zero polynomial"):
        roots([0, 0], Field(3))
