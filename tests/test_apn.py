import random

import pytest
from hypothesis import given, settings, strategies as st

from apn20.apn import (
    CapExceeded,
    apn_scan,
    coefficient_degree,
    diff_count,
    differential_path,
    differential_uniformity,
    frobenius_orbit_reps,
    invariance_check,
    value_table,
)
from apn20.fields import Field
from apn20.polys import UniPoly, parse_unipoly

F2 = Field(1)
F8 = Field(3)
F16 = Field(4)
F32 = Field(5)

X3 = UniPoly.monomial(F2, 3)
X5 = UniPoly.monomial(F2, 5)


def test_linearized_derivative_is_constant():
    f = parse_unipoly("x^2", F2)
    a = 0b10
    assert diff_count(f, F16, a, F16.mul(a, a)) == F16.order
    assert diff_count(f, F16, a, 1) == 0


def test_gold_counts_on_gf8():
    counts = {
        diff_count(X3, F8, a, b) for a in range(1, 8) for b in range(8)
    }
    assert counts == {0, 2}


def test_counts_always_even():
    rng = random.Random(1)
    f = UniPoly(F8, {e: rng.randrange(8) for e in range(7)})
    for a in range(1, 8):
        for b in range(8):
            assert diff_count(f, F8, a, b) % 2 == 0


def test_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        diff_count(X3, F8, 0, 1)


@pytest.mark.parametrize("a, b", [(8, 1), (1, 8), (-1, 1), (1, -1)])
def test_diff_count_rejects_out_of_range_elements(a, b):
    with pytest.raises(ValueError, match=r"not an element of GF\(2\^3\)"):
        diff_count(X3, F8, a, b)


def test_row_sums_equal_field_size():
    rep = differential_uniformity(parse_unipoly("x^6+x^3+x", F8), F8, keep_ddt=True)
    for row in rep.ddt:
        assert sum(row) == F8.order


def test_delta_even_and_at_least_two():
    rng = random.Random(2)
    for _ in range(10):
        f = UniPoly(F16, {e: rng.randrange(16) for e in range(8)})
        rep = differential_uniformity(f, F16)
        assert rep.delta >= 2 and rep.delta % 2 == 0


def test_worst_pair_attains_delta_and_is_smallest():
    f = parse_unipoly("x^6+x^5", F8)
    rep = differential_uniformity(f, F8)
    assert diff_count(f, F8, rep.worst_a, rep.worst_b) == rep.delta
    for a in range(1, rep.worst_a):
        for b in range(F8.order):
            assert diff_count(f, F8, a, b) < rep.delta
    for b in range(rep.worst_b):
        assert diff_count(f, F8, rep.worst_a, b) < rep.delta


def test_known_apn_verdicts():
    assert differential_uniformity(X3, F16).is_apn
    assert not differential_uniformity(X5, F16).is_apn
    assert differential_uniformity(X5, F32).is_apn
    assert differential_uniformity(UniPoly.monomial(F2, 13), F32).is_apn


def test_scan_gold_and_quintic():
    rows = apn_scan(X5, range(2, 9))
    assert {r.n for r in rows if r.is_apn} == {3, 5, 7}
    rows20 = apn_scan(UniPoly.monomial(F2, 20), range(2, 9))
    assert [(r.n, r.is_apn) for r in rows20] == [(r.n, r.is_apn) for r in rows]


def test_scan_quintic_plus_cubic_fails_somewhere_odd():
    rows = apn_scan(parse_unipoly("x^5+x^3", F2), range(2, 10))
    assert any(not r.is_apn for r in rows if r.n % 2 == 1)


def test_scan_skips_unembeddable_degrees():
    f = UniPoly.monomial(Field(2), 3)
    rows = apn_scan(f, range(2, 7))
    skipped = {r.n for r in rows if r.skipped}
    assert skipped == {3, 5}
    assert all(r.reason for r in rows if r.skipped)
    assert all(r.delta is not None for r in rows if not r.skipped)


def test_value_table_embeds_coefficients():
    vt = value_table(X3, F8)
    assert vt == [F8.pow_(x, 3) for x in range(8)]
    assert value_table(UniPoly(F2, {}), F8) == [0] * 8


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        differential_uniformity(X3, Field(21))
    with pytest.raises(CapExceeded):
        differential_uniformity(X3, Field(11), keep_ddt=True)


def test_invariance_add_qaffine():
    assert invariance_check(X3, "add_qaffine", parse_unipoly("x^2+x+1", F2), F16)
    rng = random.Random(3)
    f = parse_unipoly("x^20+x^10+x^5", F2)
    for _ in range(10):
        g = UniPoly(F32, {1 << e: rng.randrange(32) for e in range(5)})
        g = g + UniPoly(F32, {0: rng.randrange(32)})
        assert invariance_check(f, "add_qaffine", g, F32)


def test_invariance_composition():
    assert invariance_check(X5, "pre_compose", parse_unipoly("x^2", F2), F32)
    assert invariance_check(X5, "pre_compose", parse_unipoly("x^4+x^2+x", F2), F32)
    assert invariance_check(X5, "post_compose", parse_unipoly("x^4+x^2+x", F2), F32)


def test_invariance_rejections():
    with pytest.raises(ValueError, match="q-affine"):
        invariance_check(X5, "add_qaffine", parse_unipoly("x^3", F2), F32)
    with pytest.raises(ValueError, match="permutation"):
        invariance_check(X5, "pre_compose", parse_unipoly("x^4+x^2+x", F2), F8)
    with pytest.raises(ValueError, match="transform"):
        invariance_check(X5, "conjugate", X3, F8)


def test_scan_results_independent_of_partitioning():
    # per-degree work is pure, so splitting the range and concatenating
    # must reproduce the single-pass report exactly
    f = parse_unipoly("x^20+x^5", F2)
    whole = apn_scan(f, range(2, 9))
    split = apn_scan(f, range(2, 5)) + apn_scan(f, range(5, 9))
    assert [
        (r.n, r.delta, r.is_apn, r.worst_a, r.worst_b) for r in whole
    ] == [(r.n, r.delta, r.is_apn, r.worst_a, r.worst_b) for r in split]


def test_composition_preserves_delta_for_linear_permutations():
    f = parse_unipoly("x^20+x^10+x^5", F2)
    base = differential_uniformity(f, F32).delta
    for L in (parse_unipoly("x^2", F2), parse_unipoly("x^4+x^2+x", F2)):
        fe = f.embed(F32)
        le = L.embed(F32)
        assert differential_uniformity(fe.compose(le), F32).delta == base
        assert differential_uniformity(le.compose(fe), F32).delta == base


# -- fast paths against the brute-force oracle --------------------------------

QUADRATIC_EXPS = sorted({(1 << i) | (1 << j) for i in range(11) for j in range(11)})
GENERAL_EXPS = [e for e in range(1, 64) if bin(e).count("1") >= 3]


@st.composite
def subfield_polys(draw, n, kind):
    """A polynomial over a random subfield GF(2^m) of GF(2^n) taking `kind`'s path."""
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    B = Field(m)
    coeff = st.integers(1, B.order - 1)
    if kind == "monomial":
        exps = [draw(st.integers(1, 64))]
    elif kind == "quadratic":
        exps = draw(st.lists(st.sampled_from(QUADRATIC_EXPS), min_size=2, max_size=5, unique=True))
    else:
        exps = draw(st.lists(st.sampled_from(GENERAL_EXPS), min_size=1, max_size=2, unique=True))
        rest = [e for e in range(1, 41) if e not in exps]
        exps += draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))
    terms = {e: draw(coeff) for e in exps}
    terms[0] = draw(st.integers(0, B.order - 1))
    return UniPoly(B, terms)


@pytest.mark.parametrize("kind", ["monomial", "quadratic", "brute"])
@pytest.mark.parametrize("n", range(1, 11))
def test_fast_paths_match_brute_force(n, kind):
    K = Field(n)

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(f=subfield_polys(n, kind))
    def check(f):
        assert differential_path(f.embed(K)) == kind
        fast = differential_uniformity(f, K)
        oracle = differential_uniformity(f, K, keep_ddt=True)
        assert (fast.delta, fast.worst_a, fast.worst_b) == (
            oracle.delta, oracle.worst_a, oracle.worst_b
        )

    check()


@st.composite
def wide_exponent_polys(draw, n):
    """A polynomial over a random subfield of GF(2^n) with exponents up to 3q,
    drawn so that constant terms, e >= q - 1 and multiples of q - 1 occur."""
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    B = Field(m)
    q1 = (1 << n) - 1
    exp = st.one_of(st.integers(0, 3 * q1 + 3), st.sampled_from([0, q1, 2 * q1, 3 * q1]))
    exps = draw(st.lists(exp, min_size=1, max_size=6, unique=True))
    return UniPoly(B, {e: draw(st.integers(1, B.order - 1)) for e in exps})


@pytest.mark.parametrize("n", range(1, 13))
def test_value_table_matches_pointwise_evaluation(n):
    K = Field(n)
    q1 = K.order - 1
    seen = set()

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(f=wide_exponent_polys(n))
    def check(f):
        g = f.embed(K)
        assert value_table(f, K) == [g.eval_bits(x) for x in range(K.order)]
        seen.update(e == 0 or (e >= q1, e % q1 == 0) for e in f.terms)

    check()
    # every e is a multiple of q - 1 = 1 when n = 1
    assert {True, (True, True), (True, n == 1)} <= seen


@pytest.mark.parametrize("n", range(1, 11))
def test_orbit_reps_are_the_orbit_minima(n):
    K = Field(n)
    for m in (d for d in range(1, n + 1) if n % d == 0):
        minima = set()
        for a in range(1, K.order):
            orbit = {K.pow_(a, 1 << (m * k)) for k in range(n // m)}
            minima.add(min(orbit))
        assert list(frobenius_orbit_reps(K, m)) == sorted(minima), m


def test_coefficient_degree_ignores_the_constant():
    F16 = Field(4)
    g4 = UniPoly(Field(2), {3: 0b10, 5: 1}).embed(F16)
    assert coefficient_degree(g4) == 2
    assert coefficient_degree(g4 + UniPoly.constant(F16, 0b10)) == 2
    assert coefficient_degree(UniPoly(F16, {3: 1, 0: 0b10})) == 1
    assert coefficient_degree(UniPoly(F16, {3: 0b10})) == 4


def test_rank_mismatch_is_an_invariant_failure(monkeypatch):
    monkeypatch.setattr("apn20.apn.rank", lambda vectors: 0)
    with pytest.raises(AssertionError, match="derivative rank"):
        differential_uniformity(parse_unipoly("x^20+x^10+x^5", F2), F16)
