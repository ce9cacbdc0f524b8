import copy
import pickle

import pytest

from apn20.divisors import (
    DEGREE_CUTOFF_NOTE,
    HYPERPLANE_DIVISOR,
    VERDICT_EXCEEDS,
    VERDICT_SURVIVOR,
    VERDICT_TWO_A,
    CaseVerdict,
    Divisor,
    case_analysis,
    delegated_cases,
    enumerate_candidates,
    galois_images,
    s3_images,
    survivors,
)


def test_divisor_basics():
    d = Divisor(A0=1, C1=2)
    assert d.degree == 3
    assert d + d == Divisor(A0=2, C1=4)
    assert d <= HYPERPLANE_DIVISOR
    assert Divisor(C1=5).exceeds(HYPERPLANE_DIVISOR)
    assert (HYPERPLANE_DIVISOR - d)["A0"] == 2
    with pytest.raises(ValueError, match=r"^negative multiplicity for A0$"):
        Divisor(A0=-1)
    with pytest.raises(ValueError, match=r"^negative multiplicity for C2$"):
        Divisor({"C2": -1}, A0=1)
    with pytest.raises(ValueError, match=r"^unknown line 'B7'$"):
        Divisor(B7=1)
    with pytest.raises(ValueError, match=r"^unknown line 'B7'$"):
        Divisor({"B7": 0})
    with pytest.raises(ValueError, match=r"^difference is not effective$"):
        Divisor(C1=1) - Divisor(C1=2)


def test_divisor_is_immutable():
    d = Divisor(A0=1, C1=2)
    h = hash(d)
    with pytest.raises(TypeError):
        d["C1"] = 3
    with pytest.raises(TypeError):
        d.coeffs["C1"] = 3
    for name in ("coeffs", "C1", "_m"):
        with pytest.raises(AttributeError):
            setattr(d, name, (0, 0, 0, 0, 0))
    assert hash(d) == h and d == Divisor(A0=1, C1=2)
    assert dict(d.coeffs) == {"A0": 1, "A1": 0, "A2": 0, "C1": 2, "C2": 0}
    assert copy.deepcopy(d) == d and pickle.loads(pickle.dumps(d)) == d


def test_hyperplane_divisor_shape():
    assert HYPERPLANE_DIVISOR.degree == 17
    assert [HYPERPLANE_DIVISOR[k] for k in ("A0", "A1", "A2", "C1", "C2")] == [3, 3, 3, 4, 4]


def test_s3_images_of_line_plus_conjugate():
    images = s3_images(Divisor(A0=1, C1=1))
    expected = {
        Divisor(A0=1, C1=1),
        Divisor(A1=1, C1=1),
        Divisor(A2=1, C1=1),
        Divisor(A0=1, C2=1),
        Divisor(A1=1, C2=1),
        Divisor(A2=1, C2=1),
    }
    assert len(images) == 6
    assert set(images) == expected


def test_s3_images_fix_symmetric_divisor():
    sym = Divisor(A0=1, A1=1, A2=1, C1=1, C2=1)
    assert all(img == sym for img in s3_images(sym))


def test_s3_three_cycles_on_double_conjugate():
    images = s3_images(Divisor(A0=1, C1=2))
    assert images[1:3] == [Divisor(A1=1, C1=2), Divisor(A2=1, C1=2)]


def test_s3_is_a_group_action():
    d = Divisor(A0=1, A1=2, C1=3, C2=1)
    images = s3_images(d)
    assert len(images) == 6
    # the image set is closed: re-applying the action permutes it
    orbit = set(images)
    for img in images:
        assert set(s3_images(img)) == orbit


# variable pair behind each A-line: A0 = {x,y}, A1 = {y,z}, A2 = {x,z}
_A_PAIRS = {"A0": frozenset((0, 1)), "A1": frozenset((1, 2)), "A2": frozenset((0, 2))}
_PAIR_TO_A = {v: k for k, v in _A_PAIRS.items()}
_PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1))


def _apply_perm(x0: Divisor, perm) -> Divisor:
    """Reference action of a coordinate permutation, line by line: each A-line
    goes to the line of its image pair, and odd permutations swap C1, C2."""
    out = {}
    for a, pair in _A_PAIRS.items():
        out[_PAIR_TO_A[frozenset(perm[v] for v in pair)]] = x0[a]
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
    if inversions % 2 == 0:
        out["C1"], out["C2"] = x0["C1"], x0["C2"]
    else:
        out["C1"], out["C2"] = x0["C2"], x0["C1"]
    return Divisor(out)


def _galois_reference(x0: Divisor, convention: str) -> list[Divisor]:
    if convention == "conjugate_fixed":
        # the rotated companions are the images under the identity and both 3-cycles
        lopsided = not (x0["A0"] == x0["A1"] == x0["A2"])
        if lopsided and (x0["C1"] or x0["C2"]):
            return [_apply_perm(x0, p) for p in _PERMUTATIONS[:3]]
        return [x0, x0, x0]
    swapped = dict(x0.coeffs)
    swapped["C1"], swapped["C2"] = x0["C2"], x0["C1"]
    return [x0, Divisor(swapped), x0]


def test_line_maps_match_the_reference_action():
    cands = enumerate_candidates()
    assert len(cands) == 67
    for x0 in cands + [HYPERPLANE_DIVISOR]:
        assert s3_images(x0) == [_apply_perm(x0, p) for p in _PERMUTATIONS]
        for convention in ("conjugate_fixed", "frobenius_swaps_C"):
            assert galois_images(x0, convention) == _galois_reference(x0, convention)


def test_galois_images_conventions():
    assert galois_images(Divisor(A0=1, C1=1)) == [
        Divisor(A0=1, C1=1),
        Divisor(A1=1, C1=1),
        Divisor(A2=1, C1=1),
    ]
    sym = Divisor(A0=1, A1=1, A2=1, C1=1, C2=1)
    for convention in ("conjugate_fixed", "frobenius_swaps_C"):
        assert galois_images(sym, convention) == [sym, sym, sym]
    assert galois_images(Divisor(A0=1)) == [Divisor(A0=1)] * 3
    assert galois_images(Divisor(A0=1, C1=1), "frobenius_swaps_C") == [
        Divisor(A0=1, C1=1),
        Divisor(A0=1, C2=1),
        Divisor(A0=1, C1=1),
    ]
    with pytest.raises(ValueError):
        galois_images(sym, "bogus")


def test_enumeration_shape():
    cands = enumerate_candidates()
    assert all(c["A0"] == 1 for c in cands)
    assert all(2 <= c.degree <= 5 for c in cands)
    assert all(c <= HYPERPLANE_DIVISOR for c in cands)
    assert len(cands) == len(set(cands))


def test_enumeration_is_every_a0_divisor_of_degree_2_to_5_below_d():
    from itertools import product

    lines = ("A0", "A1", "A2", "C1", "C2")
    brute = set()
    for mult in product(*(range(HYPERPLANE_DIVISOR[k] + 1) for k in lines)):
        d = Divisor(dict(zip(lines, mult)))
        if d["A0"] == 1 and 2 <= d.degree <= 5:
            brute.add(d)
    assert set(enumerate_candidates()) == brute


def test_exactly_two_survivors():
    cases = case_analysis()
    surv = survivors(cases)
    assert {repr(c.x0) for c in surv} == {"A0+A1+A2", "A0+A1+A2+C1+C2"}
    for c in cases:
        assert c.verdict in (VERDICT_EXCEEDS, VERDICT_TWO_A, VERDICT_SURVIVOR)


def test_full_survivor_orbit_sums_to_hyperplane():
    cases = {repr(c.x0): c for c in case_analysis()}
    big = cases["A0+A1+A2+C1+C2"]
    assert big.verdict == VERDICT_SURVIVOR
    assert big.residual == Divisor(C1=1, C2=1)
    assert big.orbit_sum + big.residual == HYPERPLANE_DIVISOR


def test_tabulated_case_verdicts():
    cases = {repr(c.x0): c for c in case_analysis()}
    assert cases["A0+A1"].verdict == VERDICT_TWO_A
    assert cases["A0+2*C1"].verdict == VERDICT_EXCEEDS
    assert cases["A0+2*C1"].orbit_sum["C1"] == 6  # three-cycle sum beats the cap of 4
    assert cases["A0+C1"].verdict == VERDICT_EXCEEDS
    assert len(cases["A0+C1"].orbit) == 9  # six coordinate images plus three Galois
    assert cases["A0+4*C1"].orbit_sum["C1"] == 8
    assert len(cases["A0+4*C1"].orbit) == 2
    assert cases["A0+A1+A2+2*C1"].verdict == VERDICT_EXCEEDS


def test_transcription_agrees_with_uniform_strategy():
    for convention in ("conjugate_fixed", "frobenius_swaps_C"):
        assert all(c.uniform_agrees for c in case_analysis(convention))


def test_no_case_is_convention_sensitive():
    assert not any(c.convention_sensitive for c in case_analysis())


def test_all_case_labels_appear():
    labels = {c.case_label for c in case_analysis()}
    expected = {
        "2.i", "2.ii",
        "3.i", "3.ii", "3.iii", "3.iv",
        "4.i", "4.ii", "4.iii", "4.iv",
        "5.i", "5.ii", "5.iii", "5.iv", "5.v", "5.vi",
    }
    assert expected <= labels


def test_every_case_has_verdict_and_label():
    for c in case_analysis():
        assert isinstance(c, CaseVerdict)
        assert c.case_label
        if c.verdict == VERDICT_EXCEEDS:
            assert c.orbit_sum.exceeds(HYPERPLANE_DIVISOR)


def test_cutoff_note_arithmetic():
    assert "18" in DEGREE_CUTOFF_NOTE and "17" in DEGREE_CUTOFF_NOTE
    assert 3 * 6 > HYPERPLANE_DIVISOR.degree


def test_delegated_cases_reported():
    cases = delegated_cases()
    assert len(cases) == 3
    assert all("external" in c.source for c in cases)
