"""Formal divisor bookkeeping on the five lines at infinity.

A degree-20 function's surface meets the plane at infinity in five lines:
A0, A1, A2 from the diagonal planes x+y, y+z, x+z, and C1, C2 from the two
conjugate linear factors of the quintic part.  The hyperplane-section
divisor is D = 3*A0 + 3*A1 + 3*A2 + 4*C1 + 4*C2.  Any component through
the A0 line yields an orbit of companion divisors under the coordinate
permutations and under the degree-3 Galois action, and the orbit sum must
stay inside D; case_analysis enumerates every candidate divisor and checks
which ones survive that bound.  Exactly two do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, gt, itemgetter, le, sub
from types import MappingProxyType

LINES = ("A0", "A1", "A2", "C1", "C2")
_INDEX = {k: i for i, k in enumerate(LINES)}

# variable pair behind each A-line, in LINES order: A0 = {x,y}, A1 = {y,z}, A2 = {x,z}
_A_PAIRS = (frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2)))

# the six coordinate permutations, as images of (x, y, z); listed in the
# orbit order identity, both 3-cycles, then the three transpositions
_PERMUTATIONS = (
    (0, 1, 2),
    (1, 2, 0),
    (2, 0, 1),
    (1, 0, 2),
    (2, 1, 0),
    (0, 2, 1),
)


class Divisor:
    """Non-negative formal combination of the five lines at infinity.

    Immutable: the multiplicities are a 5-tuple in LINES order, checked once
    by the constructor; the line maps below only reorder a checked tuple.
    """

    __slots__ = ("_m",)

    def __init__(self, coeffs=None, **named):
        merged = dict(coeffs or {})
        merged.update(named)
        for k, v in merged.items():
            if k not in LINES:
                raise ValueError(f"unknown line {k!r}")
            if v < 0:
                raise ValueError(f"negative multiplicity for {k}")
        _set_m(self, tuple(merged.get(k, 0) for k in LINES))

    @classmethod
    def _of(cls, m: tuple) -> Divisor:
        """Wrap a non-negative 5-tuple without checking it."""
        d = object.__new__(cls)
        _set_m(d, m)
        return d

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    def __reduce__(self):
        return Divisor._of, (self._m,)

    @property
    def coeffs(self):
        """Read-only view {line: multiplicity} in LINES order."""
        return MappingProxyType(dict(zip(LINES, self._m)))

    def __getitem__(self, line):
        return self._m[_INDEX[line]]

    @property
    def degree(self) -> int:
        return sum(self._m)

    def __add__(self, other):
        return Divisor._of(tuple(map(add, self._m, other._m)))

    def __le__(self, other):
        return all(map(le, self._m, other._m))

    def exceeds(self, other) -> bool:
        """True when some coordinate is strictly above the other divisor's."""
        return any(map(gt, self._m, other._m))

    def __sub__(self, other):
        out = tuple(map(sub, self._m, other._m))
        if min(out) < 0:
            raise ValueError("difference is not effective")
        return Divisor._of(out)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._m == other._m

    def __hash__(self):
        return hash(self._m)

    def __bool__(self):
        return any(self._m)

    def distinct_a_lines(self) -> int:
        return 3 - self._m[:3].count(0)

    def is_s3_symmetric(self) -> bool:
        a0, a1, a2, c1, c2 = self._m
        return a0 == a1 == a2 and c1 == c2

    def __repr__(self):
        parts = [(k if v == 1 else f"{v}*{k}") for k, v in zip(LINES, self._m) if v]
        return "+".join(parts) if parts else "0"


_set_m = Divisor._m.__set__  # the slot's own setter, past the __setattr__ guard

HYPERPLANE_DIVISOR = Divisor(A0=3, A1=3, A2=3, C1=4, C2=4)


def _line_map(perm) -> tuple:
    """The permutation as source indices: image[i] = x0[src[i]] over LINES."""
    src = [0] * len(LINES)
    for a, pair in enumerate(_A_PAIRS):
        src[_A_PAIRS.index(frozenset(perm[v] for v in pair))] = a
    # even permutations fix the conjugate lines, transpositions swap them
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
    src[3:] = (3, 4) if inversions % 2 == 0 else (4, 3)
    return tuple(src)


_S3_GETTERS = tuple(itemgetter(*_line_map(p)) for p in _PERMUTATIONS)
_SWAP_C = itemgetter(0, 1, 2, 4, 3)
# rotation by k sends the multiplicity of A_i to A_(i+k mod 3)
_ROTATE_A = tuple(itemgetter((0 - k) % 3, (1 - k) % 3, (2 - k) % 3, 3, 4) for k in range(3))


def s3_images(x0: Divisor) -> list[Divisor]:
    """Images of x0 under all six coordinate permutations (identity first)."""
    m = x0._m
    return [Divisor._of(g(m)) for g in _S3_GETTERS]


def galois_images(x0: Divisor, convention: str = "conjugate_fixed") -> list[Divisor]:
    """Divisors contributed by the three Galois companions of a component.

    Under "conjugate_fixed" the conjugate lines C1, C2 stay fixed, and when
    the component's A-part is lopsided its companions carry the rotated
    A-lines (the bookkeeping the case table below uses).  Under
    "frobenius_swaps_C" the action is the literal Frobenius, which fixes
    the A-lines (they are rational) and exchanges C1 and C2.  Verdicts do
    not depend on the choice; case_analysis checks that.
    """
    if convention == "conjugate_fixed":
        a0, a1, a2, c1, c2 = x0._m
        if (c1 or c2) and not (a0 == a1 == a2):
            return [Divisor._of(g(x0._m)) for g in _ROTATE_A]
        return [x0, x0, x0]
    if convention == "frobenius_swaps_C":
        return [x0, Divisor._of(_SWAP_C(x0._m)), x0]
    raise ValueError(f"unknown convention {convention!r}")


# -- case analysis -----------------------------------------------------------------

VERDICT_EXCEEDS = "contradiction_sum_exceeds_D"
VERDICT_TWO_A = "contradiction_two_A_rule"
VERDICT_SURVIVOR = "survivor"

DEGREE_CUTOFF_NOTE = (
    "candidate divisors stop at degree 5: a component of degree >= 6 comes "
    "with two more Galois companions of the same degree, and 3*6 = 18 already "
    f"exceeds deg D = {HYPERPLANE_DIVISOR.degree}"
)


@dataclass
class CaseVerdict:
    """Outcome for one candidate component divisor."""

    x0: Divisor
    verdict: str
    orbit: list[Divisor]
    case_label: str
    orbit_sum: Divisor | None = None
    residual: Divisor | None = None
    uniform_agrees: bool = True
    convention_sensitive: bool = False
    note: str | None = None


def _case_label(x0: Divisor) -> str:
    """Structured degree.roman label for the sub-case the divisor falls in."""
    deg = x0.degree
    a_distinct = x0.distinct_a_lines()
    c1, c2 = x0["C1"], x0["C2"]
    cs = tuple(sorted((c1, c2), reverse=True))
    if a_distinct == 2:
        return {2: "2.i", 3: "3.ii", 4: "4.ii", 5: "5.iv"}[deg]
    if a_distinct == 3:
        if any(x0[k] > 1 for k in ("A0", "A1", "A2")):
            return f"{deg}.multiple-A"
        if deg == 3:
            return "3.i"
        if deg == 4:
            return "4.i"
        if cs == (2, 0):
            return "5.v"
        return "5.vi"
    # only the A0 line, plus conjugate-line content
    return {
        (2, (1, 0)): "2.ii",
        (3, (2, 0)): "3.iii",
        (3, (1, 1)): "3.iv",
        (4, (3, 0)): "4.iii",
        (4, (2, 1)): "4.iv",
        (5, (2, 2)): "5.i",
        (5, (3, 1)): "5.ii",
        (5, (4, 0)): "5.iii",
    }[(deg, cs)]


def _transcribed_orbit(x0: Divisor, label: str) -> list[Divisor] | None:
    """The tabulated orbit multiset for the case, or None when there is none."""
    imgs = s3_images(x0)
    if label == "2.ii":
        return imgs + galois_images(x0, "conjugate_fixed")
    if label in ("3.iii", "4.iii", "4.iv", "5.i", "5.ii", "5.v"):
        return imgs[:3]
    if label in ("3.iv", "4.i"):
        return imgs
    if label == "5.iii":
        return imgs[:2]
    if label in ("3.i", "5.vi"):
        return galois_images(x0, "conjugate_fixed")
    return None


def _uniform_orbit(x0: Divisor, convention: str):
    """Orbit of the uniform strategy: coordinate images first, Galois if needed."""
    symmetric = x0.is_s3_symmetric()
    stage1 = [x0] if symmetric else s3_images(x0)
    total = sum(stage1[1:], stage1[0])
    if total.exceeds(HYPERPLANE_DIVISOR):
        return stage1, total
    galois = galois_images(x0, convention)
    if symmetric:
        return galois, sum(galois[1:], galois[0])
    return stage1 + galois, sum(galois, total)


def _verdict_for(x0: Divisor, convention: str):
    if x0.distinct_a_lines() == 2:
        return VERDICT_TWO_A, [], None, None
    orbit, total = _uniform_orbit(x0, convention)
    if total.exceeds(HYPERPLANE_DIVISOR):
        return VERDICT_EXCEEDS, orbit, total, None
    return VERDICT_SURVIVOR, orbit, total, HYPERPLANE_DIVISOR - total


def enumerate_candidates() -> list[Divisor]:
    """Every divisor below D with the A0 line once and total degree 2 to 5."""
    out = [
        Divisor._of((1, a1, a2, c1, c2))
        for a1, a2, c1, c2 in product(range(4), range(4), range(5), range(5))
        if 1 <= a1 + a2 + c1 + c2 <= 4
    ]
    out.sort(key=lambda d: (d.degree, d._m))
    return out


def case_analysis(convention: str = "conjugate_fixed") -> list[CaseVerdict]:
    """Verdicts for every candidate divisor.

    Each case is decided twice: once from the tabulated orbit multiset and once
    by the uniform coordinate-then-Galois strategy; the verdicts must agree.
    The verdict under the other Galois convention is also computed so
    convention-sensitive cases can be flagged (there are none).
    """
    other = (
        "frobenius_swaps_C" if convention == "conjugate_fixed" else "conjugate_fixed"
    )
    out = []
    for x0 in enumerate_candidates():
        verdict, orbit, total, residual = _verdict_for(x0, convention)
        verdict_other = _verdict_for(x0, other)[0]
        label = _case_label(x0)
        note = None
        transcription = _transcribed_orbit(x0, label)
        agrees = True
        if verdict == VERDICT_TWO_A:
            note = (
                "a component with exactly two of the diagonal lines contains the "
                "third as well, which leaves this degree class"
            )
        elif transcription is not None:
            t_total = sum(transcription[1:], transcription[0])
            t_verdict = (
                VERDICT_EXCEEDS
                if t_total.exceeds(HYPERPLANE_DIVISOR)
                else VERDICT_SURVIVOR
            )
            agrees = t_verdict == verdict
            orbit = transcription
            total = t_total
            if t_verdict == VERDICT_SURVIVOR:
                residual = HYPERPLANE_DIVISOR - t_total
        else:
            note = "A-line multiplicity above 1; handled by the multiple-line reduction"
        if verdict == VERDICT_SURVIVOR and not residual:
            residual = None
        out.append(
            CaseVerdict(
                x0=x0,
                verdict=verdict,
                orbit=orbit,
                case_label=label,
                orbit_sum=total,
                residual=residual,
                uniform_agrees=agrees,
                convention_sensitive=verdict != verdict_other,
                note=note,
            )
        )
    return out


def survivors(cases=None) -> list[CaseVerdict]:
    return [c for c in (cases or case_analysis()) if c.verdict == VERDICT_SURVIVOR]


@dataclass
class DelegatedCase:
    """A standing case resolved outside the enumeration."""

    description: str
    source: str


def delegated_cases() -> list[DelegatedCase]:
    """Component shapes settled by the earlier multiple-line analysis."""
    src = "external: degree-12 classification machinery"
    return [
        DelegatedCase("component with the A0 line of multiplicity 2 or 3", src),
        DelegatedCase("component whose divisor is the A0 line alone", src),
        DelegatedCase("component of degree 1 through the A0 line", src),
    ]
