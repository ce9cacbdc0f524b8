"""Classification pipeline for degree-20 polynomial functions.

Two constructions cover every degree-20 function that stays APN over
infinitely many extensions, and both are CCZ-equivalent to x^5:

  family A: f = L(x)^5 + (q-affine tail), where
            L(x) = x (x+c)(x+c^q)(x+c^{q^2}) for a trace-zero c in the
            cubic extension: x^5 composed with the linearized L.
  family B: f = a20 x^20 + a10 x^10 + a5 x^5 + (q-affine tail), which
            is L(x^5) for L = a20 x^4 + a10 x^2 + a5 x.

The perturbation construction gives L(x)^3 (L(x)^2 + a12) + tail, and
family-A members have a12 = 0.  With a12 != 0 the same conjugate product
still divides the surface, so that f passes the divisor test but is no
member: for c in GF(8) with minimal polynomial t^3 + t + 1 and a12 = 1 it is
x^20+x^18+x^17+x^6+x^4+x^3, whose differential uniformity is 4, 4 and 512
on GF(2^5), GF(2^7) and GF(2^9), so it is not CCZ-equivalent to x^5.

The divisibility side: family A means the plane product perturbed by a
symmetric quadratic divides the surface polynomial (together with its two
Galois conjugates), family B means the quintic surface polynomial divides
it.  `classify` decides both from the coefficients of f over its own field
GF(q), with no surface built and no cubic extension: `search_perturbations`
and `check_family_b_divisor` carry the derivations.  Explicit equivalence
witnesses to x^5 are produced and re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apn import differential_uniformity
from .fields import Field
from .linear import rank
from .polys import UniPoly

CHECK_FIELD_CAP = 1 << 12

# The relations between the perturbation parameters of a family-A hit, in
# report order.  Each is a polynomial identity in the roots of the cubic h of
# `search_perturbations`, so every family-A witness satisfies all of them.
FAMILY_A_CONSTRAINTS = (
    "tr_c1_zero",
    "tr_c4_zero",
    "c1_eq_c4",
    "b1_zero",
    "d_eq_c1_cubed",
    "tr_d_eq_norm_c1",
    "q5_c1_d_zero",
    "q4_c1_d_zero",
    "q1_d_relation",
    "q4_d_c1_relation",
    "norm_d_relation",
)


# -- divisibility checks ------------------------------------------------------------


@dataclass
class FamilyBReport:
    divides: bool
    factorization_ok: bool


def check_family_b_divisor(f: UniPoly) -> FamilyBReport:
    """Does the quintic surface polynomial S5 divide the surface polynomial of
    f, with the quotient a20 A^3 S5^3 + a10 A S5 + a5?  Read off the exponents.

    The surface of f is the sum of a_e S_e, with S_e = 0 for e = 0 and e a
    power of two, and S10 = A S5^2, S20 = A^3 S5^4, S17 = S5^7 + A^2 S5 S9.
    The remainder on division by S5 is unique, as one divisor is a Groebner
    basis, and linear in f.  The remainders of the eleven other S_e have
    GF(2) coefficients and are independent over GF(2) (all 2^11 of their
    sums were checked), so over every field.  So S5 divides iff every
    exponent other than 0 and the powers of two is 5, 10, 17 or 20, and the
    quotient is then the closed form plus a17 (S5^6 + A^2 S9).
    """
    if f.degree != 20:
        raise ValueError(f"need a degree-20 polynomial, got degree {f.degree}")
    divides = all(e in (5, 10, 17, 20) or e & (e - 1) == 0 for e in f.terms)
    return FamilyBReport(divides, divides and not f.coeff(17))


def _full_rank(L: UniPoly) -> bool:
    """Whether the linearized L has GF(2) rank m on its field GF(2^m)."""
    K = L.field
    return rank(L.eval_bits(1 << i) for i in range(K.n)) == K.n


def search_perturbations(f: UniPoly) -> UniPoly | None:
    """The L of the perturbation divisors that divide the surface of f: its
    family-A candidate L, or None when no perturbation divisor divides.

    The divisor of a root c of h = X^3 + s X + t, with s = a18/a20 and
    t = a17/a20, is the planes x+y+c, y+z+c and x+z+c times those of the
    conjugates of c.  For c != 0, x+y+c divides the surface iff
    D_c f(x) = f(x+c) + f(x) is constant, since the surface at y = x+c times
    c (x+z)(x+z+c) is D_c f(x) + D_c f(z).  By Lucas' theorem the coefficient
    of x^j in D_c f is c_j(c), the sum of a_e c^(e-j) over the exponents
    e > j of f of which j is a binary submask.

    If t != 0 and L = X h(X) has full GF(2) rank on GF(q), h has no root in
    GF(q), so it is irreducible and the minimal polynomial of its three
    roots, one orbit of nine distinct planes: all are hits when every c_j
    vanishes at one root, that is, when h divides every c_j(X), and none
    otherwise.  Each c_j is reduced modulo h from the residues of X^k,
    k < 20, stepped by X^3 = s X + t.  Else h has a root r in GF(q), hence
    all its roots lie there, and the divisor of r is the cube of its
    planes.  (x+y+r)^3 divides only if D_r f and the first two Hasse
    derivatives of f are constant (the first three for r = 0), that is,
    only if every exponent outside {0, 1, 2} is divisible by 4.  That forces
    a17 = a18 = 0, so r = 0, which is then a hit, with L = x^4.

    L = x (x+c)(x+c^q)(x+c^{q^2}) comes from Vieta, since q1(c) = s and
    N(c) = t on the orbit: L = x^4 + s x^2 + t x.
    """
    if f.degree != 20:
        raise ValueError(f"need a degree-20 polynomial, got degree {f.degree}")
    K = f.field
    mul = K.mul
    inv20 = K.inv(f.coeff(20))
    s, t = mul(inv20, f.coeff(18)), mul(inv20, f.coeff(17))
    L = UniPoly(K, {4: 1, 2: s, 1: t})
    if t and _full_rank(L):
        # X^k mod h as its coefficients of 1, X and X^2
        residues = [(1, 0, 0)]
        for _ in range(19):
            r0, r1, r2 = residues[-1]
            residues.append((mul(r2, t), r0 ^ mul(r2, s), r1))
        c_j = {}
        for e, a in f.terms.items():
            for j in range(1, e):
                if e & j == j:
                    acc = c_j.setdefault(j, [0, 0, 0])
                    for i, r in enumerate(residues[e - j]):
                        acc[i] ^= mul(a, r)
        return None if any(any(acc) for acc in c_j.values()) else L
    if all(e % 4 == 0 for e in f.terms if e > 2):
        return UniPoly(K, {4: 1})
    return None


# -- equivalence witnesses ------------------------------------------------------------


@dataclass
class CczWitness:
    """An explicit reduction of f to the Gold function x^5.

    gold_compose:    f = L(x)^5 + residual
    linear_of_power: f = L(x^5) + residual
    with linearized L and q-affine residual; reconstruction is re-verified
    exactly, and the differential uniformity of f is compared with that of
    x^5 on a check field where L is a permutation (when one is available
    below the cap).
    """

    kind: str
    L: UniPoly
    residual: UniPoly
    check_field: Field | None = None
    delta_f: int | None = None
    delta_gold: int | None = None
    delta_match: bool | None = None


@dataclass
class NoWitness:
    stage: str
    detail: str

    def __bool__(self):
        return False


def default_check_field(base: Field, L: UniPoly) -> Field | None:
    """GF(q^5) for the differential cross-check when L permutes it, else None.

    For L = a x^4 + b x^2 + c x over GF(q), the nonzero roots of L are the
    nonzero roots of a x^3 + b x + c.  If one lies in GF(q), L permutes no
    extension.  If none does, L is a monomial, which permutes every field,
    or that polynomial is an irreducible cubic, and L permutes GF(q^k) for
    every k prime to 3.  So L permutes GF(q^5) iff its GF(2) rank on GF(q)
    is base.n, and GF(q^5) is used if it is within CHECK_FIELD_CAP.
    """
    if L.field != base or any(e not in (1, 2, 4) for e in L.terms):
        raise ValueError(f"{L!r} is not a linearized polynomial of degree <= 4 over {base}")
    n = 5 * base.n
    if (1 << n) > CHECK_FIELD_CAP or not _full_rank(L):
        return None
    return Field(n)


def _attach_delta_check(witness: CczWitness, f: UniPoly):
    base = f.field
    K = default_check_field(base, witness.L)
    if K is None:
        return witness
    gold = UniPoly(base, {5: 1})
    witness.check_field = K
    witness.delta_f = differential_uniformity(f, K).delta
    witness.delta_gold = differential_uniformity(gold, K).delta
    witness.delta_match = witness.delta_f == witness.delta_gold
    return witness


def ccz_witness(f: UniPoly):
    """Produce an equivalence witness to x^5, or NoWitness with the failing stage.

    Family B is matched first from the x^20, x^10 and x^5 coefficients;
    family A then takes the L of its perturbation divisors, read off f.
    """
    if f.degree != 20:
        raise ValueError(f"need a degree-20 polynomial, got degree {f.degree}")
    K = f.field

    # family B: f = L(x^5) + q-affine
    L = UniPoly(K, {4: f.coeff(20), 2: f.coeff(10), 1: f.coeff(5)})
    core = L.compose(UniPoly(K, {5: 1}))
    residual = f + core
    if residual.is_qaffine():
        if core + residual != f:
            raise AssertionError("witness reconstruction failed")
        w = CczWitness("linear_of_power", L, residual)
        return _attach_delta_check(w, f)

    # family A: f = L(x)^5 + q-affine; L = x^4 comes from the hit 0, whose
    # inputs family B has matched above
    L = search_perturbations(f)
    if L is None:
        return NoWitness("family_a_search", "no perturbation divisor divides the surface")
    core = L ** 5
    residual = f + core
    if not residual.is_qaffine():
        return NoWitness(
            "family_a_reconstruction",
            "perturbation divisors found but f is not L^5 plus a q-affine part",
        )
    if core + residual != f:
        raise AssertionError("witness reconstruction failed")
    return _attach_delta_check(CczWitness("gold_compose", L, residual), f)
