"""Tower-side family-A code, kept as the oracle for the base-field rule.

`apn20.classify` decides family A over GF(q) alone.  The functions here work
in the cubic extension GF(q^3) of a `TowerField`: they build family-A and
family-B members from their parameters, form the perturbed plane product and
its Galois conjugates, divide surfaces by it, check the family-A quotient
slice by slice against its closed form, and find the perturbation hits as
roots of the cubic h in GF(q^3) (`tower_hits`).  Tests compare
`classify.search_perturbations` and the printed constraint keys against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from apn20.classify import _full_rank, search_perturbations
from apn20.fields import Field, TowerField, roots
from apn20.polys import NotDivisible, TriPoly, UniPoly, exact_div
from apn20.surface import plane_product, surface_monomial, surface_poly


# -- parameter records ---------------------------------------------------------


@dataclass(frozen=True)
class FamilyAParams:
    """Parameters of f = L(x)^3 (L(x)^2 + a12) + tail over tower.base, with
    c1 in tower.ext and a12 in tower.base.  Family-A members have a12 = 0;
    a12 != 0 gives a divisor-compatible non-member (see the module docstring).
    """

    tower: TowerField
    c1: int
    a12: int
    tail: UniPoly

    def __post_init__(self):
        tw = self.tower
        tw.ext.check(self.c1, "c1")
        if tw.trace_bits(self.c1) != 0:
            raise ValueError(f"c1 = 0x{self.c1:x} has nonzero trace in the tower")
        tw.base.check(self.a12, "a12")
        if self.tail.field != tw.base or not self.tail.is_qaffine():
            raise ValueError("tail must be a q-affine polynomial over the base field")


@dataclass(frozen=True)
class FamilyBParams:
    """Parameters of f = x^20 + a10 x^10 + a5 x^5 + tail."""

    field: Field
    a10: int
    a5: int
    tail: UniPoly

    def __post_init__(self):
        self.field.check(self.a10, "a10")
        self.field.check(self.a5, "a5")
        if self.tail.field != self.field or not self.tail.is_qaffine():
            raise ValueError("tail must be a q-affine polynomial over the field")


@dataclass(frozen=True)
class QuadraticPerturbation:
    """The symmetric quadratic c1 (x^2+y^2+z^2) + c4 (xy+xz+yz) + b1 (x+y+z) + d."""

    tower: TowerField
    c1: int
    c4: int
    b1: int
    d: int

    def __post_init__(self):
        for name in ("c1", "c4", "b1", "d"):
            self.tower.ext.check(getattr(self, name), name)

    @classmethod
    def canonical(cls, tower: TowerField, c1: int) -> "QuadraticPerturbation":
        """The solved shape c4 = c1, b1 = 0, d = c1^3."""
        return cls(tower, c1, c1, 0, tower.ext.pow_(c1, 3))


# -- construction ----------------------------------------------------------------


def linearized_from_conjugates(tower: TowerField, c1: int) -> UniPoly:
    """L(x) = x (x+c1)(x+c1^q)(x+c1^{q^2}) pulled back to the base field.

    Requires c1 in tower.ext of trace zero, so the cubic coefficient
    vanishes and the rest are Galois stable.
    """
    tower.ext.check(c1, "c1")
    if tower.trace_bits(c1) != 0:
        raise ValueError(f"c1 = 0x{c1:x} has nonzero trace; L would leave the base field")
    q1 = tower.embedding.inverse_bits(tower.q1_bits(c1))
    nrm = tower.embedding.inverse_bits(tower.norm_bits(c1))
    return UniPoly(tower.base, {4: 1, 2: q1, 1: nrm})


def build_family_a(p: FamilyAParams) -> tuple[UniPoly, UniPoly]:
    """The degree-20 polynomial of family A, together with its L."""
    L = linearized_from_conjugates(p.tower, p.c1)
    a12 = UniPoly.constant(p.tower.base, p.a12)
    f = (L ** 3) * (L ** 2 + a12) + p.tail
    return f, L


def build_family_b(p: FamilyBParams) -> UniPoly:
    """The degree-20 polynomial x^20 + a10 x^10 + a5 x^5 + tail."""
    f = UniPoly(p.field, {20: 1, 10: p.a10, 5: p.a5})
    return f + p.tail


def perturbed_plane(qp: QuadraticPerturbation) -> TriPoly:
    """Plane product plus the symmetric quadratic, over the tower extension."""
    ext = qp.tower.ext
    terms = {}
    for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        terms[m] = qp.c1
    for m in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        terms[m] = qp.c4
    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        terms[m] = qp.b1
    terms[(0, 0, 0)] = qp.d
    return plane_product(ext) + TriPoly(ext, terms)


def conjugate_product(qp: QuadraticPerturbation) -> TriPoly:
    """(A+P)(A+P^q)(A+P^{q^2}); its coefficients are Galois stable."""
    tw = qp.tower
    f0 = perturbed_plane(qp)
    f1 = f0.map_coeffs(tw.frob_bits, tw.ext)
    f2 = f1.map_coeffs(tw.frob_bits, tw.ext)
    prod = f0 * f1 * f2
    for m, c in prod.terms.items():
        if tw.frob_bits(c) != c:
            raise AssertionError(f"conjugate product coefficient at {m} is not stable")
    return prod


def _conjugate_product_base(qp: QuadraticPerturbation) -> TriPoly:
    """The conjugate product with coefficients pulled back to the base field."""
    tw = qp.tower
    prod = conjugate_product(qp)
    return prod.map_coeffs(tw.embedding.inverse_bits, tw.base)


# -- divisibility checks ------------------------------------------------------------


@dataclass
class FamilyAReport:
    divides: bool
    quotient: TriPoly | None
    constraints: dict[str, bool]
    remainder_monomial: tuple | None = None


def constraints_for(qp: QuadraticPerturbation) -> dict[str, bool]:
    """The family-A parameter relations, evaluated at the perturbation qp."""
    tw = qp.tower
    ext = tw.ext
    c1, c4, b1, d = qp.c1, qp.c4, qp.b1, qp.d
    q1c1 = tw.q1_bits(c1)
    nc1 = tw.norm_bits(c1)
    return {
        "tr_c1_zero": tw.trace_bits(c1) == 0,
        "tr_c4_zero": tw.trace_bits(c4) == 0,
        "c1_eq_c4": c1 == c4,
        "b1_zero": b1 == 0,
        "d_eq_c1_cubed": d == ext.pow_(c1, 3),
        "tr_d_eq_norm_c1": tw.trace_bits(d) == nc1,
        "q5_c1_d_zero": tw.q5_bits(c1, d) == 0,
        "q4_c1_d_zero": tw.q4_bits(c1, d) == 0,
        "q1_d_relation": tw.q1_bits(d) == ext.pow_(q1c1, 3) ^ ext.sqr(nc1),
        "q4_d_c1_relation": tw.q4_bits(d, c1) == ext.mul(nc1, ext.sqr(q1c1)),
        "norm_d_relation": tw.norm_bits(d) == ext.pow_(nc1, 3),
    }


def check_family_a_divisor(f: UniPoly, qp: QuadraticPerturbation) -> FamilyAReport:
    """Does the conjugate product of A+P divide the surface polynomial of f?"""
    if f.degree != 20:
        raise ValueError(f"need a degree-20 polynomial, got degree {f.degree}")
    tw = qp.tower
    phi = surface_poly(f.embed(tw.base))
    prod = _conjugate_product_base(qp)
    q = exact_div(phi, prod)
    constraints = constraints_for(qp)
    if isinstance(q, NotDivisible):
        return FamilyAReport(False, None, constraints, q.leading_monomial)
    return FamilyAReport(True, q, constraints)


# -- hits in the tower ------------------------------------------------------------


def tower_hits(f: UniPoly, tower: TowerField) -> list[int]:
    """All c1 whose canonical perturbation divisor divides the surface of f,
    sorted, each checked against the trace-zero necessary condition.

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
    vanishes at one root, and none otherwise.  Else h has a root r in GF(q),
    hence all its roots lie there, and the divisor of r is the cube of its
    planes.  (x+y+r)^3 divides only if D_r f and the first two Hasse
    derivatives of f are constant (the first three for r = 0), that is,
    only if every exponent outside {0, 1, 2} is divisible by 4.  That forces
    a17 = a18 = 0, so r = 0, which is then a hit.
    """
    if f.degree != 20:
        raise ValueError(f"need a degree-20 polynomial, got degree {f.degree}")
    base, ext, up = tower.base, tower.ext, tower.embedding.map_bits
    f = f.embed(base)
    inv20 = base.inv(f.coeff(20))
    s, t = base.mul(inv20, f.coeff(18)), base.mul(inv20, f.coeff(17))
    if t and _full_rank(UniPoly(base, {4: 1, 2: s, 1: t})):
        hits = roots([up(t), up(s), 0, 1], ext)
        c_j = UniPoly(ext, [
            (j, ext.mul(up(a), ext.pow_(hits[0], e - j)))
            for e, a in f.terms.items() for j in range(1, e) if e & j == j
        ])
        if c_j:
            hits = []
    else:
        hits = [0] if all(e % 4 == 0 for e in f.terms if e > 2) else []
    for c in hits:
        if tower.trace_bits(c) != 0:
            raise AssertionError(f"divisor hit c1 = 0x{c:x} violates the trace-zero condition")
    return hits


# -- quotient slice ledger ------------------------------------------------------------


@dataclass
class SliceCheck:
    degree: int
    ok: bool
    expected: TriPoly
    actual: TriPoly


@dataclass
class FamilyAQuotientReport:
    params: FamilyAParams
    f: UniPoly
    L: UniPoly
    slices: list[SliceCheck]
    sextic_coeff_ok: bool
    all_ok: bool


def verify_family_a_quotient(p: FamilyAParams) -> FamilyAQuotientReport:
    """Divide the surface of the built f by the conjugate product and check
    every degree slice of the quotient against its closed form.

    With a18 and a17 the coefficients of x^18 and x^17 of f (equal to the
    conjugate forms q1(c1) and N(c1)) and a12 the coefficient of x^12, the
    quotient Q of degree 8 must satisfy, slice by slice:

        Q8 = S5^4          Q7 = 0             Q6 = a18 A^2
        Q5 = a17 A S5      Q4 = a18^2 S5^2    Q3 = a18 a17 A
        Q2 = a17^2 S5      Q1 = 0             Q0 = a12 + a18^4

    The degree-5 slice follows from A Q5 = a17 (S5^4 + S5 S9) together
    with S9 + S5^3 = A^2.

    The degree-6 coefficient of f itself is compared against its closed
    form in a18, a17, a12 as a cross-check.
    """
    tw = p.tower
    base = tw.base
    f, L = build_family_a(p)
    qp = QuadraticPerturbation.canonical(tw, p.c1)
    phi = surface_poly(f)
    prod = _conjugate_product_base(qp)
    q = exact_div(phi, prod)
    if isinstance(q, NotDivisible):
        raise AssertionError("constructed family-A surface must be divisible")

    a18 = f.coeff(18)
    a17 = f.coeff(17)
    a12 = f.coeff(12)
    if a18 != tw.embedding.inverse_bits(tw.q1_bits(p.c1)):
        raise AssertionError("x^18 coefficient must equal q1(c1)")
    if a17 != tw.embedding.inverse_bits(tw.norm_bits(p.c1)):
        raise AssertionError("x^17 coefficient must equal N(c1)")

    A = plane_product(base)
    s5 = surface_monomial(5, base)
    mul = base.mul
    expected = {
        8: s5 ** 4,
        7: TriPoly.zero(base),
        6: (A ** 2).scale(a18),
        5: (A * s5).scale(a17),
        4: (s5 ** 2).scale(base.sqr(a18)),
        3: A.scale(mul(a18, a17)),
        2: s5.scale(base.sqr(a17)),
        1: TriPoly.zero(base),
        0: TriPoly.constant(base, a12 ^ base.pow_(a18, 4)),
    }
    slices = []
    for d in range(8, -1, -1):
        actual = q.homogeneous_part(d)
        slices.append(SliceCheck(d, actual == expected[d], expected[d], actual))

    x6_formula = (
        base.pow_(a18, 7)
        ^ mul(base.pow_(a18, 4), base.sqr(a17))
        ^ mul(base.pow_(a18, 3), a12)
        ^ mul(a18, base.pow_(a17, 4))
        ^ mul(base.sqr(a17), a12)
    )
    sextic_ok = f.coeff(6) == x6_formula

    return FamilyAQuotientReport(
        p, f, L, slices, sextic_ok, all(s.ok for s in slices)
    )


def checked_hits(f: UniPoly, tower: TowerField) -> list[int]:
    """tower_hits(f, tower), once classify.search_perturbations(f) is checked
    against them: None iff there is no hit, else the L of the smallest hit."""
    hits = tower_hits(f, tower)
    L = search_perturbations(f)
    if hits:
        assert L == linearized_from_conjugates(tower, hits[0]), (f, hits, L)
    else:
        assert L is None, (f, L)
    return hits
