"""The surface polynomial of a univariate f and its exact identity suite.

For f over GF(2^n) the quotient

    (f(x) + f(y) + f(z) + f(x+y+z)) / ((x+y)(x+z)(y+z))

is always a polynomial; it vanishes exactly when f is q-affine, and its
divisibility structure drives the degree-20 classification.  This module
builds the quotient, converts symmetric polynomials to the elementary
symmetric basis e1 = x+y+z, e2 = xy+xz+yz, e3 = xyz, and checks a table of
named divisibility and factorization identities by exact arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fields import Field, roots
from .polys import NotDivisible, TriPoly, UniPoly, exact_div, _format, _grlex

# -- field-independent building blocks ------------------------------------------
#
# The plane product, S_d and every e1^a e2^b e3^c have coefficients in GF(2).
# Each is computed once over GF(2) and lifted into whatever field asks by
# embed, which copies the terms.

_GF2 = Field(1)
_E1 = TriPoly(_GF2, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
_E2 = TriPoly(_GF2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
_PLANE = TriPoly(
    _GF2, {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1}
)


@functools.cache
def _e_monomial(exps: tuple) -> TriPoly:
    """e1^a * e2^b * e3^c over GF(2)."""
    a, b, c = exps
    return _E1 ** a * _E2 ** b * TriPoly.monomial(_GF2, (c, c, c))


@functools.cache
def _gf2_surface_monomial(d: int) -> TriPoly:
    """S_d over GF(2): the one four-point division, once per exponent."""
    num = TriPoly(_GF2, [((d, 0, 0), 1), ((0, d, 0), 1), ((0, 0, d), 1)]) + _E1 ** d
    q = exact_div(num, _PLANE)
    if isinstance(q, NotDivisible):
        raise AssertionError("four-point numerator must vanish on the diagonals")
    return q


# -- the quotient construction ----------------------------------------------------


def plane_product(field: Field) -> TriPoly:
    """(x+y)(x+z)(y+z), the product of the three diagonal planes."""
    return _PLANE.embed(field)


def surface_monomial(d: int, field: Field) -> TriPoly:
    """The surface polynomial of x^d, computed once over GF(2) and lifted."""
    if d < 0:
        raise ValueError("negative exponent")
    return _gf2_surface_monomial(d).embed(field)


def surface_poly(f: UniPoly) -> TriPoly:
    """The quotient of the four-point sum of f by the plane product.

    Both are linear in f, so it is the sum of a_e S_e over the terms a_e x^e
    of f; each S_e has GF(2) coefficients, so a_e lands on every monomial of
    S_e, and no numerator is built or divided here.
    """
    return TriPoly(
        f.field,
        ((m, c) for e, c in f.terms.items() for m in _gf2_surface_monomial(e).terms),
    )


# -- symmetric basis ----------------------------------------------------------------


class NotSymmetric:
    """Conversion failure: the polynomial is not S3-invariant."""

    __slots__ = ("witness",)

    def __init__(self, witness):
        self.witness = witness

    def __repr__(self):
        return f"NotSymmetric({self.witness})"

    def __bool__(self):
        return False


class SymPoly(TriPoly):
    """Polynomial in the elementary symmetric functions e1, e2, e3; the
    monomial (a, b, c) stands for e1^a e2^b e3^c."""

    __slots__ = ()

    def expand(self) -> TriPoly:
        """Substitute e1, e2, e3 and return the trivariate expansion."""
        out = TriPoly.zero(self.field)
        for exps, c in self.terms.items():
            out = out + _e_monomial(exps).embed(self.field).scale(c)
        return out

    def __repr__(self):
        return _format(self, ("e1", "e2", "e3"), _grlex)


# x^i + y^i + z^i over GF(2) for i = 0, 1, 2, ..., extended on demand
_GF2_POWER_SUMS = [SymPoly.monomial(_GF2, (i, 0, 0)) for i in range(3)]


def power_sum(i: int, field: Field | None = None) -> SymPoly:
    """x^i + y^i + z^i in the symmetric basis, via the Newton-style recurrence."""
    if i < 0:
        raise ValueError("negative power sum index")
    sums = _GF2_POWER_SUMS
    e1, e2, e3 = (SymPoly.monomial(_GF2, m) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    while len(sums) <= i:
        # Newton's identities in characteristic 2
        sums.append(e1 * sums[-1] + e2 * sums[-2] + e3 * sums[-3])
    return sums[i].embed(field or _GF2)


def to_symmetric(p: TriPoly):
    """Rewrite an S3-invariant TriPoly in the symmetric basis, else NotSymmetric."""
    r = p
    out = {}
    while r:
        lm = r.leading_monomial()
        a, b, c = lm
        if not (a >= b >= c):
            return NotSymmetric(lm)
        exps = (a - b, b - c, c)
        out[exps] = r.terms[lm]
        r = r + SymPoly.monomial(p.field, exps, out[exps]).expand()
    return SymPoly(p.field, out)


def sym_expr(field: Field, terms) -> TriPoly:
    """Expand {(a, b, c): coeff} in e1, e2, e3 into a TriPoly."""
    return SymPoly(field, terms).expand()


# -- named identities ----------------------------------------------------------------


@dataclass(frozen=True)
class NamedIdentity:
    """A single decidable statement about trivariate polynomials.

    kind is "eq" (lhs == rhs), "divides" (rhs | lhs) or "not_divides".
    """

    name: str
    kind: str
    lhs: TriPoly
    rhs: TriPoly

    def check(self):
        if self.kind == "eq":
            diff = self.lhs + self.rhs
            if diff:
                return False, format_monomial(diff.leading_monomial())
            return True, None
        q = exact_div(self.lhs, self.rhs)
        if self.kind == "divides":
            if isinstance(q, NotDivisible):
                return False, format_monomial(q.leading_monomial)
            return True, None
        if self.kind == "not_divides":
            if isinstance(q, NotDivisible):
                return True, None
            return False, format_monomial(self.lhs.leading_monomial())
        raise ValueError(f"unknown identity kind {self.kind!r}")


def format_monomial(m) -> str:
    if m is None:
        return "1"
    parts = [v + (f"^{e}" if e > 1 else "") for v, e in zip("xyz", m) if e]
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class IdentityReport:
    name: str
    holds: bool
    witness: str | None


def _quartic_generator(field: Field) -> int:
    # a root of X^2+X+1, i.e. an element of multiplicative order 3
    return min(roots([1, 1, 1], field))


def _id_even_degree_split(field, d=20, e=5, j=2):
    if d != e << j or e % 2 == 0:
        raise ValueError(f"need d = e * 2^j with e odd, got d={d}, e={e}, j={j}")
    lhs = surface_monomial(d, field)
    rhs = (surface_monomial(e, field) ** (1 << j)) * (plane_product(field) ** ((1 << j) - 1))
    return [NamedIdentity(f"even-degree-split[d={d}]", "eq", lhs, rhs)]


def _id_quintic_factorization(field):
    # odd-degree fields have no element of order 3, and S_5 has GF(2)
    # coefficients: check the factorization in GF(4) instead
    big = field if field.n % 2 == 0 else Field(2)
    alpha = _quartic_generator(big)
    x = TriPoly.variable(big, "x")
    y = TriPoly.variable(big, "y")
    z = TriPoly.variable(big, "z")
    a = TriPoly.constant(big, alpha)
    a2 = TriPoly.constant(big, big.sqr(alpha))
    lhs = surface_monomial(5, big)
    rhs = (x + a * y + a2 * z) * (x + a2 * y + a * z)
    return [NamedIdentity("quintic-factorization", "eq", lhs, rhs)]


def _id_plane_coprime_odd(field):
    A = plane_product(field)
    return [
        NamedIdentity(f"plane-coprime-odd[{i}]", "not_divides", surface_monomial(i, field), A)
        for i in range(3, 20, 2)
    ]


def _id_deg9_quintic_plane(field):
    lhs = surface_monomial(9, field) ** 2 + surface_monomial(5, field) ** 6
    rhs = plane_product(field) ** 4
    return [NamedIdentity("deg9-quintic-plane", "eq", lhs, rhs)]


def _id_deg17_combination(field):
    s5 = surface_monomial(5, field)
    lhs = surface_monomial(17, field) + s5 ** 7
    rhs = (plane_product(field) ** 2) * s5 * surface_monomial(9, field)
    return [NamedIdentity("deg17-combination", "eq", lhs, rhs)]


def _id_deg18_split(field):
    lhs = surface_monomial(18, field)
    rhs = plane_product(field) * surface_monomial(9, field) ** 2
    return [NamedIdentity("deg18-split", "eq", lhs, rhs)]


def _id_deg14_split(field):
    lhs = surface_monomial(14, field)
    inner = surface_monomial(5, field) ** 4 + sym_expr(field, {(2, 0, 2): 1})
    rhs = plane_product(field) * inner
    return [NamedIdentity("deg14-split", "eq", lhs, rhs)]


def _id_deg15_plane_coprime(field):
    lhs = surface_monomial(15, field) + surface_monomial(5, field) ** 6
    return [NamedIdentity("deg15-plane-coprime", "not_divides", lhs, plane_product(field))]


def _id_quintic_divisibility(field):
    s5 = surface_monomial(5, field)
    out = [
        NamedIdentity("quintic-divides[17]", "divides", surface_monomial(17, field), s5)
    ]
    for i in (19, 18, 15, 11):
        out.append(
            NamedIdentity(
                f"quintic-coprime[{i}]", "not_divides", surface_monomial(i, field), s5
            )
        )
    return out


def _id_plane_coprime_mixed(field):
    A = plane_product(field)
    first = sym_expr(field, {(2, 0, 2): 1})
    second = sym_expr(field, {(4, 0, 2): 1, (3, 2, 1): 1, (2, 1, 2): 1, (1, 0, 3): 1})
    return [
        NamedIdentity("plane-coprime-mixed[e1^2*e3^2]", "not_divides", first, A),
        NamedIdentity("plane-coprime-mixed[deg10]", "not_divides", second, A),
    ]


BUILTIN_IDENTITIES = {
    "even-degree-split": _id_even_degree_split,
    "quintic-factorization": _id_quintic_factorization,
    "plane-coprime-odd": _id_plane_coprime_odd,
    "deg9-quintic-plane": _id_deg9_quintic_plane,
    "deg17-combination": _id_deg17_combination,
    "deg18-split": _id_deg18_split,
    "deg14-split": _id_deg14_split,
    "deg15-plane-coprime": _id_deg15_plane_coprime,
    "quintic-divisibility": _id_quintic_divisibility,
    "plane-coprime-mixed": _id_plane_coprime_mixed,
}

IDENTITY_NAMES = tuple(BUILTIN_IDENTITIES)


def check_identity(ident, field: Field | None = None, **params) -> IdentityReport:
    """Check one identity: a NamedIdentity, or a built-in referenced by name."""
    if isinstance(ident, NamedIdentity):
        return IdentityReport(ident.name, *ident.check())
    if ident not in BUILTIN_IDENTITIES:
        raise ValueError(f"unknown identity {ident!r}; known: {', '.join(IDENTITY_NAMES)}")
    if field is None:
        raise ValueError("built-in identities need a field")
    for clause in BUILTIN_IDENTITIES[ident](field, **params):
        holds, witness = clause.check()
        if not holds:
            return IdentityReport(ident, False, f"{clause.name}: {witness}")
    return IdentityReport(ident, True, None)


def run_identity_suite(field: Field, names=None) -> list[IdentityReport]:
    """Check every requested built-in identity over the field."""
    return [check_identity(name, field) for name in (names or IDENTITY_NAMES)]
