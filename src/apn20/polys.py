"""Sparse exact polynomials over binary fields.

One kernel, SparsePoly, holds terms as a dict from monomial to a nonzero
coefficient bitvector, with the owning Field alongside; UniPoly (exponent
ints) and TriPoly (exponent triples in x, y, z) differ only in monomial type
and printing.  Division of trivariate
polynomials is multivariate reduction under graded lex order x > y > z and
is exact-or-fails: a NotDivisible result carries the leading monomial of
the offending remainder.
"""

from __future__ import annotations

import heapq
import re
from operator import xor

from .fields import Field, find_embedding

PERMUTATION_CAP = 1 << 24


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


class SparsePoly:
    """The sparse kernel: a dict from monomial to nonzero coefficient bits.

    Addition, scaling, powering, coefficient maps and embeddings are shared;
    a subclass fixes the monomial type through _ONE (the monomial of the
    constant 1), __mul__, _sqr and its leading monomial, and its printing.
    """

    __slots__ = ("field", "terms")

    _ONE = None

    def __init__(self, field: Field, terms=None):
        self.field = field
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for m, c in items:
                if c:
                    clean[m] = clean.get(m, 0) ^ c
                    if not clean[m]:
                        del clean[m]
        self.terms = clean

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def constant(cls, field, c):
        return cls(field, {cls._ONE: c})

    @classmethod
    def monomial(cls, field, m, c=1):
        return cls(field, {m: c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __add__(self, other):
        _check_same_field(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) ^ c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return type(self)(self.field, out)

    __sub__ = __add__

    def scale(self, c: int):
        mul = self.field.mul
        return type(self)(self.field, {m: mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.constant(self.field, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base._sqr()
        return result

    def map_coeffs(self, fn, field: Field):
        return type(self)(field, {m: fn(c) for m, c in self.terms.items()})

    def embed(self, target: Field):
        """Carry the polynomial into target through the canonical subfield
        embedding; from GF(2) that is a copy of the terms."""
        if self.field == target:
            return self
        if self.field.n == 1:
            return type(self)(target, self.terms)
        return self.map_coeffs(find_embedding(self.field, target).map_bits, target)


class UniPoly(SparsePoly):
    """Univariate polynomial with coefficients in a binary field."""

    __slots__ = ()

    _ONE = 0

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def coeff(self, e: int) -> int:
        return self.terms.get(e, 0)

    def __mul__(self, other):
        _check_same_field(self, other)
        mul = self.field.mul
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                v = out.get(e, 0) ^ mul(c1, c2)
                if v:
                    out[e] = v
                else:
                    del out[e]
        return UniPoly(self.field, out)

    def _sqr(self) -> "UniPoly":
        sqr = self.field.sqr
        return UniPoly(self.field, {2 * e: sqr(c) for e, c in self.terms.items()})

    def compose(self, other: "UniPoly") -> "UniPoly":
        """self(other(x))."""
        _check_same_field(self, other)
        out = UniPoly.zero(self.field)
        cur = UniPoly.constant(self.field, 1)
        cur_e = 0
        for e in sorted(self.terms):
            while cur_e < e:
                cur = cur * other
                cur_e += 1
            out = out + cur.scale(self.terms[e])
        return out

    def eval_bits(self, xb: int) -> int:
        f = self.field
        acc = 0
        for e, c in self.terms.items():
            acc ^= f.mul(c, f.pow_(xb, e))
        return acc

    def is_qaffine(self) -> bool:
        """True iff every exponent is 0 or a power of two."""
        return all(e == 0 or (e & (e - 1)) == 0 for e in self.terms)

    def __repr__(self):
        return format_unipoly(self)


def value_table(f: UniPoly, field: Field) -> list[int]:
    """f evaluated at every field element, indexed by element bits.

    With log tables, each term is read in log order (x = g^i) off exp and
    the terms are xored there; one pass through log puts the sum in bit
    order.  Larger fields evaluate every term at every element.
    """
    g = f.embed(field)
    if field.has_tables:
        acc = None
        for e, c in g.terms.items():
            if acc is None:
                acc = field.term_in_log_order(c, e)
            else:
                acc = list(map(xor, acc, field.term_in_log_order(c, e)))
        if acc is None:
            return [0] * field.order
        return field.from_log_order(acc, g.terms.get(0, 0))
    items = sorted(g.terms.items())
    mul = field.mul
    pow_ = field.pow_
    out = [0] * field.order
    for x in range(field.order):
        acc = 0
        for e, c in items:
            acc ^= mul(c, pow_(x, e))
        out[x] = acc
    return out


def is_permutation(f: UniPoly, field: Field) -> bool:
    """Exhaustively decide whether x -> f(x) permutes the field.

    Fields with log tables test the value table for distinct values; larger
    ones evaluate pointwise and stop at the first repeated value.
    """
    if field.order > PERMUTATION_CAP:
        raise ValueError(f"{field} is above the exhaustive permutation cap 2^24")
    if field.has_tables:
        return len(set(value_table(f, field))) == field.order
    g = f.embed(field)
    seen = bytearray(field.order)
    for x in range(field.order):
        v = g.eval_bits(x)
        if seen[v]:
            return False
        seen[v] = 1
    return True


# -- trivariate polynomials -----------------------------------------------------


def _grlex(key):
    i, j, k = key
    return (i + j + k, i, j)


class TriPoly(SparsePoly):
    """Trivariate polynomial in x, y, z with coefficients in a binary field."""

    __slots__ = ()

    _ONE = (0, 0, 0)

    @classmethod
    def variable(cls, field, name: str):
        m = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name]
        return cls(field, {m: 1})

    @property
    def total_degree(self) -> int:
        return max(i + j + k for i, j, k in self.terms) if self.terms else -1

    def __mul__(self, other):
        _check_same_field(self, other)
        mul = self.field.mul
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                v = out.get(m, 0) ^ mul(c1, c2)
                if v:
                    out[m] = v
                else:
                    del out[m]
        return type(self)(self.field, out)

    def _sqr(self) -> "TriPoly":
        sqr = self.field.sqr
        return type(self)(
            self.field,
            {(2 * i, 2 * j, 2 * k): sqr(c) for (i, j, k), c in self.terms.items()},
        )

    def leading_monomial(self):
        return max(self.terms, key=_grlex) if self.terms else None

    def homogeneous_part(self, d: int) -> "TriPoly":
        return TriPoly(
            self.field,
            {m: c for m, c in self.terms.items() if m[0] + m[1] + m[2] == d},
        )

    def __repr__(self):
        return format_tripoly(self)


class NotDivisible:
    """Failed exact division; carries the remainder's leading monomial."""

    __slots__ = ("leading_monomial",)

    def __init__(self, leading_monomial):
        self.leading_monomial = leading_monomial

    def __repr__(self):
        return f"NotDivisible({self.leading_monomial})"

    def __bool__(self):
        return False


def exact_div(num: TriPoly, den: TriPoly):
    """num / den under graded lex reduction; TriPoly on success, else NotDivisible.

    Monomials are packed into ints with the total degree on top, so grlex
    order is int order and a product of monomials is a sum of keys.  The
    remainder is a dict from key to coefficient, and its leading key comes
    off a max-heap holding every key that has entered it; keys that have
    since cancelled are skipped when popped.  No remainder monomial has a
    larger total degree than num, so B bits, enough for the largest total
    degree in num and den, hold every exponent: there is no exponent cap.
    A successful quotient is re-verified by multiplication.
    """
    if not den.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    _check_same_field(num, den)
    field = num.field
    mul = field.mul
    B = max(i + j + k for i, j, k in (*num.terms, *den.terms)).bit_length()
    mask = (1 << B) - 1

    def pack(m):
        i, j, k = m
        return (i + j + k) << 3 * B | i << 2 * B | j << B | k

    dl = den.leading_monomial()
    di, dj, dk = dl
    dkey = pack(dl)
    dinv = field.inv(den.terms[dl])
    tail = [(pack(m) - dkey, c) for m, c in den.terms.items() if m != dl]
    r = {pack(m): c for m, c in num.terms.items()}
    heap = [-key for key in r]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    q = {}
    while heap:
        key = -pop(heap)
        rc = r.pop(key, 0)
        if not rc:
            continue
        i, j, k = key >> 2 * B & mask, key >> B & mask, key & mask
        if i < di or j < dj or k < dk:
            return NotDivisible((i, j, k))
        c = mul(rc, dinv)
        q[key - dkey] = c
        for offset, dc in tail:
            m = key + offset
            v = r.get(m)
            if v is None:
                r[m] = mul(c, dc)
                push(heap, -m)
            else:
                v ^= mul(c, dc)
                if v:
                    r[m] = v
                else:
                    del r[m]
    quotient = TriPoly(
        field, {(m >> 2 * B & mask, m >> B & mask, m & mask): c for m, c in q.items()}
    )
    if quotient * den != num:
        raise AssertionError("exact division verification failed")
    return quotient


# -- text grammar ----------------------------------------------------------------
#
# terms joined by "+"; term = [0xHEX "*"] var factors like x^2*y*z; the
# coefficient defaults to 1.  Parsing and printing round-trip bit-exactly.


class PolyParseError(ValueError):
    """Parse failure with the character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FACTOR_RE = re.compile(r"^([xyz])(?:\^(\d+))?$")


def _parse_terms(text: str, field: Field, variables: str):
    """(coeff, {var: exp}) per '+'-separated term; errors give the character
    position of the '*'-separated piece at fault."""
    pos = 0
    out = []
    for chunk in text.split("+"):
        stripped = chunk.strip()
        offset = pos + chunk.index(stripped) if stripped else pos
        pos += len(chunk) + 1
        if not stripped:
            raise PolyParseError("empty term", offset)
        coeff = 1
        exps: dict[str, int] = {}
        for piece in stripped.split("*"):
            at = offset + len(piece) - len(piece.lstrip())
            offset += len(piece) + 1
            piece = piece.strip()
            if piece == "1":
                continue
            if piece.lower().startswith("0x"):
                try:
                    value = int(piece, 16)
                except ValueError:
                    raise PolyParseError(f"bad coefficient {piece!r}", at)
                if value >= field.order:
                    raise PolyParseError(f"coefficient {piece} out of range for {field}", at)
                coeff = field.mul(coeff, value)
                continue
            m = _FACTOR_RE.match(piece)
            if not m:
                raise PolyParseError(f"bad factor {piece!r}", at)
            var, exp = m.group(1), int(m.group(2) or 1)
            if var not in variables:
                raise PolyParseError(f"variable {var!r} in a univariate polynomial", at)
            exps[var] = exps.get(var, 0) + exp
        out.append((coeff, exps))
    return out


def parse_unipoly(text: str, field: Field) -> UniPoly:
    terms = [(exps.get("x", 0), coeff) for coeff, exps in _parse_terms(text, field, "x")]
    return UniPoly(field, terms)


def parse_tripoly(text: str, field: Field) -> TriPoly:
    terms = []
    for coeff, exps in _parse_terms(text, field, "xyz"):
        terms.append(((exps.get("x", 0), exps.get("y", 0), exps.get("z", 0)), coeff))
    return TriPoly(field, terms)


def _format(p: SparsePoly, names, key=None) -> str:
    if not p.terms:
        return "0x0"
    parts = []
    for m in sorted(p.terms, key=key, reverse=True):
        exps = m if isinstance(m, tuple) else (m,)
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
        c = p.terms[m]
        if c != 1 or not factors:
            factors.insert(0, f"0x{c:x}")
        parts.append("*".join(factors))
    return "+".join(parts)


def format_unipoly(p: UniPoly) -> str:
    return _format(p, "x")


def format_tripoly(p: TriPoly) -> str:
    return _format(p, "xyz", _grlex)
