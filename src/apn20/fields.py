"""Exact arithmetic in GF(2^n) and cubic towers GF(2^n) < GF(2^{3n}).

Field elements are plain ints, bitvectors in the polynomial basis: bit i
holds the coefficient of t^i, so zero and one are always 0 and 1.  An
element is always passed next to its Field, whose methods do the
arithmetic.  Field and TowerField objects are immutable and safe to share
between workers.
"""

from __future__ import annotations

from .linear import apply, echelon, reduce

MAX_FIELD_DEGREE = 24

# log/exp tables are built for fields up to this degree; they must agree
# bit for bit with the generic shift-and-reduce path.
_TABLE_MAX_DEGREE = 16


def _deg(v: int) -> int:
    return v.bit_length() - 1


def _gf2_mod(v, m):
    dm = _deg(m)
    dv = _deg(v)
    while dv >= dm:
        v ^= m << (dv - dm)
        dv = _deg(v)
    return v


def _gf2_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2_sqr(v):
    # squaring over GF(2) spreads the bits out
    r = 0
    i = 0
    while v:
        if v & 1:
            r |= 1 << (2 * i)
        v >>= 1
        i += 1
    return r


def _gf2_gcd(a, b):
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _gf2_inv(a, m):
    """a^-1 mod m for a coprime to m, by the extended Euclidean algorithm.

    Invariants: a = g1 * a0 and v = g2 * a0 mod m, where a0 is the input;
    each step cancels the top bit of the longer of a and v.
    """
    v, g1, g2 = m, 1, 0
    while a != 1:
        j = _deg(a) - _deg(v)
        if j < 0:
            a, v, g1, g2, j = v, a, g2, g1, -j
        a ^= v << j
        g1 ^= g2 << j
    return g1


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _frobenius_power(k, m):
    """t^(2^k) reduced mod m, everything over GF(2)."""
    v = _gf2_mod(0b10, m)
    for _ in range(k):
        v = _gf2_mod(_gf2_sqr(v), m)
    return v


def poly_str(m: int) -> str:
    """Render a GF(2)[t] bitvector like t^4+t+1, for diagnostics."""
    if m == 0:
        return "0"
    parts = []
    for i in range(_deg(m), -1, -1):
        if m >> i & 1:
            parts.append("1" if i == 0 else ("t" if i == 1 else f"t^{i}"))
    return "+".join(parts)


def is_irreducible(m: int) -> bool:
    """Rabin's criterion for a GF(2)[t] bitvector of degree >= 1."""
    n = _deg(m)
    if n < 1:
        return False
    if n == 1:
        return True
    t = _gf2_mod(0b10, m)
    if _frobenius_power(n, m) != t:
        return False
    for p in _prime_factors(n):
        if _gf2_gcd(m, _frobenius_power(n // p, m) ^ t) != 1:
            return False
    return True


def smallest_factor(m: int) -> int:
    """An irreducible factor of m of lowest degree (m reducible, degree >= 1)."""
    if m & 1 == 0:
        return 0b10
    n = _deg(m)
    t = _gf2_mod(0b10, m)
    v = t
    for d in range(1, n // 2 + 1):
        v = _gf2_mod(_gf2_sqr(v), m)
        g = _gf2_gcd(m, v ^ t)
        if g != 1:
            # every factor of g has degree exactly d (smaller d gave gcd 1)
            if _deg(g) == d:
                return g
            for cand in range(1 << d, 1 << (d + 1)):
                if _gf2_mod(g, cand) == 0:
                    return cand
    raise ValueError(f"{poly_str(m)} has no small factor; it is irreducible")


_SMALLEST_IRREDUCIBLE: dict[int, int] = {}


def smallest_irreducible(n: int) -> int:
    """The irreducible degree-n polynomial with smallest integer bit pattern."""
    cached = _SMALLEST_IRREDUCIBLE.get(n)
    if cached is not None:
        return cached
    if n == 1:
        m = 0b10
    else:
        # constant term must be 1 or t divides
        m = next(c for c in range((1 << n) + 1, 1 << (n + 1), 2) if is_irreducible(c))
    _SMALLEST_IRREDUCIBLE[n] = m
    return m


class Field:
    """GF(2^n) presented as GF(2)[t]/(modulus).

    The modulus must be irreducible of degree exactly n; when omitted the
    irreducible polynomial with smallest bit pattern is used, so field
    labels are reproducible across runs.
    """

    __slots__ = ("n", "modulus", "order", "_exp", "_log")

    def __init__(self, n: int, modulus: int | None = None):
        if not 1 <= n <= MAX_FIELD_DEGREE:
            raise ValueError(f"extension degree {n} out of range 1..{MAX_FIELD_DEGREE}")
        if modulus is None:
            modulus = smallest_irreducible(n)
        else:
            if _deg(modulus) != n:
                raise ValueError(
                    f"modulus {poly_str(modulus)} has degree {_deg(modulus)}, expected {n}"
                )
            if not is_irreducible(modulus):
                f = smallest_factor(modulus)
                raise ValueError(
                    f"modulus {poly_str(modulus)} is reducible: divisible by {poly_str(f)}"
                )
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self._exp = None
        self._log = None
        if n <= _TABLE_MAX_DEGREE:
            self._build_tables()

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.n == other.n
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.n, self.modulus))

    def __repr__(self):
        return f"GF(2^{self.n})"

    def spec(self) -> str:
        return f"{self.n}:0x{self.modulus:x}"

    def check(self, v: int, name: str) -> None:
        """Reject a caller's value v, labelled name, that is not an element."""
        if not 0 <= v < self.order:
            raise ValueError(f"{name} = {v:#x} is not an element of {self}")

    # -- int-level arithmetic ------------------------------------------------

    def mul_generic(self, a: int, b: int) -> int:
        return _gf2_mod(_gf2_mul(a, b), self.modulus)

    def _pow_generic(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul_generic(r, a)
            a = self.mul_generic(a, a)
            e >>= 1
        return r

    def _build_tables(self):
        # g is the smallest primitive element; exp[i] = g^i steps by Horner
        # over the bits of g, where each *t is a shift and at most one xor
        # of the modulus, so no entry costs a mul_generic.  Any primitive g
        # gives the same mul, inv and pow_.
        q, m = self.order, self.modulus
        q1 = q - 1
        factors = _prime_factors(q1) if q1 > 1 else []
        gen = 1
        for cand in range(2, q):
            if all(self._pow_generic(cand, q1 // p) != 1 for p in factors):
                gen = cand
                break
        bits = [gen >> j & 1 for j in range(_deg(gen) - 1, -1, -1)]
        exp = [0] * q1
        log = [0] * q
        cur = 1
        for i in range(q1):
            exp[i] = cur
            log[cur] = i
            v = cur
            for b in bits:
                v <<= 1
                if v & q:
                    v ^= m
                if b:
                    v ^= cur
            cur = v
        exp *= 2  # exp[i + q1] = exp[i], so log sums and strided reads need no mod
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self.mul_generic(a, b)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self}")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return _gf2_inv(a, self.modulus)

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError(f"0**{e} in {self}")
            return 0
        q1 = self.order - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % q1]
        if e < 0:
            a = self.inv(a)
            e = -e
        return self._pow_generic(a, e % q1)

    # -- log order: x = g^i for i in range(q - 1), tables only ---------------

    @property
    def has_tables(self) -> bool:
        return self._exp is not None

    def term_in_log_order(self, c: int, e: int) -> list[int]:
        """c x^e at x = g^i for i in range(q - 1), g the generator of the tables.

        That is exp[log c + e i], read as strided slices of the doubled exp:
        each slice runs to its end, and the next starts again below q - 1.
        """
        q1 = self.order - 1
        step = e % q1
        if c == 0 or step == 0:
            return [c] * q1
        exp = self._exp
        p = self._log[c]
        out = []
        while len(out) < q1:
            chunk = exp[p : p + step * (q1 - len(out)) : step]
            out += chunk
            p = (p + step * len(chunk)) % q1
        return out

    def from_log_order(self, vals: list[int], at_zero: int) -> list[int]:
        """The table indexed by element bits: vals[i] at x = g^i, at_zero at 0."""
        out = list(map(vals.__getitem__, self._log))
        out[0] = at_zero
        return out


def parse_field_spec(s: str) -> Field:
    """Parse a field spec "n" or "n:0xHEX" (bit i of HEX = coefficient of t^i)."""
    text = s.strip()
    head, sep, tail = text.partition(":")
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"bad field spec {s!r}: degree {head!r} is not an integer")
    modulus = None
    if sep:
        try:
            modulus = int(tail, 16)
        except ValueError:
            raise ValueError(f"bad field spec {s!r}: modulus {tail!r} is not hex")
    return Field(n, modulus)


# -- roots and embeddings ------------------------------------------------------
#
# Dense polynomials over a Field are lists of coefficient bits, lowest degree
# first.  Subfield embeddings GF(2^m) -> GF(2^n) (m | n) send t to a root of
# the base modulus in the big field.  Any root gives a field homomorphism;
# the smallest root is chosen so embeddings are deterministic.


def _pnorm(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] ^= c
    return _pnorm(out)


def _pmonic(p, K):
    inv = K.inv(p[-1])
    return [K.mul(inv, c) for c in p]


def _pmod(p, m, K):
    # p mod m up to a nonzero factor (exactly p mod m for monic m): scaling
    # by the lead of m instead of dividing by it needs no inverse
    r = list(p)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        c = r[-1]
        shift = len(r) - 1 - dm
        if m[-1] != 1:
            r = [K.mul(m[-1], v) for v in r]
        for i, mc in enumerate(m):
            if mc:
                r[i + shift] ^= K.mul(c, mc)
        _pnorm(r)
    return r


def _pgcd(a, b, K):
    while b:
        a, b = b, _pmod(a, b, K)
    return _pmonic(a, K)


def _psqr(p, K):
    out = [0] * (2 * len(p))
    for i, c in enumerate(p):
        if c:
            out[2 * i] = K.sqr(c)
    return _pnorm(out)


def _split(g, xs, i, K, out):
    # g monic, squarefree, with every root in K, and xs[j] = X^(2^j) mod a
    # multiple of g.  T(X) = sum of (2^i)^(2^j) xs[j] is Tr(2^i r) in GF(2)
    # at each root r, so gcd(g, T) and gcd(g, T + 1) split the roots.
    # Distinct roots differ in Tr(2^i r) for some bit i, and a bit that
    # failed on g fails on its factors.
    while len(g) > 2:
        if i == K.n:
            raise RuntimeError(f"root splitting failed in {K}")
        t, d = [], 1 << i
        for s in xs:
            t = _padd(t, [K.mul(d, c) for c in s])
            d = K.sqr(d)
        i += 1
        g0 = _pgcd(g, t, K)
        if 0 < len(g0) - 1 < len(g) - 1:
            _split(g0, xs, i, K, out)
            g = _pgcd(g, _padd(t, [1]), K)
    if len(g) == 2:
        out.append(g[0])


def roots(coeffs, K: Field) -> list[int]:
    """The distinct roots in K of sum coeffs[i] X^i (bits over K), sorted.

    gcd(h, X^|K| + X) keeps one linear factor per root in K, which also
    drops repeated roots; trace splitting (Berlekamp 1970) separates them.
    """
    h = _pnorm(list(coeffs))
    if not h:
        raise ValueError("the zero polynomial vanishes on all of " + repr(K))
    h = _pmonic(h, K)
    xs = [_pmod([0, 1], h, K)]
    for _ in range(K.n):
        xs.append(_pmod(_psqr(xs[-1], K), h, K))
    out = []
    _split(_pgcd(h, _padd(xs[-1], xs[0]), K), xs[:-1], 0, K, out)
    return sorted(out)


class Embedding:
    """Field homomorphism GF(2^m) -> GF(2^n) determined by the image of t.

    It is GF(2)-linear with basis images beta^i.  Preimages reduce against
    the echelon of the rows (beta^i << m) | 1 << i, whose low m bits track
    which inputs were added.
    """

    __slots__ = ("base", "ext", "beta", "_pows", "_rows")

    def __init__(self, base: Field, ext: Field, beta: int):
        self.base = base
        self.ext = ext
        self.beta = beta
        pows = [1] * base.n
        for i in range(1, base.n):
            pows[i] = ext.mul(pows[i - 1], beta)
        self._pows = pows
        self._rows = echelon((p << base.n) | 1 << i for i, p in enumerate(pows))

    def map_bits(self, bits: int) -> int:
        return apply(self._pows, bits)

    def inverse_bits(self, bits: int) -> int:
        v = reduce(self._rows, bits << self.base.n)
        if v >> self.base.n:
            raise ValueError(
                f"0x{bits:x} is not in the embedded image of {self.base} in {self.ext}"
            )
        return v


_EMBED_CACHE: dict[tuple, Embedding] = {}


def find_embedding(base: Field, ext: Field) -> Embedding:
    """The deterministic embedding of base into ext (base.n must divide ext.n)."""
    if ext.n % base.n != 0:
        raise ValueError(f"no embedding: {base} does not embed in {ext}")
    key = (base.n, base.modulus, ext.n, ext.modulus)
    cached = _EMBED_CACHE.get(key)
    if cached is not None:
        return cached
    modulus = [(base.modulus >> i) & 1 for i in range(base.n + 1)]
    emb = Embedding(base, ext, min(roots(modulus, ext)))
    _EMBED_CACHE[key] = emb
    return emb


class TowerField:
    """GF(2^n) inside GF(2^{3n}) with the q-power Frobenius as generator.

    Elements are raw bits of the extension.  frob_bits, x -> x^q, is the
    embedding of the extension into itself sending t to t^q; it generates
    the degree-3 Galois group.  Trace and norm are the orbit sum and product
    and land in the embedded base field; q1, q4, q5 are the symmetric forms.
    """

    __slots__ = ("base", "ext", "embedding", "_frob")

    def __init__(self, base: Field, ext: Field | None = None):
        if ext is None:
            ext = Field(3 * base.n)
        if ext.n != 3 * base.n:
            raise ValueError(
                f"tower needs extension degree {3 * base.n}, got {ext.n}"
            )
        self.base = base
        self.ext = ext
        self.embedding = find_embedding(base, ext)
        self._frob = Embedding(ext, ext, ext.pow_(0b10, base.order))

    def __repr__(self):
        return f"Tower({self.base!r} < {self.ext!r})"

    def __eq__(self, other):
        return (
            isinstance(other, TowerField)
            and self.base == other.base
            and self.ext == other.ext
        )

    def __hash__(self):
        return hash((self.base, self.ext))

    def frob_bits(self, b: int) -> int:
        return self._frob.map_bits(b)

    def trace_bits(self, b: int) -> int:
        f = self.frob_bits(b)
        return b ^ f ^ self.frob_bits(f)

    def norm_bits(self, b: int) -> int:
        f = self.frob_bits(b)
        return self.ext.mul(b, self.ext.mul(f, self.frob_bits(f)))

    def _orbit(self, b: int):
        f = self.frob_bits(b)
        return (b, f, self.frob_bits(f))

    def q1_bits(self, c: int) -> int:
        mul = self.ext.mul
        c0, c1, c2 = self._orbit(c)
        return mul(c0, c1) ^ mul(c0, c2) ^ mul(c1, c2)

    def q4_bits(self, a: int, b: int) -> int:
        mul = self.ext.mul
        a0, a1, a2 = self._orbit(a)
        b0, b1, b2 = self._orbit(b)
        return mul(a0, mul(a1, b2)) ^ mul(a0, mul(b1, a2)) ^ mul(b0, mul(a1, a2))

    def q5_bits(self, a: int, b: int) -> int:
        mul = self.ext.mul
        a0, a1, a2 = self._orbit(a)
        b0, b1, b2 = self._orbit(b)
        return (
            mul(a0, b1 ^ b2)
            ^ mul(b0, a1 ^ a2)
            ^ mul(a1, b2)
            ^ mul(b1, a2)
        )
