"""A small GF(2^n) arithmetic of the benchmark's own, used to make inputs and
to check outputs without going through apn20.

Elements are ints whose bit i is the coefficient of t^i.  Multiplication is a
carry-less product followed by reduction by the modulus; fields up to 2^16
elements also get log/exp tables.  Polynomials over a field are dicts from
exponent to nonzero coefficient.
"""

from __future__ import annotations


def clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def reduce(v: int, m: int) -> int:
    dm = m.bit_length()
    while v.bit_length() >= dm:
        v ^= m << (v.bit_length() - dm)
    return v


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, reduce(a, b)
    return a


def is_irreducible(m: int) -> bool:
    """No factor of degree <= n/2: gcd(m, t^(2^i) - t) = 1 for i <= n/2."""
    n = m.bit_length() - 1
    if n < 1:
        return False
    t = reduce(0b10, m)
    v = t
    for _ in range(n // 2):
        v = reduce(clmul(v, v), m)
        if _gcd(m, v ^ t) != 1:
            return False
    return True


def irreducibles(n: int) -> list[int]:
    """Every irreducible polynomial of degree n, in increasing bit pattern."""
    return [m for m in range(1 << n, 1 << (n + 1)) if is_irreducible(m)]


def smallest_irreducible(n: int) -> int:
    return next(m for m in range(1 << n, 1 << (n + 1)) if is_irreducible(m))


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """GF(2^n) = GF(2)[t]/(modulus); the modulus defaults to the smallest."""

    def __init__(self, n: int, modulus: int | None = None):
        self.n = n
        self.modulus = modulus or smallest_irreducible(n)
        self.order = 1 << n
        self._exp = self._log = None
        if n <= 16:
            self._tables()

    def spec(self) -> str:
        return f"{self.n}:0x{self.modulus:x}"

    def _tables(self):
        q1 = self.order - 1
        factors = _prime_factors(q1) if q1 > 1 else []
        gen = next(
            g for g in range(1, self.order)
            if all(self._pow_slow(g, q1 // p) != 1 for p in factors)
        )
        exp, log = [0] * (2 * q1), [0] * self.order
        cur = 1
        for i in range(q1):
            exp[i] = exp[i + q1] = cur
            log[cur] = i
            cur = reduce(clmul(cur, gen), self.modulus)
        self._exp, self._log = exp, log

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = reduce(clmul(r, a), self.modulus)
            a = reduce(clmul(a, a), self.modulus)
            e >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return reduce(clmul(a, b), self.modulus)

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if not a:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        return self._pow_slow(a, e % (self.order - 1) or self.order - 1)

    def roots(self, poly: dict) -> list[int]:
        """Roots in this field of a polynomial over it, by trying every element."""
        return [x for x in range(self.order) if not peval(poly, x, self)]

    def subfield_roots(self, modulus: int) -> list[int]:
        """Roots in this field of the GF(2)[t] polynomial `modulus`, whose degree m
        divides n: they lie in the subfield GF(2^m), which is searched through
        powers of an element of multiplicative order 2^m - 1."""
        m = modulus.bit_length() - 1
        sub_order = (1 << m) - 1
        cofactor = (self.order - 1) // sub_order
        factors = _prime_factors(sub_order) if sub_order > 1 else []
        for y in range(2, self.order):
            z = self.pow(y, cofactor)
            if all(self.pow(z, sub_order // p) != 1 for p in factors):
                break
        poly = {i: 1 for i in range(m + 1) if modulus >> i & 1}
        out, cur = [], 1
        for _ in range(sub_order):
            if not peval(poly, cur, self):
                out.append(cur)
            cur = self.mul(cur, z)
        return out


class Embedding:
    """GF(2^m) -> GF(2^n) sending t to a chosen root of the small modulus."""

    def __init__(self, small: GF, big: GF, root: int):
        self.images = [big.pow(root, i) for i in range(small.n)]

    def __call__(self, a: int) -> int:
        out, i = 0, 0
        while a:
            if a & 1:
                out ^= self.images[i]
            a >>= 1
            i += 1
        return out


def embedding(small: GF, big: GF) -> Embedding:
    """An embedding of small into big (small.n divides big.n)."""
    if small.n == 1:
        return Embedding(small, big, 1)
    return Embedding(small, big, big.subfield_roots(small.modulus)[0])


# -- polynomials over a field: dicts exponent -> coefficient ---------------------


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) ^ c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(p: dict, q: dict, K: GF) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = padd(out, {e1 + e2: K.mul(c1, c2)})
    return out


def ppow(p: dict, k: int, K: GF) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = pmul(out, p, K)
    return out


def pcompose_power(p: dict, k: int) -> dict:
    """p(x^k)."""
    return {e * k: c for e, c in p.items()}


def pmap(p: dict, fn) -> dict:
    return {e: fn(c) for e, c in p.items()}


def peval(p: dict, x: int, K: GF) -> int:
    acc = 0
    for e, c in p.items():
        acc ^= K.mul(c, K.pow(x, e))
    return acc


def is_power_of_two(e: int) -> bool:
    return e > 0 and e & (e - 1) == 0


def is_qaffine(p: dict) -> bool:
    return all(e == 0 or is_power_of_two(e) for e in p)


def is_linearized(p: dict) -> bool:
    return all(is_power_of_two(e) for e in p)


def format_poly(p: dict) -> str:
    """The text grammar the apn20 command reads: 0xC*x^e terms joined by +."""
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        x = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        coeff = f"0x{c:x}"
        parts.append(coeff if not x else (x if c == 1 else f"{coeff}*{x}"))
    return "+".join(parts) or "0x0"


def parse_poly(text: str) -> dict:
    """Inverse of format_poly, for polynomials printed by apn20."""
    out: dict = {}
    for term in text.split("+"):
        coeff, e = 1, 0
        for factor in term.split("*"):
            if factor.startswith("0x"):
                coeff = int(factor, 16)
            elif factor == "x":
                e = 1
            elif factor.startswith("x^"):
                e = int(factor[2:])
            else:
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
        out = padd(out, {e: coeff})
    return out


def linear_rank(vectors) -> tuple[int, dict]:
    """Rank over GF(2) of int bit-vectors, with an echelon basis keyed by top bit."""
    basis: dict = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis), basis


def coset_min(v: int, basis: dict) -> int:
    """The smallest element of v + span(basis), basis in echelon form."""
    for top in sorted(basis, reverse=True):
        if v >> top & 1:
            v ^= basis[top]
    return v
