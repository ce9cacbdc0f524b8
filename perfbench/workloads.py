"""Seeded inputs for each workload and the checks applied to apn20's outputs.

An operation is one apn20 command line.  Inputs are made with the
benchmark's own arithmetic (gf.py) and every output is checked against a
computation made apart from apn20, or against a property the method must
have.  A run's list is a whole number of blocks of a fixed make-up, sized
so that the list lasts about --seconds on the reference machine; a faster
program does the same work in less time.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from operator import itemgetter, xor

import gf

# -- ddt_quadratic and ddt_general ------------------------------------------------

DDT_FIELD_DEGREE = 10


def blocks_for(seconds: float, block_seconds: float) -> int:
    return max(1, round(seconds / block_seconds))


def _tail(rng, K: gf.GF) -> dict:
    """A random q-affine polynomial over K: exponents 0 and 1, 2, 4, 8, 16."""
    return {e: rng.randrange(1, K.order) for e in (0, 1, 2, 4, 8, 16) if rng.random() < 0.5}


def family_a_linear(rng, K: gf.GF) -> dict:
    """L = x (x+c)(x+c^q)(x+c^(q^2)) = x^4 + s2 x^2 + s3 x for a trace-zero c != 0
    of the cubic extension: exactly the L whose cubic X^3 + s2 X + s3 has no
    root in K, since its roots are then c and its two conjugates."""
    while True:
        s2, s3 = rng.randrange(K.order), rng.randrange(1, K.order)
        if not K.roots({3: 1, 1: s2, 0: s3}):
            return {4: 1, 2: s2, 1: s3}


def family_a_member(rng, K: gf.GF) -> dict:
    """f = L^5 + tail, the family-A member with a12 = 0."""
    return gf.padd(gf.ppow(family_a_linear(rng, K), 5, K), _tail(rng, K))


def family_b_member(rng, K: gf.GF) -> dict:
    """f = x^20 + a10 x^10 + a5 x^5 + tail."""
    core = {20: 1, 10: rng.randrange(K.order), 5: rng.randrange(K.order)}
    return gf.padd({e: c for e, c in core.items() if c}, _tail(rng, K))


def weight2_sum(rng, K: gf.GF, n: int) -> dict:
    """Two to five terms x^(2^i + 2^j) with nonzero coefficients, plus a tail."""
    exps, count = set(), rng.randint(2, 5)
    while len(exps) < count:
        i, j = rng.sample(range(n), 2)
        exps.add((1 << i) | (1 << j))
    return gf.padd({e: rng.randrange(1, K.order) for e in exps}, _tail(rng, K))


def value_table(poly: dict, K: gf.GF) -> list[int]:
    vt = [0] * K.order
    for e, c in poly.items():
        for x in range(K.order):
            vt[x] ^= K.mul(c, K.pow(x, e))
    return vt


def quadratic_profile(vt: list[int], n: int) -> tuple[int, int, int]:
    """(delta, worst_a, worst_b) of a function whose exponents have binary weight
    <= 2: x -> f(x+a)+f(x)+f(a)+f(0) is linear, so row a takes each value of the
    coset f(a)+f(0)+image exactly 2^(n - rank) times."""
    best_rank, worst_a, worst_basis = n + 1, 0, {}
    for a in range(1, 1 << n):
        shift = vt[a] ^ vt[0]
        rank, basis = gf.linear_rank(vt[(1 << i) ^ a] ^ vt[1 << i] ^ shift for i in range(n))
        if rank < best_rank:
            best_rank, worst_a, worst_basis = rank, a, basis
    worst_b = gf.coset_min(vt[worst_a] ^ vt[0], worst_basis)
    return 1 << (n - best_rank), worst_a, worst_b


class BrutePairs:
    """For each a != 0, item getters for the pairs {x, x+a} with the top bit of
    a clear in x: one getter per side, so each row is counted in C."""

    def __init__(self, q: int):
        ints = list(range(q))
        self.q, self.getters = q, [None]
        for a in range(1, q):
            top = 1 << (a.bit_length() - 1)
            lo = [ints[x] for x in range(q) if not x & top]
            self.getters.append((itemgetter(*lo), itemgetter(*[ints[x ^ a] for x in lo])))

    def profile(self, vt: list[int]) -> tuple[int, int, int]:
        """(delta, worst_a, worst_b) by counting every row of the difference
        table; each unordered pair is one half of a row's count."""
        delta, worst_a, worst_row = 0, 0, None
        for a in range(1, self.q):
            lo, hi = self.getters[a]
            row = Counter(map(xor, lo(vt), hi(vt)))
            top = max(row.values())
            if top > delta:
                delta, worst_a, worst_row = top, a, row
        return 2 * delta, worst_a, min(b for b, c in worst_row.items() if c == delta)


class DdtWorkload:
    """`apn20 apn --json` on one field of 2^10 elements."""

    block_seconds = 1.15  # six verdicts at about 0.19 s each
    towers = False

    def __init__(self):
        self.K = gf.GF(DDT_FIELD_DEGREE)
        self.gf4_in_K = gf.embedding(gf.GF(2, 0b111), self.K)

    def warmups(self, ops):
        return [["apn", "--field", str(DDT_FIELD_DEGREE), "--poly", "x^3", "--json"]]

    def _op(self, kind: str, poly: dict) -> dict:
        text = gf.format_poly(poly)
        return {
            "kind": kind,
            "field": str(DDT_FIELD_DEGREE),
            "poly": text,
            "argv": ["apn", "--field", str(DDT_FIELD_DEGREE), "--poly", text, "--json"],
        }

    def check(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        d = json.loads(out)
        poly = gf.parse_poly(op["poly"])
        if d["field"] != self.K.spec():
            return f"field {d['field']} != {self.K.spec()}"
        if gf.parse_poly(d["poly"]) != poly:
            return f"echoed poly {d['poly']} != {op['poly']}"
        delta, a, b = self.profile(poly, op)
        got = (d["delta"], int(d["worst_a"], 16), int(d["worst_b"], 16))
        if got != (delta, a, b):
            return f"(delta, worst_a, worst_b) = {got}, expected {(delta, a, b)}"
        if d["is_apn"] != (delta == 2):
            return f"is_apn {d['is_apn']} with delta {delta}"
        return None


class DdtQuadratic(DdtWorkload):
    name = "ddt_quadratic"

    def make_ops(self, rng, seconds):
        K, n = self.K, DDT_FIELD_DEGREE
        gf2, gf4 = gf.GF(1), gf.GF(2, 0b111)
        ops = []
        for _ in range(blocks_for(seconds, self.block_seconds)):
            i = rng.randrange(1, n)
            block = [
                ("gold", {(1 << i) + 1: 1}),
                ("family_a_gf2", family_a_member(rng, gf2)),
                ("family_a_gf4", gf.pmap(family_a_member(rng, gf4), self.gf4_in_K)),
                ("family_b_gf2", family_b_member(rng, gf2)),
                ("family_b_gf4", gf.pmap(family_b_member(rng, gf4), self.gf4_in_K)),
                ("weight2_sum", gf.pmap(weight2_sum(rng, gf4, n), self.gf4_in_K)),
            ]
            rng.shuffle(block)
            ops += [self._op(kind, poly) for kind, poly in block]
        return ops

    def profile(self, poly, op):
        if any(bin(e).count("1") > 2 for e in poly):
            raise ValueError(f"{op['poly']} is not quadratic")
        delta, a, b = quadratic_profile(value_table(poly, self.K), DDT_FIELD_DEGREE)
        if op["kind"] == "gold":
            (e,) = poly
            gold = 1 << math.gcd((e - 1).bit_length() - 1, DDT_FIELD_DEGREE)
            if gold != delta:
                raise AssertionError(f"rank gives {delta}, Gold formula {gold} for x^{e}")
        return delta, a, b


class DdtGeneral(DdtWorkload):
    name = "ddt_general"
    high_weight = (7, 11, 13, 14, 19)
    brute = None

    def make_ops(self, rng, seconds):
        ops = []
        for _ in range(6 * blocks_for(seconds, self.block_seconds)):
            poly = {e: rng.randrange(1, self.K.order)
                    for e in rng.sample(self.high_weight, rng.randint(2, 3))}
            for e in rng.sample(range(21), rng.randint(1, 3)):
                poly.setdefault(e, rng.randrange(1, self.K.order))
            ops.append(self._op("general", poly))
        return ops

    def profile(self, poly, op):
        if self.brute is None:
            self.brute = BrutePairs(self.K.order)
        return self.brute.profile(value_table(poly, self.K))


# -- classify -----------------------------------------------------------------------

# One block, in kinds and counts; with the two scaled inputs below it holds
# 23 operations.  Nine cost less than a family-A GF(2) member and nine more,
# so the median falls in the middle of the five family-A GF(2) members; the
# tail (the eleventh slowest of a 20-second run) falls among the GF(8)
# non-members.  No kind is near half the list.
CLASSIFY_BLOCK = (
    ("family_a", 1, 5),
    ("family_a", 2, 1),
    ("family_a", 3, 1),
    ("family_b", 1, 1),
    ("family_b", 2, 1),
    ("family_b_perm", 2, 1),
    ("family_b", 3, 1),
    ("family_b", 5, 1),
    ("family_b", 6, 1),
    ("family_b", 7, 1),
    ("family_b", 8, 1),
    ("nonmember", 1, 1),
    ("nonmember", 2, 3),
    ("nonmember", 3, 2),
)
# Family-B members whose leading coefficient is not 1.  apn20 assumes a monic
# x^20 (classify.ccz_witness, check_family_b_divisor) and misses them every
# time; the inputs are fixed so that the failed share never depends on the seed.
SCALED_FAMILY_B = (
    (2, "0x2*x^20+0x2*x^5"),
    (5, "0x2*x^20+0x2*x^10+0x2*x^5+x"),
)
OUTSIDE_BOTH_FAMILIES = (7, 11, 13, 14, 15, 19)
SAMPLE_POINTS = 64  # > 20, so agreement is a polynomial identity
FULL_CHECK_ORDER = 1 << 12


class Classify:
    """`apn20 classify --json` on degree-20 inputs over GF(2) to GF(2^8)."""

    name = "classify"
    block_seconds = 5.0
    towers = True

    def __init__(self):
        self._fields: dict = {}
        self._embeddings: dict = {}

    def field(self, n: int) -> gf.GF:
        if n not in self._fields:
            self._fields[n] = gf.GF(n)
        return self._fields[n]

    def embedding(self, small: gf.GF, big: gf.GF) -> gf.Embedding:
        key = (small.n, big.n)
        if key not in self._embeddings:
            self._embeddings[key] = gf.embedding(small, big)
        return self._embeddings[key]

    def warmups(self, ops):
        fields = sorted({op["field"] for op in ops}, key=int)
        return [["classify", "--field", f, "--poly", "x^20+x^5", "--json"] for f in fields]

    def _member(self, rng, kind, n):
        K = self.field(n)
        if kind == "family_a":
            return family_a_member(rng, K)
        if kind == "nonmember":
            e = rng.choice(OUTSIDE_BOTH_FAMILIES)
            return gf.padd(family_b_member(rng, K), {e: rng.randrange(1, K.order)})
        # over GF(4), apn20 runs its delta cross-check on GF(2^10) only when
        # L = x^4 + a10 x^2 + a5 x permutes it: family_b_perm asks for that,
        # family_b for the opposite, so the share of that cost is fixed
        want_perm = kind == "family_b_perm"
        check = self.field(10) if n == 2 else None
        while True:
            f = family_b_member(rng, K)
            if check is None or self._permutes(self._linear_b(f), K, check) == want_perm:
                return f

    @staticmethod
    def _linear_b(f):
        return {e: c for e, c in ((4, 1), (2, f.get(10, 0)), (1, f.get(5, 0))) if c}

    def _permutes(self, L, base, K):
        Le = gf.pmap(L, self.embedding(base, K))
        rank, _ = gf.linear_rank(gf.peval(Le, 1 << i, K) for i in range(K.n))
        return rank == K.n

    def make_ops(self, rng, seconds):
        ops = []
        for _ in range(blocks_for(seconds, self.block_seconds)):
            block = []
            for kind, n, count in CLASSIFY_BLOCK:
                for _ in range(count):
                    block.append((kind, n, gf.format_poly(self._member(rng, kind, n)), False))
            block += [("family_b_scaled", n, text, True) for n, text in SCALED_FAMILY_B]
            rng.shuffle(block)
            for kind, n, text, fault in block:
                op = {
                    "kind": f"{kind}_gf{1 << n}",
                    "family": {"family_a": "A", "nonmember": "none"}.get(kind, "B"),
                    "field": str(n),
                    "poly": text,
                    "argv": ["classify", "--field", str(n), "--poly", text, "--json"],
                    "seed": rng.randrange(1 << 30),
                }
                if fault:
                    op["known_fault"] = "scaled family-B input classified as " \
                                        "something other than family B"
                ops.append(op)
        return ops

    def check(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        d = json.loads(out)
        n = int(op["field"])
        base, ext = self.field(n), self.field(3 * n)
        f = gf.parse_poly(op["poly"])
        if (d["field"], d["tower"]) != (base.spec(), ext.spec()):
            return f"fields {d['field']}, {d['tower']} != {base.spec()}, {ext.spec()}"
        if gf.parse_poly(d["poly"]) != f:
            return f"echoed poly {d['poly']} != {op['poly']}"
        if d["family"] != op["family"]:
            return f"family {d['family']}, expected {op['family']}"
        if op["family"] == "none":
            return None if "witness_kind" not in d else "witness for a non-member"
        L, r = gf.parse_poly(d["L"]), gf.parse_poly(d["residual"])
        if not gf.is_linearized(L) or not gf.is_qaffine(r):
            return f"L = {d['L']} not linearized or residual {d['residual']} not q-affine"
        if op["family"] == "A":
            if d["witness_kind"] != "gold_compose":
                return f"witness kind {d['witness_kind']}"
            if not all(d["constraints"].values()):
                return f"constraints violated: {d['constraints']}"
            core = gf.ppow(L, 5, base)
        else:
            if d["witness_kind"] != "linear_of_power":
                return f"witness kind {d['witness_kind']}"
            if not (d["quintic_divides"] and d["quintic_factorization_ok"]):
                return "S5 does not divide the surface of a family-B member"
            core = gf.pcompose_power(L, 5)
        err = self._pointwise(f, gf.padd(core, r), base, ext, random.Random(op["seed"]))
        if err:
            return err
        dc = d["delta_check"]
        if dc is not None:
            m = int(dc["field"].split(":")[0])
            K = self.field(m)
            gold = 1 << math.gcd(2, m)
            if dc["field"] != K.spec() or not self._permutes(L, base, K):
                return f"check field {dc['field']} is not one where L permutes"
            if (dc["delta_gold"], dc["delta_f"], dc["match"]) != (gold, gold, True):
                return f"delta check {dc}, Gold formula gives {gold}"
        return None

    def _pointwise(self, f, g, base, ext, rng):
        """f = g on every element of the tower extension, or on SAMPLE_POINTS
        distinct ones when it is larger than 2^12: both sides have degree <= 20,
        so that many agreements already make them the same polynomial."""
        emb = self.embedding(base, ext)
        fe, ge = gf.pmap(f, emb), gf.pmap(g, emb)
        if ext.order <= FULL_CHECK_ORDER:
            points = range(ext.order)
        else:
            points = rng.sample(range(ext.order), SAMPLE_POINTS)
        for x in points:
            if gf.peval(fe, x, ext) != gf.peval(ge, x, ext):
                return f"witness disagrees with f at 0x{x:x} of {ext.spec()}"
        return None


# -- replay -------------------------------------------------------------------------

IDENTITY_NAMES = (
    "even-degree-split",
    "quintic-factorization",
    "plane-coprime-odd",
    "deg9-quintic-plane",
    "deg17-combination",
    "deg18-split",
    "deg14-split",
    "deg15-plane-coprime",
    "quintic-divisibility",
    "plane-coprime-mixed",
)
LINES = ("A0", "A1", "A2", "C1", "C2")
HYPERPLANE = (3, 3, 3, 4, 4)
SURVIVORS = {(1, 1, 1, 0, 0), (1, 1, 1, 1, 1)}
REPLAY_DEGREES = range(3, 13)
REPLAY_OPS_PER_SECOND = 4  # per field degree and per divisor convention


def parse_divisor(text: str) -> tuple:
    coeffs = dict.fromkeys(LINES, 0)
    if text != "0":
        for part in text.split("+"):
            k, _, line = part.rpartition("*")
            coeffs[line] += int(k or 1)
    return tuple(coeffs[line] for line in LINES)


def candidate_divisors() -> set:
    """A0 once, A1, A2 up to 3, C1, C2 up to 4, total degree 2 to 5."""
    return {
        (1, a1, a2, c1, c2)
        for a1 in range(4) for a2 in range(4) for c1 in range(5) for c2 in range(5)
        if 2 <= 1 + a1 + a2 + c1 + c2 <= 5
    }


class Replay:
    """`apn20 verify --all --json` over distinct fields, and `apn20 divisors`."""

    name = "replay"
    towers = False

    def warmups(self, ops):
        # the listed fields must stay cold, so warm up on one outside the list
        return [
            ["verify", "--field", "2", "--all", "--json"],
            ["divisors", "--json"],
            ["divisors", "--convention", "frobenius", "--json"],
        ]

    def make_ops(self, rng, seconds):
        per_kind = max(1, round(REPLAY_OPS_PER_SECOND * seconds))
        ops = []
        for n in REPLAY_DEGREES:
            pool = gf.irreducibles(n)
            for m in rng.sample(pool, min(per_kind, len(pool))):
                spec = f"{n}:0x{m:x}"
                ops.append({"kind": f"verify_n{n}", "field": spec,
                            "argv": ["verify", "--field", spec, "--all", "--json"]})
        for convention in ("fixed", "frobenius"):
            ops += [{"kind": f"divisors_{convention}", "convention": convention,
                     "argv": ["divisors", "--convention", convention, "--json"]}] * per_kind
        rng.shuffle(ops)
        return ops

    def check(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        d = json.loads(out)
        if op["kind"].startswith("verify"):
            if d["field"] != op["field"]:
                return f"field {d['field']} != {op['field']}"
            names = tuple(r["name"] for r in d["identities"])
            if names != IDENTITY_NAMES:
                return f"identities {names}"
            failing = [r["name"] for r in d["identities"] if not r["holds"]]
            return f"identities fail: {failing}" if failing else None
        return self._check_divisors(op, d)

    def _check_divisors(self, op, d):
        if d["convention"] != op["convention"] or not d["all_checks_hold"]:
            return "convention or all_checks_hold wrong"
        cases = {parse_divisor(c["divisor"]): c for c in d["cases"]}
        if len(cases) != len(d["cases"]) or set(cases) != candidate_divisors():
            return "the cases are not the candidate divisors below D"
        survivors = set()
        for x0, c in cases.items():
            if not c["uniform_agrees"]:
                return f"strategies disagree on {c['divisor']}"
            if not c["orbit"]:
                continue
            total = tuple(map(sum, zip(*(parse_divisor(o) for o in c["orbit"]))))
            if total != parse_divisor(c["orbit_sum"]):
                return f"orbit of {c['divisor']} does not sum to {c['orbit_sum']}"
            fits = all(t <= h for t, h in zip(total, HYPERPLANE))
            if fits != (c["verdict"] == "survivor"):
                return f"verdict {c['verdict']} for orbit sum {c['orbit_sum']}"
            if fits:
                survivors.add(x0)
        return None if survivors == SURVIVORS else f"survivors {sorted(survivors)}"


WORKLOADS = {w.name: w for w in (DdtQuadratic, DdtGeneral, Classify, Replay)}
