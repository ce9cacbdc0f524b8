"""Differential analysis of polynomial functions on GF(2^n).

The differential count of f at (a, b) is the number of x with
f(x+a) + f(x) = b.  The differential uniformity is the maximum count over
a != 0, and f is APN when that maximum is 2.  `differential_uniformity`
takes one of three exact paths, each ending in the full row of the worst a:

- one non-constant term c x^d: every row is row 1 with b scaled by a^d,
  so row 1 alone decides;
- quadratic f (every exponent of binary weight <= 2): x -> D_a f(x) +
  D_a f(0) is GF(2)-linear, so row a peaks at 2^(n - rank), found from n
  probes and one GF(2) elimination;
- any other f: every row is counted by exhaustive evaluation.

The last two visit only the least element of each Frobenius orbit
a -> a^(2^m), where GF(2^m) holds the coefficients, since rows in one
orbit are permutations of each other.  A full table dump counts every row.
Scans across field degrees embed the coefficients through the canonical
subfield embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import Field
from .linear import rank, table
from .polys import UniPoly, is_permutation, value_table

DDT_CAP = 1 << 20
FULL_DDT_CAP = 1 << 10


class CapExceeded(RuntimeError):
    """A requested computation is above the documented size cap."""


@dataclass
class DiffReport:
    """Differential uniformity of one function on one field."""

    field: Field
    f: UniPoly
    delta: int
    is_apn: bool
    worst_a: int
    worst_b: int
    ddt: list | None = dc_field(default=None, repr=False)


def diff_count(f: UniPoly, K: Field, a: int, b: int) -> int:
    """Number of x in K with f(x+a) + f(x) = b, by exhaustive evaluation."""
    K.check(a, "a")
    K.check(b, "b")
    if not a:
        raise ValueError("difference direction a must be nonzero")
    if K.order > DDT_CAP:
        raise CapExceeded(f"{K} is above the differential cap 2^20")
    vt = value_table(f, K)
    return sum(1 for x in range(K.order) if vt[x ^ a] ^ vt[x] == b)


def _row_counts(vt: list[int], a: int) -> list[int]:
    """Row a of the difference table: counts[b] = #{x : f(x+a) + f(x) = b}."""
    counts = [0] * len(vt)
    for x in range(len(vt)):
        counts[vt[x ^ a] ^ vt[x]] += 1
    return counts


def coefficient_degree(g: UniPoly) -> int:
    """Smallest divisor m of n with c^(2^m) = c for every non-constant coefficient.

    The constant term is left out: it cancels in every derivative.
    """
    K = g.field
    coeffs = [c for e, c in g.terms.items() if e]
    for m in range(1, K.n):
        if K.n % m == 0 and all(K.pow_(c, 1 << m) == c for c in coeffs):
            return m
    return K.n


def frobenius_orbit_reps(field: Field, m: int):
    """Nonzero a in increasing order, skipping any a that is not the least
    element of its orbit under x -> x^(2^m)."""
    q = field.order
    if m == field.n:
        yield from range(1, q)
        return
    # x -> x^(2^m) is GF(2)-linear: tabulate it from the images of the basis
    frob = table([field.pow_(1 << i, 1 << m) for i in range(field.n)])
    for a in range(1, q):
        b = frob[a]
        while b > a:
            b = frob[b]
        if b == a:
            yield a


def differential_path(g: UniPoly) -> str:
    """The path `differential_uniformity` takes for g when no table is kept."""
    exps = [e for e in g.terms if e]
    if len(exps) == 1:
        return "monomial"
    if all(bin(e).count("1") <= 2 for e in exps):
        return "quadratic"
    return "brute"


def _least_rank_row(vt: list[int], field: Field, m: int) -> tuple[int, int]:
    """The smallest a of least rank r of x -> f(x+a) + f(x) + f(a) + f(0),
    which is linear for quadratic f; row a then peaks at 2^(n-r)."""
    units = [1 << i for i in range(field.n)]
    best_a, best_rank = 0, field.n + 1
    for a in frobenius_orbit_reps(field, m):
        fa = vt[a] ^ vt[0]
        r = rank([vt[u ^ a] ^ vt[u] ^ fa for u in units])
        if r < best_rank:
            best_a, best_rank = a, r
    return best_a, best_rank


def differential_uniformity(f: UniPoly, field: Field, keep_ddt: bool = False) -> DiffReport:
    """Differential uniformity; the worst pair ties break to smallest (a, b).

    With keep_ddt every row is counted and kept.  Otherwise the path of
    `differential_path` picks the worst a, whose full row is rebuilt for
    worst_b and to re-check delta; a mismatch raises AssertionError.
    """
    q = field.order
    if q > DDT_CAP:
        raise CapExceeded(f"{field} is above the differential cap 2^20")
    if keep_ddt and q > FULL_DDT_CAP:
        raise CapExceeded(f"full table dump capped at 2^10, got {field}")
    g = f.embed(field)
    vt = value_table(g, field)
    path = "brute" if keep_ddt else differential_path(g)
    if path == "brute":
        reps = range(1, q) if keep_ddt else frobenius_orbit_reps(field, coefficient_degree(g))
        rows = [] if keep_ddt else None
        delta = -1
        for a in reps:
            counts = _row_counts(vt, a)
            row_max = max(counts)
            if row_max > delta:
                delta, worst_a, worst_b = row_max, a, counts.index(row_max)
            if rows is not None:
                rows.append(counts)
        return DiffReport(field, f, delta, delta <= 2, worst_a, worst_b, rows)
    if path == "monomial":
        worst_a, expected = 1, None
    else:
        worst_a, rank = _least_rank_row(vt, field, coefficient_degree(g))
        expected = 1 << (field.n - rank)
    counts = _row_counts(vt, worst_a)
    delta = max(counts)
    if expected is not None and delta != expected:
        raise AssertionError(
            f"over {field}, derivative rank gives delta {expected} "
            f"but row a=0x{worst_a:x} peaks at {delta}"
        )
    return DiffReport(field, f, delta, delta <= 2, worst_a, counts.index(delta))


@dataclass
class ScanRow:
    n: int
    delta: int | None
    is_apn: bool | None
    worst_a: int | None
    worst_b: int | None
    skipped: bool = False
    reason: str | None = None


def apn_scan(f_template: UniPoly, n_range) -> list[ScanRow]:
    """One differential report per extension degree; unembeddable degrees are skipped."""
    rows = []
    base_n = f_template.field.n
    for n in n_range:
        if n % base_n != 0:
            rows.append(
                ScanRow(n, None, None, None, None, True, f"no embedding of GF(2^{base_n}) in GF(2^{n})")
            )
            continue
        K = Field(n)
        rep = differential_uniformity(f_template, K)
        rows.append(ScanRow(n, rep.delta, rep.is_apn, rep.worst_a, rep.worst_b))
    return rows


def invariance_check(f: UniPoly, transform: str, arg: UniPoly, field: Field) -> bool:
    """Whether the named transform preserves the differential profile of f.

    add_qaffine compares the full uniformity; pre_compose/post_compose with a
    permutation compare the APN verdict.
    """
    if transform == "add_qaffine":
        if not arg.is_qaffine():
            raise ValueError(f"{arg!r} is not q-affine")
        base = differential_uniformity(f, field)
        g = f.embed(field) + arg.embed(field)
        return differential_uniformity(g, field).delta == base.delta
    if transform in ("pre_compose", "post_compose"):
        if not is_permutation(arg, field):
            raise ValueError(f"{arg!r} is not a permutation of {field}")
        base = differential_uniformity(f, field)
        fe = f.embed(field)
        le = arg.embed(field)
        g = fe.compose(le) if transform == "pre_compose" else le.compose(fe)
        return differential_uniformity(g, field).is_apn == base.is_apn
    raise ValueError(f"unknown transform {transform!r}")
