"""Brute-force differential analysis of polynomial functions on GF(2^n).

The differential count of f at (a, b) is the number of x with
f(x+a) + f(x) = b.  Counts are found by exhaustive evaluation; the
differential uniformity is the maximum over a != 0, and f is APN when
that maximum is 2.  Scans across field degrees embed the coefficients
through the canonical subfield embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import Field, FieldElem, field_make
from .polys import UniPoly, is_permutation

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
    worst_a: FieldElem
    worst_b: FieldElem
    ddt: list | None = dc_field(default=None, repr=False)


def value_table(f: UniPoly, field: Field) -> list[int]:
    """f evaluated at every field element, indexed by element bits."""
    g = f.embed(field)
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


def diff_count(f: UniPoly, a: FieldElem, b: FieldElem) -> int:
    """Number of x with f(x+a) + f(x) = b, by exhaustive evaluation."""
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")
    if not a.bits:
        raise ValueError("difference direction a must be nonzero")
    K = a.field
    if K.order > DDT_CAP:
        raise CapExceeded(f"{K} is above the differential cap 2^20")
    vt = value_table(f, K)
    ab, bb = a.bits, b.bits
    return sum(1 for x in range(K.order) if vt[x ^ ab] ^ vt[x] == bb)


def differential_uniformity(f: UniPoly, field: Field, keep_ddt: bool = False) -> DiffReport:
    """Scan the whole difference table; worst pair ties break to smallest (a, b)."""
    q = field.order
    if q > DDT_CAP:
        raise CapExceeded(f"{field} is above the differential cap 2^20")
    if keep_ddt and q > FULL_DDT_CAP:
        raise CapExceeded(f"full table dump capped at 2^10, got {field}")
    vt = value_table(f, field)
    delta = -1
    worst_a = worst_b = 0
    rows = [] if keep_ddt else None
    for a in range(1, q):
        counts = [0] * q
        for x in range(q):
            counts[vt[x ^ a] ^ vt[x]] += 1
        row_max = 0
        row_b = 0
        for b, cnt in enumerate(counts):
            if cnt > row_max:
                row_max = cnt
                row_b = b
        if row_max > delta:
            delta, worst_a, worst_b = row_max, a, row_b
        if rows is not None:
            rows.append(counts)
    return DiffReport(
        field, f, delta, delta <= 2, field.elem(worst_a), field.elem(worst_b), rows
    )


@dataclass
class ScanRow:
    n: int
    delta: int | None
    is_apn: bool | None
    worst_a: FieldElem | None
    worst_b: FieldElem | None
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
        K = field_make(n)
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
