"""Command-line front end: verify, apn, scan, classify, divisors.

Reports are deterministic for a fixed invocation.  Exit codes: 0 when the
command completed and every checked statement holds, 1 when a check fails,
2 on usage or parse errors, 3 when a size cap is exceeded, 4 when an
internal invariant fails (an AssertionError or RuntimeError, reported in
one stderr line), so a crash cannot pass for a failed check.  JSON reports
carry "schema": 1 and serialize field elements as 0xHEX.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import apn, classify, divisors, surface
from .fields import parse_field_spec, smallest_irreducible
from .polys import PolyParseError, format_unipoly, parse_unipoly

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _hex(v: int) -> str:
    return f"0x{v:x}"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


@functools.cache  # built on the first main() call; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="apn20",
        description="degree-20 APN analysis over binary fields",
    )
    top.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the built-in identity suite")
    p.add_argument("--field", default="3", help='field spec "n" or "n:0xHEX"')
    group = p.add_mutually_exclusive_group()
    group.add_argument("--identity", help="check a single named identity")
    group.add_argument("--all", action="store_true", help="check every identity (default)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("apn", help="differential uniformity of one function")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--full-ddt", action="store_true", help="dump the whole table (q <= 2^10)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scan", help="differential scan across extension degrees")
    p.add_argument("--poly", required=True)
    p.add_argument("--base-field", default="1", help="field of the coefficients")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")

    p = sub.add_parser("classify", help="match the degree-20 families and witness x^5")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--tower-modulus", help="hex modulus for the cubic extension")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("divisors", help="replay the divisor case analysis")
    p.add_argument(
        "--convention",
        choices=("fixed", "frobenius"),
        default="fixed",
        help="Galois action on the conjugate lines",
    )
    p.add_argument("--json", action="store_true")
    return top


def _cmd_verify(args) -> int:
    field = parse_field_spec(args.field)
    names = [args.identity] if args.identity else None
    reports = surface.run_identity_suite(field, names)
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "verify",
                "seed": args.seed,
                "field": field.spec(),
                "identities": [
                    {
                        "name": r.name,
                        "holds": r.holds,
                        "witness": r.witness,
                    }
                    for r in reports
                ],
            }
        )
    else:
        for r in reports:
            status = "holds" if r.holds else f"FAILS  witness={r.witness}"
            print(f"{r.name:32s} {status}")
        ok = sum(r.holds for r in reports)
        print(f"{ok}/{len(reports)} identities hold over {field}")
    return EXIT_OK if all(r.holds for r in reports) else EXIT_CHECK_FAILED


def _cmd_apn(args) -> int:
    field = parse_field_spec(args.field)
    f = parse_unipoly(args.poly, field)
    rep = apn.differential_uniformity(f, field, keep_ddt=args.full_ddt)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "apn",
            "seed": args.seed,
            "field": field.spec(),
            "poly": format_unipoly(f),
            "delta": rep.delta,
            "is_apn": rep.is_apn,
            "worst_a": _hex(rep.worst_a),
            "worst_b": _hex(rep.worst_b),
        }
        if rep.ddt is not None:
            payload["ddt"] = rep.ddt
        _emit_json(payload)
    else:
        print(f"field {field} ({field.spec()})  poly {format_unipoly(f)}")
        print(
            f"delta {rep.delta}  APN {'yes' if rep.is_apn else 'no'}  "
            f"worst a={_hex(rep.worst_a)} b={_hex(rep.worst_b)}"
        )
        if rep.ddt is not None:
            for a, row in enumerate(rep.ddt, start=1):
                print(f"a={_hex(a)}: {row}")
    return EXIT_OK


def _scan_row_payload(row: apn.ScanRow) -> dict:
    if row.skipped:
        return {"n": row.n, "skipped": True, "reason": row.reason}
    return {
        "n": row.n,
        "delta": row.delta,
        "is_apn": row.is_apn,
        "worst_a": _hex(row.worst_a),
        "worst_b": _hex(row.worst_b),
    }


def _cmd_scan(args) -> int:
    if args.n_from > args.n_to:
        raise ValueError(f"empty range: --n-from {args.n_from} is above --n-to {args.n_to}")
    base = parse_field_spec(args.base_field)
    f = parse_unipoly(args.poly, base)
    rows = apn.apn_scan(f, range(args.n_from, args.n_to + 1))
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "scan",
                "seed": args.seed,
                "poly": format_unipoly(f),
                "rows": [_scan_row_payload(r) for r in rows],
            }
        )
    elif args.csv:
        print("n,delta,is_apn,worst_a,worst_b")
        for r in rows:
            if r.skipped:
                print(f"{r.n},,,,skipped: {r.reason}")
            else:
                print(f"{r.n},{r.delta},{int(r.is_apn)},{_hex(r.worst_a)},{_hex(r.worst_b)}")
    else:
        for r in rows:
            if r.skipped:
                print(f"n={r.n:2d}  skipped ({r.reason})")
            else:
                print(
                    f"n={r.n:2d}  delta={r.delta:3d}  APN {'yes' if r.is_apn else 'no '}"
                    f"  worst a={_hex(r.worst_a)} b={_hex(r.worst_b)}"
                )
    return EXIT_OK


def _cmd_classify(args) -> int:
    field = parse_field_spec(args.field)
    f = parse_unipoly(args.poly, field)
    # the cubic extension only labels the report; --tower-modulus is checked
    # as a field spec, so it still needs 3m <= 24
    if args.tower_modulus:
        tower = parse_field_spec(f"{3 * field.n}:{args.tower_modulus}").spec()
    else:
        tower = f"{3 * field.n}:0x{smallest_irreducible(3 * field.n):x}"
    witness = classify.ccz_witness(f)

    found = not isinstance(witness, classify.NoWitness)
    family = None
    constraints = {}
    if found:
        family = "B" if witness.kind == "linear_of_power" else "A"
    rep_b = classify.check_family_b_divisor(f)
    if family == "A":
        constraints = dict.fromkeys(classify.FAMILY_A_CONSTRAINTS, True)

    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "classify",
            "seed": args.seed,
            "field": field.spec(),
            "tower": tower,
            "poly": format_unipoly(f),
            "family": family or "none",
            "quintic_divides": rep_b.divides,
            "quintic_factorization_ok": rep_b.factorization_ok,
        }
        if found:
            payload.update(
                {
                    "witness_kind": witness.kind,
                    "L": format_unipoly(witness.L),
                    "residual": format_unipoly(witness.residual),
                    "constraints": constraints,
                    "delta_check": None
                    if witness.check_field is None
                    else {
                        "field": witness.check_field.spec(),
                        "delta_f": witness.delta_f,
                        "delta_gold": witness.delta_gold,
                        "match": witness.delta_match,
                    },
                }
            )
        else:
            payload["failure_stage"] = witness.stage
            payload["failure_detail"] = witness.detail
        _emit_json(payload)
    else:
        print(f"field {field}  poly {format_unipoly(f)}")
        print(f"family: {family or 'none'}")
        if found:
            print(f"witness: {witness.kind}  L = {format_unipoly(witness.L)}")
            print(f"residual (q-affine): {format_unipoly(witness.residual)}")
            for k, v in constraints.items():
                print(f"  {k}: {'ok' if v else 'VIOLATED'}")
            if witness.check_field is not None:
                print(
                    f"delta check on {witness.check_field}: "
                    f"delta(f)={witness.delta_f} delta(x^5)={witness.delta_gold} "
                    f"match={'yes' if witness.delta_match else 'NO'}"
                )
            else:
                print("delta check skipped: no usable check field below the cap")
        else:
            print(f"no witness: {witness.stage} ({witness.detail})")
    return EXIT_OK


def _cmd_divisors(args) -> int:
    convention = "conjugate_fixed" if args.convention == "fixed" else "frobenius_swaps_C"
    cases = divisors.case_analysis(convention)
    ok = (
        all(c.uniform_agrees and not c.convention_sensitive for c in cases)
        and len(divisors.survivors(cases)) == 2
    )
    if args.json:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "divisors",
                "seed": args.seed,
                "convention": args.convention,
                "cutoff": divisors.DEGREE_CUTOFF_NOTE,
                "cases": [
                    {
                        "divisor": repr(c.x0),
                        "case": c.case_label,
                        "verdict": c.verdict,
                        "orbit": [repr(d) for d in c.orbit],
                        "orbit_sum": repr(c.orbit_sum) if c.orbit_sum else None,
                        "residual": repr(c.residual) if c.residual else None,
                        "uniform_agrees": c.uniform_agrees,
                        "convention_sensitive": c.convention_sensitive,
                    }
                    for c in cases
                ],
                "delegated": [
                    {"description": d.description, "source": d.source}
                    for d in divisors.delegated_cases()
                ],
                "all_checks_hold": ok,
            }
        )
    else:
        for c in cases:
            extra = f"  sum={c.orbit_sum}" if c.orbit_sum else ""
            if c.residual:
                extra += f"  residual={c.residual}"
            flags = "" if c.uniform_agrees else "  [strategy disagreement]"
            print(f"{c.case_label:14s} {c.x0!r:24} {c.verdict}{extra}{flags}")
        print(f"{len(cases)} cases, survivors: "
              + ", ".join(repr(c.x0) for c in divisors.survivors(cases)))
        print(divisors.DEGREE_CUTOFF_NOTE)
        for d in divisors.delegated_cases():
            print(f"delegated: {d.description} [{d.source}]")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "verify": _cmd_verify,
    "apn": _cmd_apn,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "divisors": _cmd_divisors,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except apn.CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except PolyParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, RuntimeError) as e:
        detail = " ".join(str(e).split()) or "no detail"
        print(f"error: internal: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
