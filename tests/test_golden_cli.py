"""Byte-identity of CLI output against recorded hashes.

tests/data/golden_cli.json lists apn20 command lines (the README examples,
seeded `classify` inputs over GF(2)..GF(2^8) in text and JSON, a family-A
member over GF(4), `classify` over GF(2^9) and GF(2^23), and a few
`apn --json` and `scan --json` calls) with the
exit code and the sha256 of stdout and stderr of each.  A change that alters any of them must re-record
the file on purpose:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from apn20 import cli, fields, polys, surface
from apn20.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"
GOLDEN = json.loads(DATA.read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as e:  # argparse exits on --help and on bad arguments
            rc = e.code
    return {
        "argv": argv,
        "rc": rc,
        "stdout_sha256": _sha256(out.getvalue()),
        "stderr_sha256": _sha256(err.getvalue()),
    }


@pytest.mark.parametrize(
    "expected",
    GOLDEN["commands"],
    ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN["commands"])],
)
def test_cli_output_matches_recorded_hashes(expected):
    assert _record(expected["argv"]) == expected


# calls between the golden ones in the second pass, with the exit code of each;
# the ones not in the golden list must repeat their first output exactly
_INTERLEAVED = (
    (["apn", "--field", "4", "--poly", "x^3 + q"], 2),
    (["--help"], 0),
    (["divisors"], 0),
    (["scan", "--poly", "x^5"], 2),
    (["--seed", "7", "divisors", "--json"], 0),
    (["divisors", "--convention", "frobenius", "--json"], 0),
)


def test_reused_parser_keeps_no_state():
    """A second pass over the golden list in one process, shuffled, with help,
    usage errors, a non-default seed and both divisors conventions between
    its commands."""
    assert cli._build_parser() is cli._build_parser()
    recorded = {tuple(c["argv"]): c for c in GOLDEN["commands"]}
    order = list(GOLDEN["commands"])
    random.Random(17).shuffle(order)
    first = {}
    for i, expected in enumerate(order):
        assert _record(expected["argv"]) == expected
        argv, rc = _INTERLEAVED[i % len(_INTERLEAVED)]
        got, key = _record(argv), tuple(argv)
        assert got["rc"] == rc
        assert got == (recorded[key] if key in recorded else first.setdefault(key, got))


# (field, poly) of golden classify commands: family A over GF(2), GF(4), GF(16)
# and GF(2^8), family B, non-members, and both family_a_reconstruction shapes
# (the hit 0 of x^20+x^12, and a scaled member's three hits)
_NO_SURFACE_INPUTS = {
    ("1", "x^20+x^18+x^17+x^12+x^10+x^9+x^6+x^5+x^2"),
    ("2", "x^20+0x2*x^18+x^17+0x2*x^12+0x3*x^10+0x2*x^9+0x3*x^8+0x2*x^6+x^5+0x3*x+0x1"),
    ("4", "x^20+0x3*x^17+0x2*x^8+0x6*x^5+x^4+0x7*x^2+0x3*x"),
    ("8", "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5"),
    ("1", "x^20+x^10+x^5"),
    ("2", "0x2*x^20+0x2*x^5"),
    ("3", "x^20+0x4*x^16+0x2*x^13+0x6*x^10+x^5+0x4*x^4+0x1"),
    ("6", "x^20+0x33*x^14+0x14*x^10+0x2*x^5+0x2*x"),
    ("1", "x^20+x^12"),
    ("8", "0x2*x^20+0x2*x^18+0x2*x^17+0x2*x^12+0x2*x^10+0x2*x^9+0x2*x^8+0x2*x^6+0x2*x^5"),
}


def test_classify_divides_nothing(monkeypatch):
    """classify reads both divisor questions off the coefficients of f: it
    builds no surface, divides nothing and multiplies no trivariate
    polynomials, and its output is the recorded one."""

    def forbidden(*args):
        raise AssertionError("classify reached the surface")

    # every apn20 module that holds either function under some name
    for fn in (polys.exact_div, surface.surface_poly):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "apn20" or mod_name.startswith("apn20."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, forbidden)
    monkeypatch.setattr(polys.TriPoly, "__mul__", forbidden)
    checked = 0
    for expected in GOLDEN["commands"]:
        argv = expected["argv"]
        if argv[0] == "classify" and (argv[2], argv[4]) in _NO_SURFACE_INPUTS:
            assert _record(argv) == expected
            checked += 1
    assert checked == 16  # the text form of each, and the JSON form of six


def test_classify_builds_no_tower(monkeypatch):
    """classify works over the base field GF(2^m) alone: it builds no
    TowerField, and no Field of degree 3m unless --tower-modulus names one,
    and its output is the recorded one."""

    def forbidden(*args):
        raise AssertionError("classify built a tower")

    built = []
    field_init = fields.Field.__init__

    def recorded(self, n, modulus=None):
        built.append(n)
        field_init(self, n, modulus)

    monkeypatch.setattr(fields.TowerField, "__init__", forbidden)
    monkeypatch.setattr(fields.Field, "__init__", recorded)
    checked = 0
    for expected in GOLDEN["commands"]:
        argv = expected["argv"]
        if argv[0] != "classify":
            continue
        built.clear()
        assert _record(argv) == expected
        if "--tower-modulus" not in argv:
            m = int(argv[argv.index("--field") + 1])
            assert 3 * m not in built, (argv, built)
        checked += 1
    assert checked == 57  # one of them with --tower-modulus


if __name__ == "__main__":
    commands = [_record(c["argv"]) for c in GOLDEN["commands"]]
    lines = ",\n".join("  " + json.dumps(c) for c in commands)
    DATA.write_text(
        '{\n "note": ' + json.dumps(GOLDEN["note"]) + ',\n "commands": [\n' + lines + "\n ]\n}\n"
    )
    print(f"recorded {len(commands)} commands in {DATA}", file=sys.stderr)
