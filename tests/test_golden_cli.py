"""Byte-identity of CLI output against recorded hashes.

tests/data/golden_cli.json lists apn20 command lines (the README examples,
seeded `classify` inputs over GF(2)..GF(2^8) in text and JSON, and a few
`apn --json` and `scan --json` calls) with the exit code and the sha256 of
stdout and stderr of each.  A change that alters any of them must re-record
the file on purpose:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from apn20.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"
GOLDEN = json.loads(DATA.read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
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


if __name__ == "__main__":
    commands = [_record(c["argv"]) for c in GOLDEN["commands"]]
    lines = ",\n".join("  " + json.dumps(c) for c in commands)
    DATA.write_text(
        '{\n "note": ' + json.dumps(GOLDEN["note"]) + ',\n "commands": [\n' + lines + "\n ]\n}\n"
    )
    print(f"recorded {len(commands)} commands in {DATA}", file=sys.stderr)
