import json

import pytest

from apn20 import apn, classify, divisors
from apn20.cli import main
from apn20.fields import smallest_irreducible


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_holds(capsys):
    code, out, _ = run(capsys, "verify", "--field", "3", "--all")
    assert code == 0
    assert "10/10 identities hold" in out


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--field", "4", "--identity", "quintic-factorization")
    assert code == 0
    assert out.count("holds") == 1


def test_verify_json_round_trips(capsys):
    code, out, _ = run(capsys, "--seed", "7", "verify", "--field", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["seed"] == 7
    assert all(r["holds"] for r in payload["identities"])
    assert json.loads(json.dumps(payload, indent=2, sort_keys=True)) == payload


def test_apn_text(capsys):
    code, out, _ = run(capsys, "apn", "--field", "5", "--poly", "x^5")
    assert code == 0
    assert "delta 2" in out and "APN yes" in out


def test_apn_full_ddt(capsys):
    code, out, _ = run(capsys, "apn", "--field", "2", "--poly", "x^3", "--full-ddt", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["ddt"]) == 3
    assert all(sum(row) == 4 for row in payload["ddt"])


def test_scan_json_rows(capsys):
    code, out, _ = run(
        capsys, "scan", "--poly", "x^5", "--n-from", "2", "--n-to", "10", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    apn_at = [r["n"] for r in payload["rows"] if r.get("is_apn")]
    assert apn_at == [3, 5, 7, 9]
    row = payload["rows"][1]
    assert set(row) == {"n", "delta", "is_apn", "worst_a", "worst_b"}
    assert row["worst_a"].startswith("0x")


def test_scan_csv(capsys):
    code, out, _ = run(
        capsys, "scan", "--poly", "x^3", "--n-from", "2", "--n-to", "4", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,delta,is_apn,worst_a,worst_b"
    assert len(lines) == 4


def test_scan_json_and_csv_are_exclusive(capsys):
    with pytest.raises(SystemExit) as e:
        main(["scan", "--poly", "x^3", "--n-from", "2", "--n-to", "4", "--json", "--csv"])
    assert e.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_scan_empty_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "scan", "--poly", "x^3", "--n-from", "5", "--n-to", "2")
    assert code == 2
    assert out == ""
    assert "--n-from 5" in err and "--n-to 2" in err


def test_scan_single_degree_range(capsys):
    code, out, _ = run(
        capsys, "scan", "--poly", "x^3", "--n-from", "5", "--n-to", "5", "--json"
    )
    assert code == 0
    assert [r["n"] for r in json.loads(out)["rows"]] == [5]


def test_scan_reports_skipped_rows(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--poly", "x^3", "--base-field", "2", "--n-from", "2", "--n-to", "5",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    skipped = [r["n"] for r in payload["rows"] if r.get("skipped")]
    assert skipped == [3, 5]


def test_classify_family_b(capsys):
    code, out, _ = run(
        capsys, "classify", "--field", "1", "--poly", "x^20+x^10+x^5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "B"
    assert payload["witness_kind"] == "linear_of_power"
    assert payload["L"] == "x^4+x^2+x"
    assert payload["delta_check"]["match"] is True


def test_classify_family_a(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--field", "1",
        "--poly", "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "A"
    assert payload["witness_kind"] == "gold_compose"
    assert all(payload["constraints"].values())


def test_classify_scaled_family_b(capsys):
    code, out, _ = run(
        capsys, "classify", "--field", "2", "--poly", "0x2*x^20+0x2*x^5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "B"
    assert payload["L"] == "0x2*x^4+0x2*x"
    assert payload["quintic_divides"] and payload["quintic_factorization_ok"]


def test_classify_searches_family_a_once(capsys, monkeypatch):
    calls = []
    search = classify.search_perturbations

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(classify, "search_perturbations", counted)
    code, out, _ = run(
        capsys,
        "classify", "--field", "1",
        "--poly", "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["family"] == "A"
    assert len(calls) == 1


def test_classify_family_a_over_gf32(capsys):
    # the tower GF(2^15) labels the report; nothing is computed in it
    code, out, _ = run(
        capsys,
        "classify", "--field", "5",
        "--poly", "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "A"
    assert payload["tower"] == "15:0x8003"
    assert all(payload["constraints"].values())


def test_classify_reaches_every_base_to_gf2_24(capsys):
    # no field of degree 3m is built, so every base field is in reach; the
    # README member's cubic X^3+X+1 has its roots in GF(8), which lies in
    # GF(2^m) exactly when 3 | m
    member = "x^20+x^18+x^17+x^12+x^10+x^9+x^8+x^6+x^5"
    for m in range(9, 25):
        code, out, _ = run(capsys, "classify", "--field", str(m), "--poly", member, "--json")
        assert code == 0, m
        payload = json.loads(out)
        assert payload["family"] == ("none" if m % 3 == 0 else "A"), m
        assert payload["tower"] == f"{3 * m}:0x{smallest_irreducible(3 * m):x}"
        code, out, _ = run(
            capsys, "classify", "--field", str(m), "--poly", "x^20+x^10+x^5", "--json"
        )
        assert code == 0 and json.loads(out)["family"] == "B", m


def test_classify_no_witness(capsys):
    code, out, _ = run(capsys, "classify", "--field", "1", "--poly", "x^20+x^19")
    assert code == 0
    assert "no witness" in out


def test_classify_explicit_tower_modulus(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--field", "1", "--poly", "x^20", "--tower-modulus", "0xd",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["tower"] == "3:0xd"


def test_classify_tower_modulus_without_prefix(capsys):
    code, out, _ = run(
        capsys, "classify", "--field", "1", "--poly", "x^20", "--tower-modulus", "d", "--json"
    )
    assert code == 0
    assert json.loads(out)["tower"] == "3:0xd"


def test_classify_bad_tower_modulus_names_the_field_spec(capsys):
    code, out, err = run(
        capsys, "classify", "--field", "1", "--poly", "x^20", "--tower-modulus", "zz"
    )
    assert code == 2
    assert out == ""
    assert err == "error: bad field spec '3:zz': modulus 'zz' is not hex\n"


def test_divisors_text(capsys):
    code, out, _ = run(capsys, "divisors")
    assert code == 0
    assert "survivors: A0+A1+A2, A0+A1+A2+C1+C2" in out
    assert "delegated" in out


def test_divisors_json_both_conventions(capsys):
    for convention in ("fixed", "frobenius"):
        code, out, _ = run(capsys, "divisors", "--convention", convention, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_checks_hold"] is True
        surv = [c for c in payload["cases"] if c["verdict"] == "survivor"]
        assert len(surv) == 2


def test_divisors_convention_sensitive_case_fails_the_check(capsys, monkeypatch):
    real = divisors.case_analysis

    def one_sensitive(convention):
        cases = real(convention)
        cases[0].convention_sensitive = True
        return cases

    monkeypatch.setattr(divisors, "case_analysis", one_sensitive)
    for convention in ("fixed", "frobenius"):
        code, out, _ = run(capsys, "divisors", "--convention", convention, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_checks_hold"] is False
        assert [c["convention_sensitive"] for c in payload["cases"]].count(True) == 1
    code, _, _ = run(capsys, "divisors")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--field", "3", "--json"],
        ["apn", "--field", "4", "--poly", "x^5", "--json"],
        ["scan", "--poly", "x^13", "--n-from", "2", "--n-to", "6", "--json"],
        ["classify", "--field", "1", "--poly", "x^20+x^10+x^5", "--json"],
        ["divisors", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_identical_invocations_are_byte_identical(capsys, argv):
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "apn", "--field", "4", "--poly", "x^3 + q")
    assert code == 2
    assert "position" in err


def test_bad_field_spec_exit_code(capsys):
    code, _, err = run(capsys, "apn", "--field", "4:0x11", "--poly", "x^3")
    assert code == 2
    assert "reducible" in err


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "apn", "--field", "21:0x200005", "--poly", "x^3")
    assert code == 3
    assert "cap" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["scan", "--poly", "x^5"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (AssertionError("row peaks at 4,\nnot 2"), 4, "error: internal: AssertionError: row peaks"),
        (RuntimeError("stage broke"), 4, "error: internal: RuntimeError: stage broke"),
        (AssertionError(), 4, "error: internal: AssertionError: no detail"),
        (apn.CapExceeded("over the cap"), 3, "error: over the cap"),
    ],
    ids=["assertion", "runtime", "bare-assert", "cap"],
)
def test_internal_failures_exit_4_and_caps_exit_3(capsys, monkeypatch, exc, code, prefix):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(apn, "differential_uniformity", broken)
    got, out, err = run(capsys, "apn", "--field", "4", "--poly", "x^5", "--json")
    assert got == code
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


def test_rank_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(apn, "rank", lambda vectors: 0)
    code, out, err = run(capsys, "apn", "--field", "4", "--poly", "x^20+x^10+x^5", "--json")
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal: AssertionError: over GF(2^4), derivative rank")
