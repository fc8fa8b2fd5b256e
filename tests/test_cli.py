"""CLI surface: output schemas, golden-table reproduction, exit codes."""

import json
import time

import pytest

from eaqmds.cli import main
from eaqmds.fields import _exact
from eaqmds.published_params import PUBLISHED_ROWS, ROW_COUNTS
from eaqmds.verification import run_verification_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_table_json_matches_published(case, capsys):
    code, out, _ = run_cli(capsys, "table", "--case", str(case))
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == case
    assert payload["all_match"] is True
    assert len(payload["rows"]) == ROW_COUNTS[case]
    assert json.loads(json.dumps(payload)) == payload  # lossless round-trip
    for row, ref in zip(payload["rows"], PUBLISHED_ROWS[case]):
        m, q, n, alpha, kq, d, c = ref
        assert (row["m"], row["q"], row["n"], row["alpha"]) == (m, q, n, alpha)
        assert row["ea"] == {"n": n, "k": kq, "d": d, "c": c}
        assert row["verified"] is True


def test_table_case1_last_row_label(capsys):
    code, out, _ = run_cli(capsys, "table", "--case", "1")
    rows = json.loads(out)["rows"]
    assert rows[-1]["label"] == "[[457,1,457;456]]_109"


def test_table_csv_columns_and_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--case", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,m,q,n,alpha,kq,d,c"
    assert lines[1] == "4,1,23,265,1,129,81,24"
    assert lines[-1] == "4,5,151,877,2,1,877,876"
    assert len(lines) == 1 + ROW_COUNTS[4]


def test_table_rejects_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--case", "7"])
    assert exc.value.code == 2


def test_family_json_schema(capsys):
    code, out, _ = run_cli(capsys, "family", "--case", "1", "--m", "1",
                           "--k", "3", "--alpha", "2")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["case", "m", "q", "k", "n", "alpha",
                             "classical", "ea", "checks"]
    assert payload["classical"] == {"n": 85, "k": 27, "d": 59}
    assert payload["ea"]["k"] == 9 and payload["ea"]["c"] == 40
    assert payload["checks"]["z1_size"] == 40
    assert all(payload["checks"][name] is True
               for name in ("consecutive_run", "entanglement_closed_form",
                            "t1_disjoint", "t1_prime_stable"))


def test_family_case2_m3_anchor(capsys):
    code, out, _ = run_cli(capsys, "family", "--case", "2", "--m", "3",
                           "--k", "2", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 53
    assert payload["ea"]["n"] == 281 and payload["ea"]["k"] == 41
    assert payload["ea"]["d"] == 175 and payload["ea"]["c"] == 108


def test_family_inadmissible_parameters(capsys):
    code, _, err = run_cli(capsys, "family", "--case", "1", "--m", "1",
                           "--k", "3", "--alpha", "4")
    assert code == 2
    assert "alpha" in err
    code, _, err = run_cli(capsys, "family", "--case", "1", "--m", "1",
                           "--k", "5", "--alpha", "1")  # q = 21 composite
    assert code == 2
    assert "prime power" in err


def test_family_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "family", "--case", "3", "--m", "1",
                          "--k", "7", "--alpha", "3")
    _, second, _ = run_cli(capsys, "family", "--case", "3", "--m", "1",
                           "--k", "7", "--alpha", "3")
    assert first == second


def test_meta_flag_adds_provenance_without_touching_data(capsys):
    _, plain, _ = run_cli(capsys, "family", "--case", "1", "--m", "1",
                          "--k", "3", "--alpha", "1")
    _, with_meta, _ = run_cli(capsys, "family", "--case", "1", "--m", "1",
                              "--k", "3", "--alpha", "1", "--meta")
    plain_payload = json.loads(plain)
    meta_payload = json.loads(with_meta)
    meta = meta_payload.pop("meta")
    assert meta_payload == plain_payload
    assert meta["tool"] == "eaqmds" and meta["command"] == "family"


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-max", "1", "--q-max", "20",
                           "--oracle-n-max", "90")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["specs"] > 0
    assert all(v["failed"] == 0 for v in payload["checks"].values())
    assert payload["oracle"]["status"] == "ran"
    assert payload["oracle"]["failed"] == 0


def test_verify_oracle_skipped(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-max", "1", "--q-max", "10",
                           "--oracle-n-max", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] == {"status": "skipped"}
    assert payload["specs"] > 0 and payload["ok"] is True


@pytest.mark.parametrize("command", [
    ["oracle", "--case", "1", "--m", "1", "--k", "1", "--alpha", "1"],
    ["verify", "--m-max", "1", "--q-max", "10"],
])
def test_negative_oracle_guard_rejected_at_parse_time(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--oracle-n-max", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--oracle-n-max" in captured.err and ">= 0" in captured.err


def test_non_integer_oracle_guard_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--oracle-n-max", "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--oracle-n-max" in captured.err and "'abc'" in captured.err


@pytest.mark.parametrize("bounds", [["--m-max", "0"], ["--q-max", "3"]])
def test_verify_empty_sweep_is_usage_error(bounds, capsys):
    code, out, err = run_cli(capsys, "verify", *bounds)
    assert code == 2
    assert out == ""
    assert "no family instance" in err


def test_empty_sweep_summary_is_not_ok():
    summary = run_verification_sweep(m_max=0, q_max=250)
    assert summary.spec_count == 0
    assert summary.ok is False


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-max", "1", "--q-max", "20",
                           "--oracle-n-max", "0", "--fault-inject")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["fault_injected"] is True
    assert payload["checks"]["consecutive_run"]["failed"] == 0
    assert payload["checks"]["defining_set_size"]["failed"] == 1
    assert payload["checks"]["quantum_dim_formula"]["failed"] == 1


def test_oracle_known_rows(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--case", "1", "--m", "1",
                           "--k", "3", "--alpha", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_hh_dagger"] == 12 and payload["match"] is True

    code, out, _ = run_cli(capsys, "oracle", "--case", "2", "--m", "1",
                           "--k", "2", "--alpha", "1")
    assert code == 0
    assert json.loads(out)["rank_hh_dagger"] == 24


@pytest.mark.parametrize("command, target", [
    (["family", "--case", "1", "--m", "1", "--k", "3", "--alpha", "2"], "verify_family"),
    (["oracle", "--case", "1", "--m", "1", "--k", "3", "--alpha", "1"],
     "entanglement_rank"),
])
def test_only_spec_errors_are_usage_errors(command, target, monkeypatch):
    # exit 2 is for an inadmissible FamilySpec; a ValueError raised past
    # the spec is a fault of the program and must propagate
    def fail(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(f"eaqmds.cli.{target}", fail)
    with pytest.raises(ValueError, match="internal failure"):
        main(command)


def test_family_past_the_kernel_limit_exits_3(capsys):
    # q = 4 000 037, n = 8 000 148 000 685: q*n is past 2^63, so the
    # instance is refused before any length-n mask is allocated
    code, out, err = run_cli(capsys, "family", "--case", "1", "--m", "1",
                             "--k", "1000009", "--alpha", "1")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: n = 8000148000685")
    assert "2^63" in err


def test_family_out_of_memory_exits_3(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate the mask")

    monkeypatch.setattr("eaqmds.cli.verify_family", fail)
    code, out, err = run_cli(capsys, "family", "--case", "1", "--m", "1",
                             "--k", "3", "--alpha", "2")
    assert (code, out) == (3, "")
    assert err == "error: n = 85 is too large to verify: Unable to allocate the mask\n"


def test_oracle_past_the_kernel_limit_exits_3(capsys):
    # with the n guard lifted, the same instance is refused before any
    # field context is built, not after a tower-modulus scan over GF(q)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--case", "1", "--m", "1",
                             "--k", "1000009", "--alpha", "1",
                             "--oracle-n-max", "100000000000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: n = 8000148000685")
    assert "2^63" in err


def test_oracle_out_of_memory_exits_3(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate the mask")

    monkeypatch.setattr("eaqmds.cli.entanglement_rank", fail)
    code, out, err = run_cli(capsys, "oracle", "--case", "1", "--m", "1",
                             "--k", "3", "--alpha", "1")
    assert (code, out) == (3, "")
    assert err == ("error: n = 85 is too large for the rank oracle: "
                   "Unable to allocate the mask\n")


@pytest.mark.parametrize("command", [
    ["oracle", "--case", "1", "--m", "1", "--k", "3", "--alpha", "1"],
    ["verify", "--m-max", "1", "--q-max", "30"],
])
def test_exactness_refusals_exit_3(command, capsys, monkeypatch):
    # a product refused for its size on the oracle path is a size refusal,
    # not a verification failure
    def refuse(*args, **kwargs):
        _exact(1 << 53, "the test bound")

    monkeypatch.setattr("eaqmds._gflinalg.rank_digits", refuse)
    code, out, err = run_cli(capsys, *command)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "exact float64 sums need the test bound < 2^53" in err


def test_oracle_rejects_an_inadmissible_spec(capsys):
    code, out, err = run_cli(capsys, "oracle", "--case", "1", "--m", "2",
                             "--k", "1", "--alpha", "1")
    assert (code, out) == (2, "")
    assert err == "error: m must be odd and >= 1, got 2\n"


def test_oracle_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "oracle", "--case", "1", "--m", "3",
                           "--k", "4", "--alpha", "1")  # n = 689
    assert code == 3
    assert "300" in err and "689" in err


def test_oracle_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--case", "2", "--m", "1",
                           "--k", "2", "--alpha", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("case,m,q,n,alpha,rank_hh_dagger")
    assert lines[1].startswith("2,1,11,61,2,60,60,60")


def test_csv_meta_comments(capsys):
    _, out, _ = run_cli(capsys, "table", "--case", "1", "--format", "csv",
                        "--meta")
    lines = out.splitlines()
    assert lines[0].startswith("# tool=eaqmds")
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "case,m,q,n,alpha,kq,d,c"
