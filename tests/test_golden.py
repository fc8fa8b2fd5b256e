"""Golden byte snapshots of the CLI data stream.

The files under ``tests/golden/`` hold the CLI's data output; a change to
``src/`` must reproduce them byte for byte.  Regenerate one only in a
change that is about that output, e.g.

    PYTHONPATH=src python -m eaqmds.cli verify --q-max 60 > tests/golden/verify_q60.json
"""

from pathlib import Path

import pytest

from eaqmds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SNAPSHOTS = [
    *[(f"table_case{c}.{fmt}", ["table", "--case", str(c), "--format", fmt], 0)
      for c in (1, 2, 3, 4) for fmt in ("json", "csv")],
    *[(f"family_case1_m1_k3_a2.{fmt}",
       ["family", "--case", "1", "--m", "1", "--k", "3", "--alpha", "2", "--format", fmt], 0)
      for fmt in ("json", "csv")],
    *[(f"oracle_case1_m1_k3_a1.{fmt}",
       ["oracle", "--case", "1", "--m", "1", "--k", "3", "--alpha", "1", "--format", fmt], 0)
      for fmt in ("json", "csv")],
    ("oracle_case3_m1_k7_a3_n421.json",     # the published [[421,129,189;84]]_29 row
     ["oracle", "--case", "3", "--m", "1", "--k", "7", "--alpha", "3",
      "--oracle-n-max", "421"], 0),
    ("verify_q60.json", ["verify", "--q-max", "60"], 0),
    ("verify_q120_fault.json",
     ["verify", "--q-max", "120", "--oracle-n-max", "0", "--fault-inject"], 1),
    # --meta: the provenance block, last in JSON and as comment lines in CSV
    ("table_case1_meta.csv", ["table", "--case", "1", "--format", "csv", "--meta"], 0),
    ("family_case1_m1_k3_a2_meta.json",
     ["family", "--case", "1", "--m", "1", "--k", "3", "--alpha", "2",
      "--format", "json", "--meta"], 0),
    ("oracle_case1_m1_k3_a1_meta.csv",
     ["oracle", "--case", "1", "--m", "1", "--k", "3", "--alpha", "1",
      "--format", "csv", "--meta"], 0),
    ("verify_q60_meta.json", ["verify", "--q-max", "60", "--meta"], 0),
]


@pytest.mark.parametrize("name, argv, exit_code", SNAPSHOTS,
                         ids=[name for name, _, _ in SNAPSHOTS])
def test_cli_output_matches_golden_bytes(name, argv, exit_code, capsysbinary):
    assert main(argv) == exit_code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
