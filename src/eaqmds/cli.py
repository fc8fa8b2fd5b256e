"""Command-line front end.

Subcommands:
  table    reproduce a family's published parameter table and verify it
  family   inspect one instance: code, EA parameters, all checks
  verify   run the property sweep with configurable bounds
  oracle   compare rank(H H†) against |Z1| for one instance

Exit codes: 0 success, 1 verification failure, 2 usage or parameter
error, 3 size-guard refusal.  Data output is byte-stable across runs;
``--meta`` adds tool provenance (see ``_write``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .cosets import decompose
from .families import CASES, DEFAULT_M_MAX, DEFAULT_Q_MAX, FamilySpec, \
    build_defining_set, closed_form, ea_params, spec_from_q, verify_family
from .fields import ExactnessError
from .published_params import PUBLISHED_ROWS
from .rank_oracle import DEFAULT_N_MAX, OracleSizeError, entanglement_rank
from .verification import run_verification_sweep

CSV_COLUMNS = ("case", "m", "q", "n", "alpha", "kq", "d", "c")


def _write(args, command: str, options: dict, payload: dict, header, rows):
    """Write a subcommand's data stream to stdout: ``payload`` as JSON, or
    ``header`` and ``rows`` as CSV.  With ``--meta`` the provenance (tool,
    version, command and the sorted ``options``) is the JSON's last key,
    or ``# k=v`` and ``# option.k=v`` comment lines before the CSV header.
    """
    meta = {"tool": "eaqmds", "version": __version__, "command": command,
            "options": {k: options[k] for k in sorted(options)}}
    if args.format == "json":
        print(json.dumps({**payload, "meta": meta} if args.meta else payload,
                         indent=2))
        return
    if args.meta:
        for k in ("tool", "version", "command"):
            print(f"# {k}={meta[k]}")
        for k, v in meta["options"].items():
            print(f"# option.{k}={v}")
    csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])


def _spec(args) -> FamilySpec | None:
    """The FamilySpec that --case/--m/--k/--alpha name, or None after
    printing the spec's own ``ValueError``."""
    try:
        return FamilySpec(args.case, args.m, args.k, args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_table(args) -> int:
    rows, csv_rows = [], []
    all_match = True
    for m, q, n, alpha, kq, d, c in PUBLISHED_ROWS[args.case]:
        spec = spec_from_q(args.case, m, q, alpha)
        ea = ea_params(spec)
        z1 = decompose(spec.n, spec.q, build_defining_set(spec))
        verified = (spec.n, ea.kq, ea.d, ea.c) == (n, kq, d, c) and len(z1) == ea.c
        all_match &= verified
        rows.append({
            "m": m, "q": q, "n": spec.n, "alpha": alpha,
            "ea": {"n": ea.n, "k": ea.kq, "d": ea.d, "c": ea.c},
            "label": ea.label(q),
            "verified": verified,
        })
        csv_rows.append((args.case, m, q, spec.n, alpha, ea.kq, ea.d, ea.c))
    _write(args, "table", {"case": args.case, "format": args.format},
           {"case": args.case, "rows": rows, "all_match": all_match},
           CSV_COLUMNS, csv_rows)
    return 0 if all_match else 1


def _instance(spec: FamilySpec) -> dict:
    return {"case": spec.case, "m": spec.m, "q": spec.q, "k": spec.k,
            "n": spec.n, "alpha": spec.alpha}


def _cmd_family(args) -> int:
    spec = _spec(args)
    if spec is None:
        return 2
    cf = closed_form(spec)
    ea = ea_params(spec)
    try:
        report = verify_family(spec)
    except (ExactnessError, MemoryError) as exc:  # n too large for the masks
        print(f"error: n = {spec.n} is too large to verify: {exc}",
              file=sys.stderr)
        return 3
    payload = {
        **_instance(spec),
        "classical": {"n": spec.n, "k": cf.classical_dim, "d": cf.d},
        "ea": {
            "n": ea.n, "k": ea.kq, "d": ea.d, "c": ea.c,
            "ea_singleton_equality": ea.ea_singleton_equality,
            "d_within_half": ea.d_within_half,
        },
        "checks": {
            **report.checks,
            "z1_size": report.z1_size,
            "z2_size": report.z2_size,
        },
    }
    _write(args, "family", {"case": args.case, "m": args.m, "k": args.k,
                            "alpha": args.alpha, "format": args.format},
           payload, CSV_COLUMNS,
           [(spec.case, spec.m, spec.q, spec.n, spec.alpha, ea.kq, ea.d, ea.c)])
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    try:
        summary = run_verification_sweep(args.m_max, args.q_max, args.oracle_n_max,
                                         args.fault_inject)
    except ExactnessError as exc:
        print(f"error: the sweep is too large to verify: {exc}", file=sys.stderr)
        return 3
    if summary.spec_count == 0:
        print(f"error: no family instance has m <= {args.m_max} and "
              f"q <= {args.q_max}; an empty sweep verifies nothing",
              file=sys.stderr)
        return 2
    payload = summary.as_dict()
    identity, oracle = payload["coset_identity"], payload["oracle"]
    rows = [("spec_checks", name, counts["passed"], counts["failed"])
            for name, counts in payload["checks"].items()]
    rows.append(("coset_identity", "neg_q_coset_map",
                 identity["passed"], identity["failed"]))
    rows.append(("oracle", "rank_vs_z1", oracle.get("passed", "skipped"),
                 oracle.get("failed", "skipped")))
    _write(args, "verify", {"m_max": args.m_max, "q_max": args.q_max,
                            "oracle_n_max": args.oracle_n_max,
                            "fault_inject": args.fault_inject},
           payload, ("section", "check", "passed", "failed"), rows)
    return 0 if summary.ok else 1


def _cmd_oracle(args) -> int:
    spec = _spec(args)
    if spec is None:
        return 2
    try:
        report = entanglement_rank(spec, n_max=args.oracle_n_max)
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ExactnessError, MemoryError) as exc:
        print(f"error: n = {spec.n} is too large for the rank oracle: {exc}",
              file=sys.stderr)
        return 3
    result = {
        "rank_hh_dagger": report.rank_hh_dagger,
        "z1_size": report.z1_size,
        "closed_form_c": report.closed_form_c,
        "match": report.match,
    }
    _write(args, "oracle", {"case": args.case, "m": args.m, "k": args.k,
                            "alpha": args.alpha, "oracle_n_max": args.oracle_n_max},
           {**_instance(spec), **result,
            "matches_closed_form": report.matches_closed_form},
           ("case", "m", "q", "n", "alpha", *result),
           [(spec.case, spec.m, spec.q, spec.n, spec.alpha, *result.values())])
    return 0 if report.match and report.matches_closed_form else 1


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqmds",
        description="Construct and verify the four EAQMDS code families "
                    "of length n = (q^2+1)/(m^2+1).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--meta", action="store_true",
                       help="prepend tool provenance to the output")

    def add_instance(p):
        p.add_argument("--case", type=int, choices=CASES, required=True)
        for flag in ("--m", "--k", "--alpha"):
            p.add_argument(flag, type=int, required=True)

    p_table = sub.add_parser("table", help="reproduce one published table")
    p_table.add_argument("--case", type=int, choices=CASES, required=True)
    add_common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_family = sub.add_parser("family", help="inspect one family instance")
    add_instance(p_family)
    add_common(p_family)
    p_family.set_defaults(func=_cmd_family)

    p_verify = sub.add_parser("verify", help="run the property sweep")
    p_verify.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    p_verify.add_argument("--q-max", type=int, default=DEFAULT_Q_MAX)
    p_verify.add_argument("--oracle-n-max", type=_non_negative_int,
                          default=DEFAULT_N_MAX,
                          help="rank-oracle size guard; 0 skips the oracle")
    p_verify.add_argument("--fault-inject", action="store_true",
                          help="mutate one defining set to prove checks can fail")
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="rank(H H†) versus |Z1|")
    add_instance(p_oracle)
    p_oracle.add_argument("--oracle-n-max", type=_non_negative_int,
                          default=DEFAULT_N_MAX)
    add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
