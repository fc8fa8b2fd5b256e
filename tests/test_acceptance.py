"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Every criterion is exact (integer equality, no tolerances) and carries a
wall-clock budget.  The report lines are echoed in pytest's terminal
summary, so a plain ``pytest tests/test_acceptance.py`` shows one line
per criterion.
"""

import json
import time

import numpy as np

import residue_reference as ref
from eaqmds import families
from eaqmds.cli import main as cli_main
from eaqmds.cosets import decompose
from eaqmds._gflinalg import polymul_digits
from eaqmds.cyclic import generator_digits
from eaqmds.families import (
    build_T1,
    build_T1_prime,
    build_defining_set,
    closed_form,
    ea_params,
    spec_from_q,
    sweep_specs,
    theorem_quantum_dim,
)
from eaqmds.published_params import PUBLISHED_ROWS
from eaqmds.rank_oracle import code_context, entanglement_rank
from linalg_reference import generator_matrix_digits, matmul_digits, parity_check_digits
from residue_reference import all_cosets

SWEEP_M_MAX = 5
SWEEP_Q_MAX = 250
ORACLE_N_MAX = 300


def report(log: list, number: int | str, name: str, failures: list,
           elapsed: float, budget: float):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    line = (f"ACCEPTANCE {number} ({name}): {status} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    log.append(line)
    print(line)
    assert not failures, failures[:10]
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_table_reproduction(capsys, acceptance_log):
    t0 = time.monotonic()
    failures = []
    total_rows = 0
    for case in (1, 2, 3, 4):
        code = cli_main(["table", "--case", str(case)])
        out = capsys.readouterr().out
        payload = json.loads(out)
        if code != 0 or not payload["all_match"]:
            failures.append(("table mismatch", case))
        rows = payload["rows"]
        total_rows += len(rows)
        for row, ref in zip(rows, PUBLISHED_ROWS[case]):
            m, q, n, alpha, kq, d, c = ref
            got = (row["m"], row["q"], row["ea"]["n"], row["alpha"],
                   row["ea"]["k"], row["ea"]["d"], row["ea"]["c"])
            if got != (m, q, n, alpha, kq, d, c):
                failures.append((case, ref, got))
    if total_rows != 57:
        failures.append(("row count", total_rows))
    report(acceptance_log, 1, "table reproduction, 57 rows exact", failures,
           time.monotonic() - t0, 10.0)


def test_criterion_2_closed_form_vs_decomposition(acceptance_log):
    t0 = time.monotonic()
    failures = []
    count = 0
    for spec in sweep_specs(SWEEP_M_MAX, SWEEP_Q_MAX):
        z = build_defining_set(spec)
        z1 = decompose(spec.n, spec.q, z)
        if len(z1) != closed_form(spec).c:
            failures.append((spec, len(z1), closed_form(spec).c))
        count += 1
    if count < 3000:
        failures.append(("sweep unexpectedly small", count))
    report(acceptance_log, 2, f"|Z n -qZ| == closed-form c on {count} specs", failures,
           time.monotonic() - t0, 30.0)


def test_criterion_2b_closed_form_vs_decomposition_past_q250(acceptance_log):
    # widens criterion 2's coverage to q <= 500; criterion 2 is unchanged
    t0 = time.monotonic()
    failures = []
    count = 0
    for spec in sweep_specs(SWEEP_M_MAX, 500):
        z = build_defining_set(spec)
        z1 = decompose(spec.n, spec.q, z)
        if len(z1) != closed_form(spec).c:
            failures.append((spec, len(z1), closed_form(spec).c))
        count += 1
    if count != 12182:
        failures.append(("sweep size", count))
    report(acceptance_log, "2b", f"|Z n -qZ| == closed-form c on {count} specs, q <= 500",
           failures, time.monotonic() - t0, 30.0)


def floor_sum_z1(spec) -> int:
    """|Z n (-qZ)| of the run Z = [s+1-delta, s+delta] by two floor sums,
    with delta from the closed form and no residue listed."""
    delta = closed_form(spec).delta
    return ref.z1_count(spec.n, spec.q, spec.s + 1 - delta, spec.s + delta)


def test_criterion_2c_closed_form_vs_floor_sum_count(acceptance_log):
    # route 2's number without masks: against the closed form to q <= 1000,
    # and against decompose on the default sweep
    t0 = time.monotonic()
    failures = []
    count = 0
    for spec in sweep_specs(SWEEP_M_MAX, 1000):
        got, c = floor_sum_z1(spec), closed_form(spec).c
        if got != c:
            failures.append((spec, got, c))
        count += 1
    if count != 42903:
        failures.append(("sweep size", count))
    default = 0
    for spec in sweep_specs(SWEEP_M_MAX, SWEEP_Q_MAX):
        got, z1 = floor_sum_z1(spec), decompose(spec.n, spec.q, build_defining_set(spec))
        if got != len(z1):
            failures.append(("decompose", spec, got, len(z1)))
        default += 1
    if default != 3438:
        failures.append(("default sweep size", default))
    report(acceptance_log, "2c", f"floor-sum |Z n -qZ| == closed-form c on {count} specs, "
           f"q <= 1000, and == |decompose| on {default}", failures,
           time.monotonic() - t0, 5.0)


def test_criterion_2c_fails_under_a_shape_fault(monkeypatch):
    # delta0 + 1 in _shape moves delta by 1 and c by 2, but |Z1| of the
    # longer run equals the old c, so every spec that can take it flips
    specs = [spec for spec in sweep_specs() if closed_form(spec).delta + 1 <= spec.s]
    assert len(specs) == 3286
    shape = families._shape

    def shifted(case, m):
        b, delta0 = shape(case, m)
        return b, delta0 + 1

    monkeypatch.setattr(families, "_shape", shifted)
    assert sum(floor_sum_z1(spec) != closed_form(spec).c for spec in specs) == 3286


def test_criterion_3_rank_oracle(acceptance_log):
    t0 = time.monotonic()
    failures = []
    lengths = set()
    count = 0
    for spec in sweep_specs(SWEEP_M_MAX, SWEEP_Q_MAX):
        if spec.n > ORACLE_N_MAX:
            continue
        rep = entanglement_rank(spec, n_max=ORACLE_N_MAX)
        if not (rep.match and rep.matches_closed_form):
            failures.append((spec, rep))
        lengths.add(spec.n)
        count += 1
    for required in (61, 85, 145, 181, 185, 221, 265, 281):
        if required not in lengths:
            failures.append(("length not covered", required))
    report(acceptance_log, 3, f"rank(HH+) == |Z1| on {count} instances, n <= {ORACLE_N_MAX}",
           failures, time.monotonic() - t0, 120.0)


def test_criterion_3b_rank_oracle_published_rows_past_guard(acceptance_log):
    # the default guard stays at 300; this widens coverage to the 19
    # published rows with 300 < n <= 700 (n = 421, 449, 457, 533, 689)
    t0 = time.monotonic()
    failures = []
    lengths = set()
    count = 0
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            if not 300 < n <= 700:
                continue
            rep = entanglement_rank(spec_from_q(case, m, q, alpha), n_max=700)
            if not (rep.rank_hh_dagger == c and rep.match and rep.matches_closed_form):
                failures.append(((case, m, q, alpha), c, rep))
            lengths.add(n)
            count += 1
    if count != 19 or lengths != {421, 449, 457, 533, 689}:
        failures.append(("coverage", count, sorted(lengths)))
    report(acceptance_log, "3b", f"rank(HH+) == published c on {count} rows, "
              "300 < n <= 700", failures, time.monotonic() - t0, 60.0)


def test_criterion_3c_rank_oracle_published_rows_to_n1000(acceptance_log):
    # widens the oracle to the 6 published rows with 700 < n <= 1000
    # (n = 877 twice, n = 941 four times); the guard and 3b are unchanged
    t0 = time.monotonic()
    failures = []
    lengths = []
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            if not 700 < n <= 1000:
                continue
            rep = entanglement_rank(spec_from_q(case, m, q, alpha), n_max=1000)
            if not (rep.rank_hh_dagger == c and rep.match and rep.matches_closed_form):
                failures.append(((case, m, q, alpha), c, rep))
            lengths.append(n)
    if sorted(lengths) != [877, 877, 941, 941, 941, 941]:
        failures.append(("coverage", sorted(lengths)))
    report(acceptance_log, "3c", f"rank(HH+) == published c on {len(lengths)} rows, "
              "700 < n <= 1000", failures, time.monotonic() - t0, 60.0)


def test_criterion_3d_rank_oracle_published_rows_to_n2197(acceptance_log):
    # widens the oracle to the 8 published rows with 1000 < n <= 2197
    # (n = 2017 and 2197, four each), so all 57 rows are rank-checked;
    # the guard and 3, 3b and 3c are unchanged
    t0 = time.monotonic()
    failures = []
    lengths = []
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            if not 1000 < n <= 2197:
                continue
            rep = entanglement_rank(spec_from_q(case, m, q, alpha), n_max=2197)
            if not (rep.rank_hh_dagger == c and rep.match and rep.matches_closed_form):
                failures.append(((case, m, q, alpha), c, rep))
            lengths.append(n)
    if sorted(lengths) != [2017] * 4 + [2197] * 4:
        failures.append(("coverage", sorted(lengths)))
    report(acceptance_log, "3d", f"rank(HH+) == published c on {len(lengths)} rows, "
              "1000 < n <= 2197", failures, time.monotonic() - t0, 60.0)


def test_criterion_4_lemma_suite(acceptance_log):
    t0 = time.monotonic()
    failures = []
    identity_pairs = set()
    count = 0
    for spec in sweep_specs(SWEEP_M_MAX, SWEEP_Q_MAX):
        n, q = spec.n, spec.q
        if (q, n) not in identity_pairs:
            identity_pairs.add((q, n))
            if not ref.coset_identity_holds(q, n):
                failures.append(("coset identity", q, n))
        # the laws in image form, scattered by the test reference, so they
        # do not rest on the gathers verify_family uses
        t1 = build_T1(spec)
        if (t1.mask & ref.image_mask(n, -q, t1.array)).any():
            failures.append(("T1 not disjoint from -qT1", spec))
        t1p = build_T1_prime(spec)
        if not np.array_equal(ref.image_mask(n, -q, t1p.array), t1p.mask):
            failures.append(("-qT1' != T1'", spec))
        count += 1
    report(acceptance_log, 4, f"coset identity ({len(identity_pairs)} (q,n) pairs, exhaustive "
              f"u,v < q) + T1/T1' laws on {count} specs",
           failures, time.monotonic() - t0, 60.0)


def test_criterion_5_algebraic_consistency(acceptance_log):
    t0 = time.monotonic()
    failures = []

    for q, n, case, m, k, alpha in ((11, 61, 2, 1, 2, 1), (13, 85, 1, 1, 3, 1)):
        subfield, tower, lam = code_context(q, n)
        x_n_minus_1 = np.zeros((n + 1, subfield.degree), dtype=np.int64)
        x_n_minus_1[0, 0], x_n_minus_1[n, 0] = subfield.p - 1, 1
        product = x_n_minus_1[n:]     # the constant 1
        for coset in all_cosets(n, (q * q) % n):
            product = polymul_digits(product, generator_digits(tower, lam, coset),
                                     subfield)
        if not np.array_equal(product, x_n_minus_1):
            failures.append(("minimal polynomial product", n))

        spec = spec_from_q(case, m, q, alpha)
        z = build_defining_set(spec)
        g = generator_digits(tower, lam, z)
        if len(g) - 1 != len(z):
            failures.append(("deg g != |Z|", n, len(g) - 1, len(z)))
        h = generator_digits(tower, lam, z.complement())   # the cosets outside Z
        if not np.array_equal(polymul_digits(g, h, subfield), x_n_minus_1):
            failures.append(("g h != x^n - 1", n))
        gmat = generator_matrix_digits(g, n)
        hmat = parity_check_digits(h, n)
        if matmul_digits(gmat, hmat.transpose(1, 0, 2), subfield).any():
            failures.append(("G H^T != 0", n))

    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            spec = spec_from_q(case, m, q, alpha)
            cf = closed_form(spec)
            assembled = 2 * cf.classical_dim - spec.n + cf.c
            if not (assembled == theorem_quantum_dim(spec) == kq):
                failures.append(("dimension formula", case, m, q, alpha))

    report(acceptance_log, 5, "x^n - 1 factorization, deg g, g h = x^n - 1, G H^T = 0, "
              "dimension formulas across all 57 rows", failures, time.monotonic() - t0, 30.0)


def test_criterion_6_singleton_and_distance_flags(acceptance_log):
    t0 = time.monotonic()
    failures = []

    for spec in sweep_specs(SWEEP_M_MAX, SWEEP_Q_MAX):
        ea = ea_params(spec)
        if ea.n + ea.c - ea.kq != 2 * (ea.d - 1):
            failures.append(("EA-Singleton equality", spec))
        if not ea.ea_singleton_equality:
            failures.append(("equality flag", spec))

    flagged_false = []
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            ea = ea_params(spec_from_q(case, m, q, alpha))
            expected_flag = 2 * d <= n + 2
            if ea.d_within_half != expected_flag:
                failures.append(("d_within_half", case, m, q, alpha))
            if not ea.d_within_half:
                flagged_false.append((n, kq, d, c))
    # the known extreme rows are among the flag-false set
    for marker in ((85, 1, 85, 84), (265, 1, 265, 264)):
        if marker not in flagged_false:
            failures.append(("expected extreme row not flagged", marker))

    report(acceptance_log, 6, "EA-Singleton equality everywhere; d <= (n+2)/2 flag exact "
              f"({len(flagged_false)} rows flagged)", failures,
           time.monotonic() - t0, 30.0)


def test_criterion_7_distance_values_stand_in_for_literature_claim(acceptance_log):
    # the published-comparison claim is not reproduced; its computational
    # footprint is that every printed distance is regenerated exactly
    t0 = time.monotonic()
    failures = []
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            if closed_form(spec_from_q(case, m, q, alpha)).d != d:
                failures.append((case, m, q, alpha))
    report(acceptance_log, 7, "printed distances regenerated (literature comparison "
              "intentionally out of scope)", failures,
           time.monotonic() - t0, 10.0)
