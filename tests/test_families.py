"""Family parameter enumeration, closed forms, T1/T1' partitions, EA records."""

import hashlib

import numpy as np
import pytest

import residue_reference as ref
from eaqmds import families
from eaqmds.cosets import ResidueSet, decompose
from eaqmds.families import (
    CHECK_NAMES,
    FamilySpec,
    assemble_ea_params,
    build_T1,
    build_T1_prime,
    build_defining_set,
    closed_form,
    ea_params,
    enumerate_admissible,
    q_for,
    spec_from_q,
    sweep_specs,
    theorem_quantum_dim,
    verify_family,
)
from eaqmds.published_params import PUBLISHED_ROWS


def test_q_forms():
    assert q_for(1, 1, 3) == 13
    assert q_for(2, 1, 2) == 11
    assert q_for(3, 1, 7) == 29
    assert q_for(4, 1, 5) == 23
    assert q_for(4, 3, 4) == 97


# The per-case forms of q, delta and c, written out one case at a time: the
# reference that families._shape's (b, delta0) table is checked against.
def _reference_q(case, m, k):
    a = m * m + 1
    return {1: 2 * a * k + m, 2: 2 * a * k + a + m,
            3: 2 * a * k + a - m, 4: 2 * a * k + 2 * a - m}[case]


def _reference_delta_c(spec):
    case, m, k, alpha, q = spec.case, spec.m, spec.k, spec.alpha, spec.q
    a = m * m + 1
    if case == 1:
        return alpha * q + m * k, 4 * alpha * (a * alpha + m)
    if case == 2:
        return (alpha * q + (a + m) * k + (a + 2 * m) // 2,
                4 * alpha * (a * alpha + a + m) + a + 2 * m)
    if case == 3:
        return (alpha * q + (a - m) * k + (a - 2 * m) // 2,
                4 * alpha * (a * alpha + a - m) + a - 2 * m)
    return (alpha * q + (2 * a - m) * k + 2 * (a - m),
            4 * alpha * (a * alpha + 2 * a - m) + 4 * (a - m))


def test_shape_reproduces_the_per_case_forms_to_q500():
    count = 0
    for spec in sweep_specs(5, 500):
        assert spec.q == _reference_q(spec.case, spec.m, spec.k), spec
        cf = closed_form(spec)
        assert (cf.delta, cf.c) == _reference_delta_c(spec), spec
        count += 1
    assert count == 12182
    # q_for on every k, prime power or not
    for case in families.CASES:
        for m in (1, 3, 5):
            for k in range(0, 40):
                assert q_for(case, m, k) == _reference_q(case, m, k)


def test_shape_fault_flips_the_checks_it_feeds(monkeypatch):
    # delta0 + 1 shifts the closed form's delta by 1 and c by 2; the printed
    # k_q and the T1 thresholds do not read _shape, so the checks against
    # them fail, as does |Z1| against the shifted c
    specs = [spec for spec in sweep_specs()
             if closed_form(spec).delta + 1 <= spec.s]
    assert len(specs) == 3286
    shape = families._shape

    def shifted(case, m):
        b, delta0 = shape(case, m)
        return b, delta0 + 1

    monkeypatch.setattr(families, "_shape", shifted)
    flipped = dict.fromkeys(
        ("quantum_dim_formula", "entanglement_closed_form", "t1_partition"), 0)
    for spec in specs:
        report = verify_family(spec)
        for name in flipped:
            flipped[name] += not report.checks[name]
    assert flipped == dict.fromkeys(flipped, 3286)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="odd"):
        FamilySpec(1, 2, 3, 1)
    with pytest.raises(ValueError, match="k"):
        FamilySpec(1, 1, 0, 1)
    with pytest.raises(ValueError, match="alpha"):
        FamilySpec(1, 1, 3, 4)
    with pytest.raises(ValueError, match="prime power"):
        FamilySpec(1, 1, 5, 1)  # q = 21 = 3 * 7
    with pytest.raises(ValueError, match="case"):
        FamilySpec(5, 1, 1, 1)


def test_enumerate_admissible_rejects_an_even_m():
    with pytest.raises(ValueError, match="m must be odd and >= 1, got 2"):
        enumerate_admissible(1, 2, q_max=250)


def test_spec_derived_quantities():
    s = FamilySpec(1, 1, 3, 1)
    assert (s.a, s.q, s.n, s.s) == (2, 13, 85, 42)
    s = FamilySpec(2, 5, 4, 1)
    assert (s.a, s.q, s.n, s.s) == (26, 239, 2197, 1098)


def test_spec_from_q_inverts_the_form():
    s = spec_from_q(1, 3, 83, 2)
    assert s.k == 4 and s.n == 689
    with pytest.raises(ValueError):
        spec_from_q(1, 1, 14, 1)  # wrong residue class


@pytest.mark.parametrize("case", [0, 5])
def test_spec_from_q_rejects_unknown_case(case):
    with pytest.raises(ValueError, match=f"unknown case {case}; expected 1..4"):
        spec_from_q(case, 1, 13, 1)


def test_enumerate_admissible_case1():
    specs = enumerate_admissible(1, 1, q_max=20)
    qs = sorted({s.q for s in specs})
    assert qs == [5, 9, 13, 17]  # 5 and 9 = 3^2 pass the prime-power test
    assert len(specs) == 1 + 2 + 3 + 4
    assert all(1 <= s.alpha <= s.k for s in specs)


def test_enumerate_admissible_case2_and_case4():
    specs2 = enumerate_admissible(2, 1, q_max=20)
    by_q = {s.q: s.k for s in specs2}
    assert by_q[11] == 2 and by_q[19] == 4
    assert 15 not in by_q  # 15 = 3 * 5 fails the prime-power sieve
    specs4 = enumerate_admissible(4, 3, q_max=100)
    assert any(s.q == 97 and s.k == 4 and s.n == 941 for s in specs4)


def test_enumerate_requires_a_bound():
    with pytest.raises(TypeError):
        enumerate_admissible(1, 1)


def test_closed_form_anchors():
    cf = closed_form(FamilySpec(1, 1, 3, 1))
    assert (cf.delta, cf.d, cf.c, cf.quantum_dim) == (16, 33, 12, 33)
    cf = closed_form(FamilySpec(2, 1, 2, 1))
    assert (cf.delta, cf.d, cf.c, cf.quantum_dim) == (19, 39, 24, 9)
    cf = closed_form(FamilySpec(4, 3, 4, 1))
    assert (cf.delta, cf.d, cf.c, cf.quantum_dim) == (179, 359, 136, 361)


def test_build_defining_set_case1_q13():
    z = build_defining_set(FamilySpec(1, 1, 3, 1))
    assert z.members == tuple(range(27, 59))
    assert 85 - len(z) == 53 and len(z) + 1 == 33 and z.is_consecutive_run()

    z3 = build_defining_set(FamilySpec(1, 1, 3, 3))
    assert 85 - len(z3) == 1 and len(z3) + 1 == 85
    assert ea_params(FamilySpec(1, 1, 3, 3)).kq == 1


@pytest.mark.parametrize("case,m,k", [(1, 1, 3), (2, 1, 2), (3, 1, 7), (4, 1, 5)])
def test_alpha_max_consumes_everything(case, m, k):
    spec = FamilySpec(case, m, k, k)
    z = build_defining_set(spec)
    assert spec.n - len(z) == 1
    ea = ea_params(spec)
    assert ea.kq == 1 and ea.d == spec.n and ea.c == spec.n - 1


def test_build_T1_case1_q13():
    spec = FamilySpec(1, 1, 3, 1)
    z = build_defining_set(spec)
    t1 = build_T1(spec)
    t1p = build_T1_prime(spec)
    assert len(t1) == len(z) - 12 == 20
    assert np.array_equal(t1.mask, z.mask & ~t1p.mask)
    assert not (t1.mask & ~z.mask).any()
    assert not (t1.mask & ref.image_mask(spec.n, -spec.q, t1.array)).any()


def test_build_T1_prime_case1_q13():
    spec = FamilySpec(1, 1, 3, 1)
    t1p = build_T1_prime(spec)
    assert len(t1p) == 12 == closed_form(spec).c
    assert np.array_equal(ref.image_mask(spec.n, -spec.q, t1p.array), t1p.mask)


def test_build_T1_prime_case3_anchor():
    spec = FamilySpec(3, 1, 7, 2)  # q = 29, [[421,201,131;40]]
    assert len(build_T1_prime(spec)) == 40


def test_T1_partition_small_sweep():
    for spec in sweep_specs(3, 60):
        z = build_defining_set(spec)
        t1 = build_T1(spec)
        t1p = build_T1_prime(spec)
        assert not (t1.mask & ~z.mask).any(), spec
        assert np.array_equal(t1.mask | t1p.mask, z.mask), spec
        assert not (t1.mask & t1p.mask).any(), spec


# SHA-256 over the T1 then T1' mask bytes of every default-sweep spec, in
# sweep order, computed with one mark per block, so it pins the masks
# against any rewrite of how a union is marked
T1_MASKS_SHA256 = "8e7639e45006d04560f01ed812c17ab0d337748b5dff40cbeb50605a123b7152"


def test_T1_and_T1_prime_masks_are_pinned_on_the_default_sweep():
    digest = hashlib.sha256()
    count = 0
    for spec in sweep_specs(5, 250):
        digest.update(build_T1(spec).mask.tobytes())
        digest.update(build_T1_prime(spec).mask.tobytes())
        count += 1
    assert count == 3438
    assert digest.hexdigest() == T1_MASKS_SHA256


# SHA-256 over every verify_family report of the default sweep, in sweep
# order: each spec clean, then with fault_delta=1 wherever delta + 1 <= s.
# A report is hashed as its checks' pass bits in CHECK_NAMES order, then
# z1_size and z2_size.  Computed before the -1 closure shortcut and the
# kept member arrays, so it pins every check against rewrites of the
# kernels beneath them.
REPORTS_SHA256 = "8613a5ed3ad603bece4ea1b77735e9b87f3a9b00351fef3912e92952699ac7ba"


def test_verify_family_reports_are_pinned_on_the_default_sweep():
    digest = hashlib.sha256()
    clean = faulty = 0
    for spec in sweep_specs(5, 250):
        deltas = (0, 1) if closed_form(spec).delta + 1 <= spec.s else (0,)
        for fault_delta in deltas:
            report = verify_family(spec, fault_delta=fault_delta)
            assert tuple(report.checks) == CHECK_NAMES
            bits = "".join("1" if report.checks[name] else "0"
                           for name in CHECK_NAMES)
            digest.update(f"{bits} {report.z1_size} {report.z2_size}\n".encode())
            clean += not fault_delta
            faulty += fault_delta
    assert (clean, faulty) == (3438, 3286)
    assert digest.hexdigest() == REPORTS_SHA256


def _report_fields(report):
    return {**report.checks, "z1_size": report.z1_size, "z2_size": report.z2_size}


def test_verify_family_matches_the_mask_reference_on_the_default_sweep():
    # every check, z1_size and z2_size against the length-n mask checks of
    # residue_reference, clean and with fault_delta=1 wherever delta + 1 <= s
    runs = {0: 0, 1: 0}
    for spec in sweep_specs(5, 250):
        deltas = (0, 1) if closed_form(spec).delta + 1 <= spec.s else (0,)
        for fault_delta in deltas:
            assert _report_fields(verify_family(spec, fault_delta)) == \
                ref.verify_checks_reference(spec, fault_delta), (spec, fault_delta)
            runs[fault_delta] += 1
    assert runs == {0: 3438, 1: 3286}


# sets that leave Z: one holding 0, one reaching both ends of [0, n), and
# one holding the pair {1, n - 1} next to the ends
OFF_WINDOW = [
    ("build_T1", lambda n: (0,)),
    ("build_T1", lambda n: (0, 1, n - 1)),
    ("build_T1", lambda n: (1, n - 1)),
    ("build_T1_prime", lambda n: (0,)),
    ("build_T1_prime", lambda n: (0, 1, n - 1)),
    ("build_T1_prime", lambda n: (1, n - 1)),
]


@pytest.mark.parametrize("spec, fault_delta", [
    (FamilySpec(1, 1, 3, 1), 0),   # [[85,33,33;12]]_13, T1' from its union
    (FamilySpec(2, 3, 2, 1), 1),   # q = 53: T1' from build_T1_prime under a fault
])
@pytest.mark.parametrize("builder, extra", OFF_WINDOW)
def test_verify_family_is_exact_on_sets_that_leave_z(monkeypatch, spec, fault_delta,
                                                    builder, extra):
    # verify_family paints T1 and case 1's T1' from their rectangles, and
    # takes T1' from build_T1_prime in cases 2-4 under a fault
    n, q = spec.n, spec.q
    t1, t1p = build_T1(spec), build_T1_prime(spec)
    sets = {"build_T1": t1, "build_T1_prime": t1p}
    sets[builder] = ResidueSet.of(n, set(sets[builder]) | set(extra(n)))
    source = {"build_T1": "_t1_rectangles", "build_T1_prime": "_t1_prime_case1"}
    if builder == "build_T1_prime" and spec.case != 1:
        monkeypatch.setattr(families, builder, lambda s, out=sets[builder]: out)
    else:
        rects = getattr(families, source[builder])(spec) + [(x, 1, 1) for x in extra(n)]
        monkeypatch.setattr(families, source[builder], lambda s, out=rects: out)
    delta = closed_form(spec).delta + fault_delta
    z = range(spec.s + 1 - delta, spec.s + delta + 1)
    report = verify_family(spec, fault_delta)
    laws = ref.t1_laws(n, q, z, sets["build_T1"], sets["build_T1_prime"])
    assert {name: report.checks[name] for name in laws} == laws
    assert not report.checks["t1_partition"]
    monkeypatch.undo()  # the other checks and the sizes do not move
    plain = verify_family(spec, fault_delta)
    assert {name: ok for name, ok in report.checks.items() if name not in laws} == \
        {name: ok for name, ok in plain.checks.items() if name not in laws}
    assert (report.z1_size, report.z2_size) == (plain.z1_size, plain.z2_size)


def _assert_builtin_bools(report):
    # the checks are written as JSON, which takes bool but not numpy.bool_
    assert all(type(ok) is bool for ok in report.checks.values()), \
        {name: type(ok) for name, ok in report.checks.items()}


def test_ea_params_anchors():
    assert ea_params(FamilySpec(1, 3, 4, 2)).label(83) == "[[689,161,357;184]]_83"
    assert ea_params(FamilySpec(2, 5, 4, 3)).label(239) == "[[2197,105,1719;1344]]_239"
    ea = ea_params(FamilySpec(2, 3, 2, 1))  # q = 53
    assert (ea.n, ea.kq, ea.d, ea.c) == (281, 41, 175, 108)


def test_assemble_ea_params_degenerate():
    ea = assemble_ea_params(85, 85, 1, 0)  # empty defining set
    assert (ea.n, ea.kq, ea.d, ea.c) == (85, 85, 1, 0)
    assert ea.ea_singleton_equality  # 0 = 0
    assert ea.d_within_half


def test_all_published_rows_reproduced():
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, kq, d, c in rows:
            spec = spec_from_q(case, m, q, alpha)
            ea = ea_params(spec)
            assert (ea.n, ea.kq, ea.d, ea.c) == (n, kq, d, c), (case, m, q, alpha)
            assert ea.ea_singleton_equality


def test_quantum_dim_formula_matches_assembly():
    for spec in sweep_specs(5, 120):
        assert closed_form(spec).quantum_dim == theorem_quantum_dim(spec), spec


def test_m1_cases_1_and_3_coincide():
    # a - m = m and a - 2m = 0 at m = 1, so both forms collapse to the same codes
    specs1 = {(s.q, s.alpha): closed_form(s) for s in enumerate_admissible(1, 1, q_max=100)}
    specs3 = {(s.q, s.alpha): closed_form(s) for s in enumerate_admissible(3, 1, q_max=100)}
    assert set(specs1) == set(specs3)
    for key, cf1 in specs1.items():
        cf3 = specs3[key]
        assert (cf1.delta, cf1.c) == (cf3.delta, cf3.c), key


def test_m1_cases_2_and_4_coincide():
    # the same collapse happens for the other two forms at m = 1
    specs2 = {(s.q, s.alpha): closed_form(s) for s in enumerate_admissible(2, 1, q_max=100)}
    specs4 = {(s.q, s.alpha): closed_form(s) for s in enumerate_admissible(4, 1, q_max=100)}
    assert set(specs2) == set(specs4)
    for key, cf2 in specs2.items():
        cf4 = specs4[key]
        assert (cf2.delta, cf2.c) == (cf4.delta, cf4.c), key


def test_entanglement_count_strictly_increases_with_alpha():
    seen = 0
    for case in (1, 2, 3, 4):
        for m in (1, 3, 5):
            for base in enumerate_admissible(case, m, q_max=250):
                if base.alpha != 1 or base.k < 2:
                    continue
                cs = [closed_form(FamilySpec(case, m, base.k, alpha)).c
                      for alpha in range(1, base.k + 1)]
                assert all(x < y for x, y in zip(cs, cs[1:])), (case, m, base.k)
                seen += 1
    assert seen > 10


def test_verify_family_passes_on_table_rows():
    for case, rows in PUBLISHED_ROWS.items():
        for m, q, n, alpha, *_ in rows:
            report = verify_family(spec_from_q(case, m, q, alpha))
            assert report.passed, report.failed_checks()
            assert report.z1_size == closed_form(report.spec).c
            _assert_builtin_bools(report)


def test_verify_family_fault_injection():
    # a +1 run-length mutation keeps the set consecutive but breaks the
    # size, partition, and dimension-formula checks
    spec = FamilySpec(1, 1, 2, 1)  # q = 9, delta 11 < s = 20
    report = verify_family(spec, fault_delta=1)
    assert report.checks["consecutive_run"]
    assert not report.checks["defining_set_size"]
    assert not report.checks["t1_partition"]
    assert not report.checks["quantum_dim_formula"]
    assert not report.passed
    _assert_builtin_bools(report)


def test_fault_t1_prime_missing_a_coset_is_not_stable(monkeypatch):
    # case 1 builds T1' from its explicit union; drop one coset {x, n - x}
    # whose -q image is another coset of T1', which stays in
    spec = FamilySpec(1, 1, 3, 1)  # [[85,33,33;12]]_13
    n, q = spec.n, spec.q
    assert verify_family(spec).passed
    t1p = build_T1_prime(spec)
    x = next(x for x in t1p if (q * x - x) % n and (q * x + x) % n)
    mask = t1p.mask.copy()
    mask[[x, -x]] = False
    # verify_family paints case 1's T1' from _t1_prime_case1's rectangles
    monkeypatch.setattr(families, "_t1_prime_case1",
                        lambda s: [(x, 1, 1) for x in np.flatnonzero(mask).tolist()])
    report = verify_family(spec)
    assert report.failed_checks() == ["t1_prime_stable", "t1_partition"]


def test_fault_t1_holding_the_image_of_its_own_coset_is_not_disjoint(monkeypatch):
    spec = FamilySpec(1, 1, 3, 1)  # [[85,33,33;12]]_13
    n, q = spec.n, spec.q
    assert verify_family(spec).passed
    t1 = build_T1(spec)
    x = t1.members[0]
    image = ref.image_mask(n, -q, [x, n - x])
    # verify_family paints T1 from _t1_rectangles' rectangles
    monkeypatch.setattr(families, "_t1_rectangles",
                        lambda s: [(x, 1, 1) for x in np.flatnonzero(t1.mask | image).tolist()])
    report = verify_family(spec)
    assert report.failed_checks() == ["t1_disjoint", "t1_partition"]


def test_fault_t1_trading_a_coset_with_z1_breaks_the_partition(monkeypatch):
    # cases 2-4 read a clean run's partition through counts; a T1 that
    # trades one of its cosets for one of Z1 keeps T1 inside Z and
    # |T1| + |Z1| = |Z|, so only qT1 n Z = {} (T1 n Z1 = {}) can see it
    spec = FamilySpec(2, 1, 2, 1)  # q = 11, n = 61
    n, q = spec.n, spec.q
    assert verify_family(spec).passed
    t1 = set(build_T1(spec))
    z = build_defining_set(spec)
    z1 = set(decompose(n, q, z))
    x, y = min(t1), min(z1)
    traded = (t1 - {x, n - x}) | {y, n - y}
    assert len(traded) == len(t1) and traded <= set(z)
    monkeypatch.setattr(families, "_t1_rectangles",
                        lambda s: [(v, 1, 1) for v in sorted(traded)])
    report = verify_family(spec)
    laws = ref.t1_laws(n, q, z, traded, z1)
    assert {name: report.checks[name] for name in laws} == laws
    assert not report.checks["t1_partition"]


def test_decomposition_matches_closed_form_sample():
    for spec in sweep_specs(3, 60):
        z1 = decompose(spec.n, spec.q, build_defining_set(spec))
        assert len(z1) == closed_form(spec).c, spec
