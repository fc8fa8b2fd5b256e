"""Digit builders of the rank oracle against the object-level reference.

The oracle builds g from Z and h from Z's complement, both on digit
arrays in closed form over each cyclic run, and finds its root of unity with a
primitive-element scan that skips the subfield.  These tests pin both to
``cyclic_reference`` (the tower-root product and long division on
``field_reference.FieldElement`` lists) and to a full scan, byte for
byte, and show that faults on the digit path flip or stop the oracle,
on the specs where it ranks H H† (h the longer polynomial) and on those
where it ranks G G† (g the longer one).
"""

import numpy as np
import pytest

import cyclic_reference as cref
from eaqmds import _gflinalg as gfa
from eaqmds import cyclic, rank_oracle
from eaqmds.cosets import ResidueSet
from eaqmds.cyclic import generator_digits
from eaqmds.families import FamilySpec, build_defining_set, spec_from_q, sweep_specs
from eaqmds.fields import GF, find_primitive_element, prime_factors, quadratic_extension
from eaqmds.published_params import PUBLISHED_ROWS
from eaqmds.rank_oracle import code_context, entanglement_rank

from field_reference import full_scan_primitive

ORACLE_SPECS = [s for s in sweep_specs(5, 250) if s.n <= 150]
PUBLISHED_421 = spec_from_q(3, 1, 29, 3)   # [[421,129,189;84]]_29


def spec_id(spec):
    return f"case{spec.case}-m{spec.m}-k{spec.k}-a{spec.alpha}-n{spec.n}"


@pytest.mark.parametrize("spec", ORACLE_SPECS + [PUBLISHED_421], ids=spec_id)
def test_digit_builders_match_object_path(spec):
    n = spec.n
    subfield, tower, lam = code_context(spec.q, n)
    z = build_defining_set(spec)
    g = cref.generator(tower, lam, z)
    gd = generator_digits(tower, lam, z)
    assert gd.dtype == np.int64
    assert gd.tobytes() == cref.digits(g).tobytes()
    # h from the cosets outside Z against the long division of x^n - 1 by g
    hd = generator_digits(tower, lam, z.complement())
    assert hd.tobytes() == cref.digits(cref.check(g, n)).tobytes()


def test_oracle_specs_are_the_benchmark_subset():
    assert len(ORACLE_SPECS) == 29
    assert PUBLISHED_421.n == 421


SWEEP_1000 = [s for s in sweep_specs(5, 250) if s.n <= 1000]
PUBLISHED_LARGE = [spec_from_q(case, m, q, alpha)
                   for case, rows in PUBLISHED_ROWS.items()
                   for m, q, n, alpha, _, _, _ in rows if n in (2017, 2197)]


def test_g_times_h_is_x_n_minus_1_on_sweep_and_large_published_codes():
    assert (len(SWEEP_1000), len(PUBLISHED_LARGE)) == (185, 8)
    for spec in SWEEP_1000 + PUBLISHED_LARGE:
        subfield, tower, lam = code_context(spec.q, spec.n)
        z = build_defining_set(spec)
        g = generator_digits(tower, lam, z)
        h = generator_digits(tower, lam, z.complement())
        x_n_minus_1 = np.zeros((spec.n + 1, subfield.degree), dtype=np.int64)
        x_n_minus_1[0, 0], x_n_minus_1[spec.n, 0] = subfield.p - 1, 1
        assert np.array_equal(gfa.polymul_digits(g, h, subfield), x_n_minus_1), spec


def test_generator_digits_rejects_open_set():
    _, tower, lam = code_context(13, 85)
    with pytest.raises(ValueError, match="cyclotomic cosets"):
        generator_digits(tower, lam, ResidueSet.of(85, [1]))


def test_generator_digits_rejects_wrong_root():
    # 17 | 13^2 + 1, and {8, 9} is a coset mod 17, but lam has order 85
    _, tower, lam = code_context(13, 85)
    with pytest.raises(ValueError, match="root of unity"):
        generator_digits(tower, lam, ResidueSet.of(17, [8, 9]))


def test_generator_digits_rejects_length_without_pair_cosets():
    # 13^2 = 1 mod 7, so the cosets mod 7 are singletons, not {i, n - i}
    _, tower, lam = code_context(13, 85)
    with pytest.raises(ValueError, match="not -1"):
        generator_digits(tower, lam, ResidueSet.of(7, [1]))


def test_generator_digits_is_memoized_read_only_and_bounded():
    _, tower, lam = code_context(13, 85)
    z = ResidueSet.of(85, [42, 43])
    gd = generator_digits(tower, lam, z)
    assert generator_digits(tower, lam, ResidueSet.of(85, [43, 42])) is gd
    assert not gd.flags.writeable
    assert generator_digits.cache_info().maxsize == 16


def test_code_digits_built_once_per_spec_and_read_only():
    spec = FamilySpec(1, 1, 3, 1)
    _, tower, lam = code_context(spec.q, spec.n)
    z = build_defining_set(spec)
    generator_digits.cache_clear()
    assert entanglement_rank(spec).match
    info = generator_digits.cache_info()
    assert (info.misses, info.hits) == (1, 0)           # one polynomial built ...
    h = generator_digits(tower, lam, z.complement())
    info = generator_digits.cache_info()
    assert (info.misses, info.hits) == (1, 1)           # ... and it is h, not g
    assert rank_oracle.generator_parity_orthogonal(spec)
    info = generator_digits.cache_info()
    assert (info.misses, info.hits) == (2, 2)           # G H^T builds g, reuses h
    g = generator_digits(tower, lam, z)
    assert len(g) - 1 == len(z) and len(h) - 1 == spec.n - len(z)
    assert not g.flags.writeable and not h.flags.writeable


def test_g_side_builds_only_g_once_per_spec():
    spec = FamilySpec(2, 1, 2, 2)   # [[61,1,61;60]]_11: deg g = 60 > n/2
    _, tower, lam = code_context(spec.q, spec.n)
    z = build_defining_set(spec)
    generator_digits.cache_clear()
    assert entanglement_rank(spec).match
    info = generator_digits.cache_info()
    assert (info.misses, info.hits) == (1, 0)           # one polynomial built ...
    g = generator_digits(tower, lam, z)
    info = generator_digits.cache_info()
    assert (info.misses, info.hits) == (1, 1)           # ... and it is g, not h
    assert rank_oracle.generator_parity_orthogonal(spec)
    info = generator_digits.cache_info()
    assert (info.misses, info.hits) == (2, 2)           # G H^T builds h, reuses g
    assert len(g) - 1 == len(z) == 60


def test_singleton_coset_gives_linear_factor():
    # 0 is its own coset {0}; its minimal polynomial is x - 1
    _, tower, lam = code_context(13, 85)
    z = ResidueSet.of(85, [0, 42, 43])
    gd = generator_digits(tower, lam, z)
    assert gd.tobytes() == cref.digits(cref.generator(tower, lam, z)).tobytes()


# ---------------------------------------------------------------------------
# primitive-element scan: the subfield skip keeps the canonical element


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
def test_primitive_scan_skip_matches_full_scan(q):
    p = prime_factors(q)[0]
    j = 1
    while p**j < q:
        j += 1
    assert p**j == q
    tower = quadratic_extension(GF(p, 2 * j))
    assert find_primitive_element(tower) == full_scan_primitive(tower).digits


# ---------------------------------------------------------------------------
# fault reach: each fault on the digit path must flip or stop the oracle


def test_fault_conjugate_with_exponent_one_flips_match(monkeypatch):
    spec = FamilySpec(1, 1, 3, 1)   # [[85,33,33;12]]_13
    assert entanglement_rank(spec).match
    plain = gfa.frobenius_matrix
    monkeypatch.setattr(gfa, "frobenius_matrix", lambda field, q: plain(field, 1))
    report = entanglement_rank(spec)
    assert not report.match
    assert report.rank_hh_dagger == 32


# The n <= 300 sweep specs split by the polynomial the oracle ranks:
# G G† when g is the longer of g and h (2|Z| > n), H H† otherwise.
SPECS_300 = [s for s in sweep_specs(5, 250) if s.n <= 300]
G_SIDE = [s for s in SPECS_300 if 2 * len(build_defining_set(s)) > s.n]
H_SIDE = [s for s in SPECS_300 if 2 * len(build_defining_set(s)) <= s.n]


def flips(specs):
    return sum(not entanglement_rank(spec).match for spec in specs)


def test_fault_conjugate_with_exponent_one_flips_both_sides(monkeypatch):
    assert (len(G_SIDE), len(H_SIDE)) == (45, 10)
    assert flips(G_SIDE + H_SIDE) == 0
    plain = gfa.frobenius_matrix
    monkeypatch.setattr(gfa, "frobenius_matrix", lambda field, q: plain(field, 1))
    assert (flips(G_SIDE), flips(H_SIDE)) == (21, 10)


def test_fault_end_coset_left_out_of_g_flips_match(monkeypatch):
    # g without the coset {s + 1 - delta, s + delta}, the two ends of the
    # run Z: the oracle ranks the Gram matrix of a code with two more
    # dimensions, and its correction reads deg g from that g
    assert flips(G_SIDE) == 0
    build = rank_oracle.generator_digits

    def without_ends(tower, lam, z):
        if 0 in z:                   # h: the complement of Z holds 0
            return build(tower, lam, z)
        ends = {int(z.array[0]), int(z.array[-1])}
        return build(tower, lam, ResidueSet.of(z.n, set(z) - ends))

    monkeypatch.setattr(rank_oracle, "generator_digits", without_ends)
    assert flips(G_SIDE) == 24


def drop_first_row(monkeypatch):
    """A Gram matrix without its first row and column: H[1:] H[1:]† on
    the H side, and the same for the ranked shifts of g on the G side."""
    build = rank_oracle.gram_digits
    monkeypatch.setattr(rank_oracle, "gram_digits", lambda *args: build(*args)[1:, 1:])


def test_fault_dropped_row_of_g_flips_match(monkeypatch):
    spec = FamilySpec(2, 1, 2, 2)   # [[61,1,61;60]]_11: G G† is 1 x 1
    assert entanglement_rank(spec).match
    drop_first_row(monkeypatch)
    report = entanglement_rank(spec)
    assert not report.match
    assert report.rank_hh_dagger == 59                 # 0 + 2 * 60 - 61


def test_fault_dropped_row_of_h_leaves_every_h_side_rank(monkeypatch):
    # H H† is rank-deficient on every H-side spec (c < |Z|, its row
    # count), and a dropped row of H changes none of their ranks: this
    # fault reaches only a full-rank Gram matrix, on the G side above
    ranks = [entanglement_rank(spec).rank_hh_dagger for spec in H_SIDE]
    assert all(c < len(build_defining_set(spec)) for c, spec in zip(ranks, H_SIDE))
    drop_first_row(monkeypatch)
    assert [entanglement_rank(spec).rank_hh_dagger for spec in H_SIDE] == ranks


def fault_in_h(monkeypatch, fault):
    """Serve ``fault(tower, lam, set)`` in place of the oracle's h; the
    complement of Z is the set that holds 0 (Z is a run that never does)."""
    build = rank_oracle.generator_digits
    monkeypatch.setattr(rank_oracle, "generator_digits",
                        lambda tower, lam, z: fault(tower, lam, z) if 0 in z
                        else build(tower, lam, z))


@pytest.mark.parametrize("pos", [0, 1, 26, 52, 53])
def test_fault_corrupted_check_coefficient_breaks_orthogonality(monkeypatch, pos):
    spec = FamilySpec(1, 1, 3, 1)   # [[85,33,33;12]]_13: deg h = 53
    assert rank_oracle.generator_parity_orthogonal(spec)

    def corrupted(tower, lam, z):
        h = generator_digits(tower, lam, z).copy()
        h[pos, 0] = (h[pos, 0] + 1) % tower.p
        return h

    fault_in_h(monkeypatch, corrupted)
    assert not rank_oracle.generator_parity_orthogonal(spec)


@pytest.mark.parametrize("rep", [0, 1, 26])
def test_fault_coset_left_out_of_h_breaks_orthogonality(monkeypatch, rep):
    # h built from the complement of Z without the coset {rep, n - rep}:
    # g h is then x^n - 1 divided by that coset's minimal polynomial
    spec = FamilySpec(1, 1, 3, 1)   # [[85,33,33;12]]_13, Z = 27 .. 58
    assert rank_oracle.generator_parity_orthogonal(spec)
    fault_in_h(monkeypatch, lambda tower, lam, z: generator_digits(
        tower, lam, ResidueSet.of(z.n, set(z) - {rep, z.n - rep})))
    assert not rank_oracle.generator_parity_orthogonal(spec)


def test_fault_mirrored_power_table_is_refused(monkeypatch):
    # a table of lam^0 ... lam^n with row i mirrored to row min(i, n - i)
    # reads lam^-i as lam^i, so the lam-factorial P_84 of (13, 85) becomes
    # prod_(i <= 42) (1 - lam^i)^2 = lam^903 P_84 with 903 = 53 mod 85, not
    # 85; the table's primitivity check refuses it before any g or h is built
    spec = FamilySpec(1, 1, 3, 1)
    table = cyclic._power_table

    def mirrored(a, field, count):
        i = np.arange(count)
        return table(a, field, count)[np.minimum(i, -i % (count - 1))]

    def clear():                             # h and lam's table are memoized:
        cyclic.generator_digits.cache_clear()  # build both under the fault, and
        cyclic._root_table.cache_clear()       # keep nothing built under it

    clear()
    monkeypatch.setattr(cyclic, "_power_table", mirrored)
    try:
        with pytest.raises(ValueError, match="not a primitive n-th root of unity"):
            entanglement_rank(spec)
    finally:
        clear()
