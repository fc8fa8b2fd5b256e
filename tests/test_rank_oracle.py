"""Rank oracle: conjugate transpose, exact elimination, and the c = |Z1| check."""

import random

import pytest

from eaqmds import _gflinalg as gfa
from eaqmds.cyclic import MatrixGF, matmul, parity_check_matrix
from eaqmds.families import FamilySpec
from eaqmds.fields import GF
from eaqmds.rank_oracle import (
    OracleSizeError,
    entanglement_rank,
    family_generator_polynomial,
    fast_rank,
)
from linalg_reference import conjugate_transpose, fast_matmul, rank_gf


def random_matrix(field, rows, cols, rng):
    return MatrixGF(field, tuple(
        tuple(field.from_index(rng.randrange(field.order)) for _ in range(cols))
        for _ in range(rows)))


def identity_matrix(field, r):
    return MatrixGF(field, tuple(
        tuple(field.one if i == j else field.zero for j in range(r))
        for i in range(r)))


def test_conjugate_transpose_prime_subfield_is_plain_transpose():
    f = GF(13, 2)
    m = MatrixGF(f, ((f.element(3), f.element(5)), (f.element(7), f.element(11))))
    ct = conjugate_transpose(m, 13)
    assert ct.entries == m.transpose().entries


def test_conjugate_transpose_involution_and_1x1():
    f = GF(13, 2)
    rng = random.Random(5)
    m = random_matrix(f, 3, 4, rng)
    assert conjugate_transpose(conjugate_transpose(m, 13), 13).entries == m.entries
    a = f.from_index(37)
    single = MatrixGF(f, ((a,),))
    assert conjugate_transpose(single, 13).entries == ((a**13,),)


def test_rank_identity_and_zero():
    f = GF(13, 2)
    assert rank_gf(identity_matrix(f, 5)) == 5
    z = MatrixGF(f, tuple(tuple(f.zero for _ in range(4)) for _ in range(3)))
    assert rank_gf(z) == 0


def test_rank_of_low_rank_product():
    f = GF(13, 2)
    rng = random.Random(99)
    for t in (1, 2, 3):
        a = random_matrix(f, 6, t, rng)
        b = random_matrix(f, t, 6, rng)
        assert rank_gf(matmul(a, b)) <= t


@pytest.mark.parametrize("p,e", [(13, 2), (3, 4), (5, 2)])
def test_fast_paths_agree_with_reference(p, e):
    f = GF(p, e)
    rng = random.Random(p * 100 + e)
    for _ in range(5):
        a = random_matrix(f, 6, 7, rng)
        b = random_matrix(f, 7, 5, rng)
        assert fast_matmul(a, b).entries == matmul(a, b).entries
        assert fast_rank(a) == rank_gf(a)


def test_digit_roundtrip():
    f = GF(13, 2)
    rng = random.Random(1)
    m = random_matrix(f, 4, 3, rng)
    digits = gfa.to_digits(m.entries, f)
    assert gfa.from_digits(digits, f) == m.entries


@pytest.mark.parametrize("case,m,k,alpha,expected", [
    (1, 1, 3, 1, 12),    # [[85,33,33;12]]
    (2, 1, 2, 2, 60),    # [[61,1,61;60]]
    (2, 1, 2, 1, 24),    # [[61,9,39;24]]
    (4, 1, 5, 1, 24),    # [[265,129,81;24]]
])
def test_entanglement_rank_table_anchors(case, m, k, alpha, expected):
    report = entanglement_rank(FamilySpec(case, m, k, alpha))
    assert report.rank_hh_dagger == expected
    assert report.z1_size == expected
    assert report.closed_form_c == expected
    assert report.match and report.matches_closed_form


def test_rank_bounded_by_parity_rank():
    spec = FamilySpec(2, 1, 2, 1)  # n = 61
    g = family_generator_polynomial(spec)
    h = parity_check_matrix(g, spec.n)
    report = entanglement_rank(spec)
    assert report.rank_hh_dagger <= fast_rank(h) == g.degree


def test_rank_invariant_under_row_operations():
    # replacing H by R H for invertible R must not change rank(H H†)
    spec = FamilySpec(2, 1, 2, 1)  # n = 61, H is 38 x 61
    f = GF(11, 2)
    g = family_generator_polynomial(spec)
    h = parity_check_matrix(g, spec.n)
    hd = gfa.to_digits(h.entries, f)
    hdag = gfa.conjugate_transpose_digits(hd, f, 11)
    base = gfa.rank_digits(gfa.matmul_digits(hd, hdag, f), f)
    assert base == 24

    rng = random.Random(404)
    trials = 0
    while trials < 10:
        r = random_matrix(f, h.rows, h.rows, rng)
        rd = gfa.to_digits(r.entries, f)
        if gfa.rank_digits(rd, f) < h.rows:
            continue  # not invertible, resample
        trials += 1
        rh = gfa.matmul_digits(rd, hd, f)
        rhdag = gfa.conjugate_transpose_digits(rh, f, 11)
        assert gfa.rank_digits(gfa.matmul_digits(rh, rhdag, f), f) == base

    # row-scrambled variant: permuting rows is such an R
    perm = list(range(h.rows))
    rng.shuffle(perm)
    scrambled = MatrixGF(f, tuple(h.entries[i] for i in perm))
    sd = gfa.to_digits(scrambled.entries, f)
    sdag = gfa.conjugate_transpose_digits(sd, f, 11)
    assert gfa.rank_digits(gfa.matmul_digits(sd, sdag, f), f) == base


def test_rank_invariant_under_row_operations_second_field():
    spec = FamilySpec(1, 1, 3, 1)  # q = 13, n = 85, H is 32 x 85
    f = GF(13, 2)
    g = family_generator_polynomial(spec)
    h = parity_check_matrix(g, spec.n)
    hd = gfa.to_digits(h.entries, f)
    hdag = gfa.conjugate_transpose_digits(hd, f, 13)
    base = gfa.rank_digits(gfa.matmul_digits(hd, hdag, f), f)
    assert base == 12

    rng = random.Random(85)
    trials = 0
    while trials < 3:
        r = random_matrix(f, h.rows, h.rows, rng)
        rd = gfa.to_digits(r.entries, f)
        if gfa.rank_digits(rd, f) < h.rows:
            continue
        trials += 1
        rh = gfa.matmul_digits(rd, hd, f)
        rhdag = gfa.conjugate_transpose_digits(rh, f, 13)
        assert gfa.rank_digits(gfa.matmul_digits(rh, rhdag, f), f) == base


def test_size_guard():
    spec = FamilySpec(1, 3, 4, 1)  # q = 83, n = 689
    with pytest.raises(OracleSizeError, match="300"):
        entanglement_rank(spec)
    with pytest.raises(OracleSizeError, match="50"):
        entanglement_rank(FamilySpec(1, 1, 3, 1), n_max=50)


def test_hh_dagger_rank_on_prime_power_q():
    # q = 27 = 3^3 exercises GF(3^6) and its tower GF(3^12)
    spec = FamilySpec(3, 3, 1, 1)
    assert spec.q == 27 and spec.n == 73
    report = entanglement_rank(spec)
    assert report.match and report.matches_closed_form
