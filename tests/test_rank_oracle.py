"""Rank oracle: conjugate transpose, exact elimination, and the c = |Z1| check."""

import random

import numpy as np
import pytest

import linalg_reference as ref
from eaqmds import _gflinalg as gfa
from eaqmds.families import FamilySpec
from eaqmds.fields import GF
from eaqmds.cyclic import generator_digits
from eaqmds.rank_oracle import OracleSizeError, _code, code_context, entanglement_rank
from field_reference import object_field


def random_matrix(field, rows, cols, rng):
    objects = object_field(field)
    return np.asarray([[objects.from_index(rng.randrange(field.order)).coeffs
                        for _ in range(cols)] for _ in range(rows)], dtype=np.int64)


def blas_product(a, b, field):
    """The float64 BLAS product of reduced digit matrices, reduced mod p,
    as int64 digits."""
    return gfa._gemm(a, b, field).astype(np.int64) % field.p


def identity_matrix(field, r):
    out = np.zeros((r, r, field.degree), dtype=np.int64)
    out[np.arange(r), np.arange(r), 0] = 1
    return out


def test_conjugate_transpose_prime_subfield_is_plain_transpose():
    f = GF(13, 2)
    m = np.array([[[3, 0], [5, 0]], [[7, 0], [11, 0]]])
    ct = ref.conjugate_transpose_digits(m, f, 13)
    assert np.array_equal(ct, m.transpose(1, 0, 2))


def test_conjugate_transpose_involution_and_1x1():
    f = GF(13, 2)
    rng = random.Random(5)
    m = random_matrix(f, 3, 4, rng)
    ct = ref.conjugate_transpose_digits(m, f, 13)
    assert np.array_equal(ct, ref.conjugate_transpose(m, f, 13))
    assert np.array_equal(ref.conjugate_transpose_digits(ct, f, 13), m)
    a = object_field(f).from_index(37)
    single = np.array([[a.coeffs]])
    assert ref.conjugate_transpose_digits(single, f, 13).tolist() == [[list((a**13).coeffs)]]


def test_rank_identity_and_zero():
    f = GF(13, 2)
    assert gfa.rank_digits(identity_matrix(f, 5), f) == 5
    assert gfa.rank_digits(np.zeros((3, 4, 2), dtype=np.int64), f) == 0


def test_rank_of_low_rank_product():
    f = GF(13, 2)
    rng = random.Random(99)
    for t in (1, 2, 3):
        a = random_matrix(f, 6, t, rng)
        b = random_matrix(f, t, 6, rng)
        assert gfa.rank_digits(blas_product(a, b, f), f) <= t


@pytest.mark.parametrize("p,e", [(13, 2), (3, 4), (5, 2)])
def test_fast_paths_agree_with_reference(p, e):
    f = GF(p, e)
    rng = random.Random(p * 100 + e)
    for _ in range(5):
        a = random_matrix(f, 6, 7, rng)
        b = random_matrix(f, 7, 5, rng)
        assert np.array_equal(blas_product(a, b, f), ref.matmul_digits(a, b, f))
        assert gfa.rank_digits(a, f) == ref.rank_digits(a, f)


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


def parity_check(spec):
    """H of the instance's code, from the oracle's check polynomial."""
    tower, lam, z = _code(spec)
    field = tower.base
    h = generator_digits(tower, lam, z.complement())
    return field, ref.parity_check_digits(h, spec.n)


def test_rank_bounded_by_parity_rank():
    spec = FamilySpec(2, 1, 2, 1)  # n = 61
    f, h = parity_check(spec)
    report = entanglement_rank(spec)
    assert report.rank_hh_dagger <= gfa.rank_digits(h, f) == len(h)  # deg g rows


def hh_dagger_rank(h, f, q):
    return gfa.rank_digits(
        blas_product(h, ref.conjugate_transpose_digits(h, f, q), f), f)


def test_rank_invariant_under_row_operations():
    # replacing H by R H for invertible R must not change rank(H H†)
    spec = FamilySpec(2, 1, 2, 1)  # n = 61, H is 38 x 61
    f, h = parity_check(spec)
    base = hh_dagger_rank(h, f, 11)
    assert base == 24

    rng = random.Random(404)
    trials = 0
    while trials < 10:
        r = random_matrix(f, len(h), len(h), rng)
        if gfa.rank_digits(r, f) < len(h):
            continue  # not invertible, resample
        trials += 1
        assert hh_dagger_rank(blas_product(r, h, f), f, 11) == base

    # row-scrambled variant: permuting rows is such an R
    perm = list(range(len(h)))
    rng.shuffle(perm)
    assert hh_dagger_rank(h[perm], f, 11) == base


def test_rank_invariant_under_row_operations_second_field():
    spec = FamilySpec(1, 1, 3, 1)  # q = 13, n = 85, H is 32 x 85
    f, h = parity_check(spec)
    base = hh_dagger_rank(h, f, 13)
    assert base == 12

    rng = random.Random(85)
    trials = 0
    while trials < 3:
        r = random_matrix(f, len(h), len(h), rng)
        if gfa.rank_digits(r, f) < len(h):
            continue
        trials += 1
        assert hh_dagger_rank(blas_product(r, h, f), f, 13) == base


def test_size_guard():
    spec = FamilySpec(1, 3, 4, 1)  # q = 83, n = 689
    with pytest.raises(OracleSizeError, match="300"):
        entanglement_rank(spec)
    with pytest.raises(OracleSizeError, match="50"):
        entanglement_rank(FamilySpec(1, 1, 3, 1), n_max=50)


def test_code_context_rejects_a_q_that_is_not_a_prime_power():
    with pytest.raises(ValueError, match="q = 6 is not a prime power"):
        code_context(6, 37)


def test_hh_dagger_rank_on_prime_power_q():
    # q = 27 = 3^3 exercises GF(3^6) and its tower GF(3^12)
    spec = FamilySpec(3, 3, 1, 1)
    assert spec.q == 27 and spec.n == 73
    report = entanglement_rank(spec)
    assert report.match and report.matches_closed_form
