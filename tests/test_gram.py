"""The rank oracle's polynomial kernels against the explicit matrices.

The oracle never forms H, H† or G: it builds H H†, or G G† when g is
the longer polynomial, from the autocorrelation r of the reversed
polynomial (``gram_digits``), and checks G H^T = 0 as the vanishing of
the terms of g h of degrees 1 .. n - 1.  These tests pin both to the
explicit products of the Toeplitz matrices in ``linalg_reference``, on
random polynomials and on the codes of the sweep and of the published
rows, check the hull identity rank(H H†) = rank(G G†) + 2 deg g - n by
ranking both, and pin the polynomial product itself to the schoolbook
product in ``cyclic_reference``, up to the longest factors its float64
bound admits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclic_reference as cref
import linalg_reference as ref
from eaqmds import _gflinalg as gfa
from eaqmds import rank_oracle
from eaqmds.cyclic import generator_digits
from eaqmds.families import spec_from_q, sweep_specs
from eaqmds.fields import GF, is_prime
from eaqmds.published_params import PUBLISHED_ROWS
from eaqmds.rank_oracle import gram_digits

# fields as (p, e), built when a test draws them, so that a fault in the
# field constructors fails tests instead of this module's collection;
# HERMITIAN holds (p, e, q) with GF(p^e) = GF(q^2), and GF(3^6) is GF(27^2)
HERMITIAN = [(3, 2, 3), (13, 2, 13), (29, 2, 29), (83, 2, 83), (239, 2, 239), (3, 6, 27)]
FIELDS = [(2, 1), (13, 1), (3, 2), (29, 2), (3, 6)]
fields = st.sampled_from(FIELDS).map(lambda pe: GF(*pe))

seeds = st.integers(0, 2**32 - 1)


def random_digits(field, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, field.p, (*shape, field.degree), dtype=np.int64)


def reference_product(a, b, field):
    return cref.digits(cref.poly_mul(cref.elements(a, field), cref.elements(b, field)))


def explicit_gram(h, field, q, n):
    """H H† with H from the Toeplitz reference and H† from FieldElement ** q."""
    hd = ref.parity_check_digits(h, n)
    return ref.matmul_digits(hd, ref.conjugate_transpose(hd, field, q), field)


# ---------------------------------------------------------------------------
# the polynomial product


@settings(deadline=None)
@given(fields, st.integers(1, 30), st.integers(1, 30), seeds)
def test_polymul_matches_polynomial_multiply(field, la, lb, seed):
    a = random_digits(field, (la,), seed)
    b = random_digits(field, (lb,), seed + 1)
    out = gfa.polymul_digits(a, b, field)
    assert out.shape == (la + lb - 1, field.degree)
    assert np.array_equal(out, reference_product(a, b, field))


@settings(deadline=None, max_examples=30)
@given(fields, st.integers(1, 30), st.integers(1, 30))
def test_polymul_of_all_max_digits(field, la, lb):
    a = np.full((la, field.degree), field.p - 1, dtype=np.int64)
    b = np.full((lb, field.degree), field.p - 1, dtype=np.int64)
    assert np.array_equal(gfa.polymul_digits(a, b, field),
                          reference_product(a, b, field))


def test_polymul_reduces_digits_outside_the_range():
    field = GF(13, 2)
    a = random_digits(field, (7,), 3)
    b = random_digits(field, (5,), 4)
    assert np.array_equal(gfa.polymul_digits(a - 13, b + 26, field),
                          gfa.polymul_digits(a, b, field))


def test_polymul_guard_names_the_float64_bound():
    # the largest prime p with (p - 1)^2 < 2^53: one coefficient each is
    # exact, a second one could take a float64 sum past 2^53
    p = int(2**26.5) + 1
    while (p - 1) ** 2 >= 2**53 or not is_prime(p):
        p -= 1
    assert 2 * (p - 1) ** 2 >= 2**53
    field = GF(p)
    one = np.full((1, 1), p - 1, dtype=np.int64)
    assert gfa.polymul_digits(one, one, field).tolist() == [[1]]
    with pytest.raises(ValueError, match=r"float64.*2\^53"):
        gfa.polymul_digits(np.concatenate([one, one]), np.concatenate([one, one]),
                           field)


@pytest.mark.parametrize("length", [3, 40])
def test_polymul_exact_at_the_longest_length_its_bound_admits(length):
    # the largest prime p with length*(p - 1)^2 < 2^53: the middle
    # coefficient of the all-(p - 1) square sums ``length`` products of
    # (p - 1)^2, the largest sum the bound admits; one more coefficient on
    # each side is refused
    p = int((2**53 / length) ** 0.5) + 2
    while length * (p - 1) ** 2 >= 2**53 or not is_prime(p):
        p -= 1
    field = GF(p)
    a = np.full((length, 1), p - 1, dtype=np.int64)
    counts = [min(k + 1, length, 2 * length - 1 - k) for k in range(2 * length - 1)]
    out = gfa.polymul_digits(a, a, field)
    assert out.dtype == np.int64
    assert out[:, 0].tolist() == [c * (p - 1) ** 2 % p for c in counts]
    assert np.array_equal(out, reference_product(a, a, field))
    with pytest.raises(ValueError, match=r"float64.*2\^53"):
        gfa.polymul_digits(np.concatenate([a, a[:1]]), np.concatenate([a, a[:1]]),
                           field)


# ---------------------------------------------------------------------------
# H H† from the autocorrelation of h


lengths_and_degrees = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1)))


@settings(deadline=None)
@given(st.sampled_from(HERMITIAN), lengths_and_degrees, seeds)
@example(HERMITIAN[1], (12, 0), 7)      # deg h = 0: a diagonal matrix
@example(HERMITIAN[1], (12, 1), 7)      # deg h = 1: tridiagonal
@example(HERMITIAN[5], (9, 8), 7)       # one row: H H† is 1 x 1
def test_gram_matches_explicit_product(peq, nk, seed):
    p, e, q = peq
    field = GF(p, e)
    n, k = nk
    h = random_digits(field, (k + 1,), seed)
    gram = gram_digits(h, field, q, n)
    assert gram.shape == (n - k, n - k, field.degree)
    assert np.array_equal(gram, explicit_gram(h, field, q, n))


@pytest.mark.parametrize("k", [0, 1, 5, 9, 10, 15, 19])
def test_gram_band_covers_the_whole_matrix(k):
    # deg h >= n - deg h (k >= 10 here): every diagonal of H H† is in the band
    field, q = GF(13, 2), 13
    h = random_digits(field, (k + 1,), k)
    assert np.array_equal(gram_digits(h, field, q, 20), explicit_gram(h, field, q, 20))


def test_gram_is_read_only():
    field = GF(13, 2)
    gram = gram_digits(random_digits(field, (4,), 1), field, 13, 10)
    assert not gram.flags.writeable


SWEEP_300 = [s for s in sweep_specs(5, 250) if s.n <= 300]
PUBLISHED_421 = [spec_from_q(case, m, q, alpha)
                 for case, rows in PUBLISHED_ROWS.items()
                 for m, q, n, alpha, _, _, _ in rows if n == 421]


def test_spec_lists():
    assert len(SWEEP_300) == 55
    assert len(PUBLISHED_421) == 7


def test_gram_matches_product_on_sweep_and_published_codes():
    for spec in SWEEP_300 + PUBLISHED_421:
        tower, lam, z = rank_oracle._code(spec)
        field = tower.base
        h = generator_digits(tower, lam, z.complement())
        hd = ref.parity_check_digits(h, spec.n)
        hdag = ref.conjugate_transpose_digits(hd, field, spec.q)
        expected = gfa._gemm(hd, hdag, field).astype(np.int64) % field.p
        assert gram_digits(h, field, spec.q, spec.n).tobytes() == expected.tobytes(), spec


# ---------------------------------------------------------------------------
# G G† from g, and the hull identity rank(H H†) = rank(G G†) + 2 deg g - n


def test_gram_of_g_is_transposed_g_g_dagger_on_sweep_codes():
    # the shifts of the reversed g are G's rows and columns both reversed
    for spec in SWEEP_300:
        tower, lam, z = rank_oracle._code(spec)
        field = tower.base
        g = generator_digits(tower, lam, z)
        gd = ref.generator_matrix_digits(g, spec.n)
        gdag = ref.conjugate_transpose_digits(gd, field, spec.q)
        expected = gfa._gemm(gd, gdag, field).astype(np.int64) % field.p
        expected = expected.transpose(1, 0, 2)
        assert gram_digits(g, field, spec.q, spec.n).tobytes() == expected.tobytes(), spec


PUBLISHED_1000 = [spec_from_q(case, m, q, alpha)
                  for case, rows in PUBLISHED_ROWS.items()
                  for m, q, n, alpha, _, _, _ in rows if n <= 1000]


def test_hull_identity_on_sweep_and_published_codes():
    # C and its Euclidean dual have Hermitian hulls of one dimension; the
    # oracle ranks whichever Gram matrix is smaller on the strength of it
    assert len(PUBLISHED_1000) == 49
    for spec in SWEEP_300 + PUBLISHED_1000:
        tower, lam, z = rank_oracle._code(spec)
        field = tower.base
        g = generator_digits(tower, lam, z)
        h = generator_digits(tower, lam, z.complement())
        rank_g, rank_h = (gfa.rank_digits(gram_digits(poly, field, spec.q, spec.n), field)
                          for poly in (g, h))
        assert rank_h == rank_g + 2 * (len(g) - 1) - spec.n, spec


# ---------------------------------------------------------------------------
# G H^T from g h


def explicit_g_ht(g, h, field, n):
    gd = ref.generator_matrix_digits(g, n)
    hd = ref.parity_check_digits(h, n)
    return ref.matmul_digits(gd, hd.transpose(1, 0, 2), field)


def g_ht_from_product(g, h, field, n):
    """(G H^T)_ij = (g h)_(k + j - i), k = deg h."""
    k = len(h) - 1
    gh = gfa.polymul_digits(g, h, field)
    i, j = np.arange(k)[:, None], np.arange(n - k)[None, :]
    return gh[k + j - i]


@settings(deadline=None)
@given(fields, st.integers(2, 30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1))), seeds)
def test_g_ht_entries_are_terms_of_g_h(field, nk, seed):
    n, k = nk
    g = random_digits(field, (n - k + 1,), seed)
    h = random_digits(field, (k + 1,), seed + 1)
    assert np.array_equal(g_ht_from_product(g, h, field, n),
                          explicit_g_ht(g, h, field, n))


ORACLE_SPECS = [s for s in sweep_specs(5, 250) if s.n <= 150]


def test_g_h_check_matches_explicit_g_ht_on_oracle_specs():
    assert len(ORACLE_SPECS) == 29
    for spec in ORACLE_SPECS:
        tower, lam, z = rank_oracle._code(spec)
        field = tower.base
        g = generator_digits(tower, lam, z)
        h = generator_digits(tower, lam, z.complement())
        assert not explicit_g_ht(g, h, field, spec.n).any(), spec
        assert rank_oracle.generator_parity_orthogonal(spec), spec
        bad = h.copy()
        bad[len(h) // 2, 0] = (bad[len(h) // 2, 0] + 1) % field.p
        assert explicit_g_ht(g, bad, field, spec.n).any(), spec
        assert g_ht_from_product(g, bad, field, spec.n).any(), spec

