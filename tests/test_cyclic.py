"""Polynomial and matrix machinery for the cyclic codes."""

import pytest

from eaqmds.cosets import ResidueSet, all_cosets, run_defining_set
from eaqmds.cyclic import (
    MatrixGF,
    Polynomial,
    brute_min_distance,
    check_polynomial,
    generator_matrix,
    generator_polynomial,
    is_zero_matrix,
    matmul,
    minimal_polynomial,
    parity_check_matrix,
    x_pow_minus_one,
)
from eaqmds.fields import GF, embed, nth_root_of_unity, quadratic_extension
from linalg_reference import rank_gf


def context(q, n):
    sub = GF(q, 2)
    tower = quadratic_extension(sub)
    return sub, tower, nth_root_of_unity(tower, n)


def test_polynomial_basics():
    f = GF(13)
    p = Polynomial.of(f, [1, 2, 3])
    q = Polynomial.of(f, [4, 5])
    assert (p * q).coeffs == Polynomial.of(f, [4, 13 % 13, 22 % 13, 15 % 13]).coeffs
    assert (p + q).degree == 2
    assert Polynomial.of(f, [1, 0, 0]).degree == 0  # trimmed
    assert Polynomial.zero(f).degree == -1
    quot, rem = (p * q).divmod(q)
    assert quot.coeffs == p.coeffs and rem.is_zero()


def test_polynomial_division_errors():
    f = GF(13)
    with pytest.raises(ZeroDivisionError):
        Polynomial.one(f).divmod(Polynomial.zero(f))


def test_minimal_polynomial_zero_coset_is_x_minus_1():
    sub, tower, lam = context(13, 85)
    mp = minimal_polynomial(lam, ResidueSet.of(85, (0,)))
    assert mp.field == sub
    assert mp.coeffs == Polynomial.of(sub, [-1, 1]).coeffs


def test_minimal_polynomial_degree_and_subfield():
    sub, tower, lam = context(13, 85)
    for c in all_cosets(85, 84)[:10]:
        mp = minimal_polynomial(lam, c)
        assert mp.degree == len(c)
        assert mp.is_monic()
        for kappa in mp.coeffs:
            assert kappa ** (13 * 13) == kappa  # Frobenius-fixed: lies in GF(q^2)


def test_minimal_polynomial_rejects_non_coset():
    _, _, lam = context(13, 85)
    with pytest.raises(ValueError):
        minimal_polynomial(lam, ResidueSet.of(85, (1,)))  # orbit of 1 is {1, 84}


@pytest.mark.parametrize("q,n", [(13, 85), (11, 61)])
def test_product_of_all_minimal_polynomials(q, n):
    sub, _, lam = context(q, n)
    product = Polynomial.one(sub)
    for c in all_cosets(n, (q * q) % n):
        product = product * minimal_polynomial(lam, c)
    assert product.coeffs == x_pow_minus_one(sub, n).coeffs


def test_generator_polynomial_edges():
    sub, _, lam = context(13, 85)
    assert generator_polynomial(lam, ResidueSet.empty(85)).coeffs == \
        Polynomial.one(sub).coeffs
    g0 = generator_polynomial(lam, ResidueSet.of(85, [0]))
    assert g0.coeffs == Polynomial.of(sub, [-1, 1]).coeffs
    with pytest.raises(ValueError):
        generator_polynomial(lam, ResidueSet.of(85, [1]))


def test_generator_polynomial_case1_q13():
    sub, _, lam = context(13, 85)
    z = run_defining_set(85, 42, 16)
    g = generator_polynomial(lam, z)
    assert g.degree == 32 and g.is_monic()
    quot, rem = x_pow_minus_one(sub, 85).divmod(g)
    assert rem.is_zero()
    assert quot.degree == 85 - 32
    # every defining-set exponent is a root
    _, tower, lam4 = context(13, 85)
    lifted = Polynomial.of(tower, [embed(c, tower) for c in g.coeffs])
    for i in list(z)[:6]:
        assert lifted.evaluate(lam4 ** i).is_zero()


def test_check_polynomial():
    sub, _, lam = context(13, 85)
    full = x_pow_minus_one(sub, 85)
    assert check_polynomial(full, 85).coeffs == Polynomial.one(sub).coeffs
    assert check_polynomial(Polynomial.one(sub), 85).coeffs == full.coeffs
    z = run_defining_set(85, 42, 16)
    g = generator_polynomial(lam, z)
    h = check_polynomial(g, 85)
    assert h.degree == 53
    assert (g * h).coeffs == full.coeffs
    with pytest.raises(ValueError):
        check_polynomial(Polynomial.of(sub, [1, 1]), 85)  # x + 1 does not divide


def test_matrices_case1_q13():
    sub, _, lam = context(13, 85)
    g = generator_polynomial(lam, run_defining_set(85, 42, 16))
    G = generator_matrix(g, 85)
    H = parity_check_matrix(g, 85)
    assert (G.rows, G.cols) == (53, 85)
    assert (H.rows, H.cols) == (32, 85)
    assert is_zero_matrix(matmul(G, H.transpose()))
    assert rank_gf(H) == g.degree
    assert rank_gf(G) == 85 - g.degree
    # row i of G is the coefficient vector of x^i g(x)
    assert G.entries[3][:3] == (sub.zero,) * 3
    assert G.entries[3][3:3 + len(g.coeffs)] == g.coeffs


def test_generator_matrix_cyclicity_witness():
    sub, _, lam = context(3, 5)
    g = generator_polynomial(lam, ResidueSet.of(5, [1, 4]))
    G = generator_matrix(g, 5)
    k = G.rows
    for row in G.entries:
        shifted = (row[-1],) + row[:-1]
        extended = MatrixGF(sub, G.entries + (shifted,))
        assert rank_gf(extended) == k  # shifted row already lies in the row space


def test_brute_min_distance_repetition_code():
    sub, _, lam = context(3, 5)
    g = generator_polynomial(lam, ResidueSet.of(5, [1, 2, 3, 4]))
    assert g.degree == 4
    G = generator_matrix(g, 5)
    assert brute_min_distance(G) == 5


def test_brute_min_distance_full_space():
    sub, _, lam = context(3, 5)
    G = generator_matrix(Polynomial.one(sub), 5)
    assert brute_min_distance(G) == 1


@pytest.mark.parametrize("n,reps,designed", [
    (5, [1], 2),              # single coset {1, 4}: run length 1
    (5, [1, 2], 5),           # full run 1..4
    (10, [1, 2, 3, 4], 5),    # n = 10 | 3^2 + 1 as well; run 1..4
    (10, [0, 1, 2, 3, 4], 6),  # adds C_0; run 0..4
])
def test_bch_bound_cross_check_toys(n, reps, designed):
    sub, tower, lam = context(3, n)
    z = ResidueSet.of(n, [x for i in reps for x in (i, (n - i) % n)])
    g = generator_polynomial(lam, z)
    G = generator_matrix(g, n)
    d = brute_min_distance(G)
    assert d >= designed, (reps, d, designed)


def test_brute_min_distance_guard():
    sub, _, lam = context(13, 85)
    g = generator_polynomial(lam, run_defining_set(85, 42, 16))
    G = generator_matrix(g, 85)  # 169^53 codewords, far beyond the guard
    with pytest.raises(ValueError, match="guard"):
        brute_min_distance(G)
