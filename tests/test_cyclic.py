"""Generator and check polynomials of the cyclic codes, and toy distances.

The digit builders of ``cyclic`` are checked against ``cyclic_reference``
(the plain product of x - lam^j in the tower, and long division, which
``cyclic`` no longer has: h is the product over Z's complement), and the
explicit G and H of ``linalg_reference`` against their ranks and G H^T = 0.
"""

import numpy as np
import pytest

import cyclic_reference as cref
import linalg_reference as ref
from eaqmds import _gflinalg as gfa
from eaqmds.cosets import ResidueSet, run_defining_set
from eaqmds.cyclic import generator_digits
from eaqmds.fields import GF, nth_root_of_unity, quadratic_extension
from field_reference import embed, object_field
from residue_reference import all_cosets


def context(q, n):
    sub = GF(q, 2)
    tower = quadratic_extension(sub)
    return sub, tower, nth_root_of_unity(tower, n)


def as_digits(field, coeffs):
    return cref.digits([object_field(field).element(c) for c in coeffs])


def test_polynomial_basics():
    f = object_field(GF(13))
    p = [f.element(c) for c in (1, 2, 3)]
    q = [f.element(c) for c in (4, 5)]
    pq = cref.poly_mul(p, q)
    assert pq == [f.element(c) for c in (4, 13, 22, 15)]
    assert np.array_equal(gfa.polymul_digits(cref.digits(p), cref.digits(q), f.field),
                          cref.digits(pq))
    quot, rem = cref.poly_divmod(pq, q)
    assert quot == p and all(c.is_zero() for c in rem)


def test_polynomial_division_errors():
    f = object_field(GF(13))
    with pytest.raises(ZeroDivisionError):
        cref.poly_divmod([f.one], [f.one, f.zero])


def test_minimal_polynomial_zero_coset_is_x_minus_1():
    sub, tower, lam = context(13, 85)
    mp = generator_digits(tower, lam, ResidueSet.of(85, (0,)))
    assert mp.tobytes() == as_digits(sub, [-1, 1]).tobytes()


def test_minimal_polynomial_degree_and_subfield():
    sub, tower, lam = context(13, 85)
    for c in all_cosets(85, 84)[:10]:
        mp = generator_digits(tower, lam, c)
        assert len(mp) - 1 == len(c)
        assert mp[-1].tolist() == [1, 0]     # monic
        # the reference checks that every coefficient lies in GF(q^2)
        assert mp.tobytes() == cref.digits(cref.generator(tower, lam, c)).tobytes()


def test_minimal_polynomial_rejects_non_coset():
    _, tower, lam = context(13, 85)
    one = ResidueSet.of(85, (1,))   # orbit of 1 is {1, 84}
    with pytest.raises(ValueError):
        generator_digits(tower, lam, one)
    with pytest.raises(ValueError, match="escapes the subfield"):
        cref.generator(tower, lam, one)


@pytest.mark.parametrize("q,n", [(13, 85), (11, 61)])
def test_product_of_all_minimal_polynomials(q, n):
    sub, tower, lam = context(q, n)
    product = as_digits(sub, [1])
    for c in all_cosets(n, (q * q) % n):
        product = gfa.polymul_digits(product, generator_digits(tower, lam, c), sub)
    assert product.tobytes() == cref.digits(cref.x_pow_minus_one(sub, n)).tobytes()


def test_generator_polynomial_edges():
    sub, tower, lam = context(13, 85)
    assert generator_digits(tower, lam, ResidueSet.of(85, [])).tolist() == [[1, 0]]
    assert generator_digits(tower, lam, ResidueSet.of(85, [0])).tobytes() == \
        as_digits(sub, [-1, 1]).tobytes()
    with pytest.raises(ValueError):
        generator_digits(tower, lam, ResidueSet.of(85, [1]))


def test_generator_polynomial_needs_a_tower():
    sub, tower, lam = context(13, 85)
    with pytest.raises(ValueError, match="root of unity must live in a tower extension"):
        generator_digits(sub, lam, run_defining_set(85, 42, 16))


def test_generator_polynomial_case1_q13():
    sub, tower, lam = context(13, 85)
    z = run_defining_set(85, 42, 16)
    g = generator_digits(tower, lam, z)
    assert len(g) - 1 == 32 and g[-1].tolist() == [1, 0]
    assert len(generator_digits(tower, lam, z.complement())) - 1 == 85 - 32
    # every defining-set exponent is a root
    lifted = [embed(c, tower) for c in cref.elements(g, sub)]
    for i in list(z)[:6]:
        root = object_field(tower).from_digits(lam) ** i
        acc = object_field(tower).zero
        for c in reversed(lifted):
            acc = acc * root + c
        assert acc.is_zero()


def test_check_polynomial():
    sub, tower, lam = context(13, 85)
    full = cref.digits(cref.x_pow_minus_one(sub, 85))
    everything = ResidueSet.of(85, range(85))
    assert generator_digits(tower, lam, everything).tobytes() == full.tobytes()
    assert generator_digits(tower, lam, everything.complement()).tolist() == [[1, 0]]
    z = run_defining_set(85, 42, 16)
    g = generator_digits(tower, lam, z)
    h = generator_digits(tower, lam, z.complement())
    assert len(h) - 1 == 53
    assert gfa.polymul_digits(g, h, sub).tobytes() == full.tobytes()
    assert h.tobytes() == cref.digits(cref.check(cref.elements(g, sub), 85)).tobytes()
    with pytest.raises(ValueError, match="does not divide"):    # the reference's
        cref.check(cref.elements(as_digits(sub, [1, 1]), sub), 85)  # x + 1, n odd


def test_matrices_case1_q13():
    sub, tower, lam = context(13, 85)
    z = run_defining_set(85, 42, 16)
    g = generator_digits(tower, lam, z)
    G = ref.generator_matrix_digits(g, 85)
    H = ref.parity_check_digits(generator_digits(tower, lam, z.complement()), 85)
    assert G.shape[:2] == (53, 85)
    assert H.shape[:2] == (32, 85)
    assert not ref.matmul_digits(G, H.transpose(1, 0, 2), sub).any()
    assert ref.rank_digits(H, sub) == 32
    assert ref.rank_digits(G, sub) == 85 - 32
    # row i of G is the coefficient vector of x^i g(x)
    assert not G[3, :3].any()
    assert np.array_equal(G[3, 3:3 + len(g)], g)


def test_generator_matrix_cyclicity_witness():
    sub, tower, lam = context(3, 5)
    g = generator_digits(tower, lam, ResidueSet.of(5, [1, 4]))
    G = ref.generator_matrix_digits(g, 5)
    k = len(G)
    for row in G:
        shifted = np.roll(row, 1, axis=0)
        extended = np.concatenate([G, shifted[None]])
        assert ref.rank_digits(extended, sub) == k  # shifted row already lies in the row space


def test_brute_min_distance_repetition_code():
    _, tower, lam = context(3, 5)
    g = cref.generator(tower, lam, ResidueSet.of(5, [1, 2, 3, 4]))
    assert len(g) - 1 == 4
    assert cref.min_distance(g, 5) == 5


def test_brute_min_distance_full_space():
    sub, _, _ = context(3, 5)
    assert cref.min_distance([object_field(sub).one], 5) == 1


@pytest.mark.parametrize("n,reps,designed", [
    (5, [1], 2),              # single coset {1, 4}: run length 1
    (5, [1, 2], 5),           # full run 1..4
    (10, [1, 2, 3, 4], 5),    # n = 10 | 3^2 + 1 as well; run 1..4
    (10, [0, 1, 2, 3, 4], 6),  # adds C_0; run 0..4
])
def test_bch_bound_cross_check_toys(n, reps, designed):
    sub, tower, lam = context(3, n)
    z = ResidueSet.of(n, [x for i in reps for x in (i, (n - i) % n)])
    g = generator_digits(tower, lam, z)
    d = cref.min_distance(cref.elements(g, sub), n)
    assert d >= designed, (reps, d, designed)


def test_brute_min_distance_guard():
    sub, tower, lam = context(13, 85)
    g = generator_digits(tower, lam, run_defining_set(85, 42, 16))
    with pytest.raises(ValueError, match="guard"):   # 169^53 codewords
        cref.min_distance(cref.elements(g, sub), 85)
