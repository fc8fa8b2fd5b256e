"""Field construction, and the object arithmetic of ``field_reference``.

The canonical moduli, primitive elements and roots of unity come from
``fields``; the axioms, the tower embedding and the element orders are
checked on the reference ``FieldElement`` objects that the map-level
tests compare against.
"""

import random

import pytest
import sympy

from eaqmds.fields import (
    GF,
    find_primitive_element,
    is_prime,
    nth_root_of_unity,
    prime_factors,
    prime_power_base,
    quadratic_extension,
)
from field_reference import embed, in_subfield, multiplicative_order, object_field, \
    project


def scan_modulus_degree2(p):
    """Independent oracle: first irreducible x^2 + c1 x + c0 in counting order.

    Irreducibility for degree 2 is root absence, checked by direct
    evaluation over GF(p).
    """
    for v in range(p * p):
        c0, c1 = v % p, v // p
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            return (c0, c1, 1)
    raise AssertionError


def test_prime_field_construction():
    f = GF(13)
    assert f.order == 13
    assert f.degree == 1 and f.base is None
    assert object_field(f).element(20).coeffs == (7,)


def test_modulus_matches_independent_scan():
    # frozen from the scan oracle: x^2 + 2 over GF(13), x^2 + 1 over GF(3)
    assert scan_modulus_degree2(13) == (2, 0, 1)
    assert GF(13, 2).modulus == (2, 0, 1)
    assert scan_modulus_degree2(3) == (1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)
    for p in (5, 7, 11, 17):
        assert GF(p, 2).modulus == scan_modulus_degree2(p)


def test_modulus_choice_is_stable():
    GF.cache_clear()
    first = GF(13, 2)
    GF.cache_clear()
    second = GF(13, 2)
    assert first is not second
    assert first == second and first.modulus == second.modulus


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        GF(4, 2)
    with pytest.raises(ValueError):
        GF(13, 0)


def test_basic_arithmetic_values():
    f13 = object_field(GF(13))
    assert (f13.element(7).inverse()).coeffs == (2,)
    f169 = object_field(GF(13, 2))
    x = f169.element([0, 1])
    assert (x * x).coeffs == (11, 0)   # x^2 = -2 mod the modulus x^2 + 2
    a = f169.element([5, 9])
    assert (a ** 0) == f169.one
    assert a * a.inverse() == f169.one


def test_cross_field_operations_are_errors():
    a = object_field(GF(13)).element(3)
    b = object_field(GF(13, 2)).element([3, 0])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 3


def test_division_by_zero():
    f = object_field(GF(13, 2))
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


@pytest.mark.parametrize("p,e", [(13, 1), (13, 2), (3, 4), (5, 2)])
def test_field_axioms_random_pairs(p, e):
    f = object_field(GF(p, e))
    rng = random.Random(20240 + p * e)
    for _ in range(100):
        a = f.from_index(rng.randrange(f.order))
        b = f.from_index(rng.randrange(f.order))
        c = f.from_index(rng.randrange(f.order))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + f.zero == a and a * f.one == a
        assert a - a == f.zero


@pytest.mark.parametrize("p,e", [(13, 1), (13, 2), (3, 4)])
def test_inverse_exhaustive_small_fields(p, e):
    f = object_field(GF(p, e))
    assert f.order <= 169
    for a in f.elements():
        if not a.is_zero():
            assert a * a.inverse() == f.one


def test_tower_order_and_subfield_criterion():
    f169 = GF(13, 2)
    f4 = object_field(quadratic_extension(f169))
    assert f4.order == 169**2 == 28561
    rng = random.Random(7)
    qsq = 169
    for _ in range(50):
        x = f4.from_index(rng.randrange(f4.order))
        assert in_subfield(x) == (x**qsq == x) == (not any(x.digits[2:]))


def test_tower_embedding_is_ring_hom_exhaustive_q13():
    f169 = object_field(GF(13, 2))
    f4 = quadratic_extension(f169.field)
    images = set()
    for a in f169.elements():
        ea = embed(a, f4)
        assert project(ea) == a
        images.add(ea.index)
    assert len(images) == 169  # injective
    rng = random.Random(11)
    for _ in range(50):
        a = f169.from_index(rng.randrange(169))
        b = f169.from_index(rng.randrange(169))
        assert embed(a, f4) * embed(b, f4) == embed(a * b, f4)
        assert embed(a, f4) + embed(b, f4) == embed(a + b, f4)


def test_project_rejects_non_subfield_elements():
    f4 = object_field(quadratic_extension(GF(13, 2)))
    x = f4.from_index(169)  # top coefficient 1
    assert not in_subfield(x)
    with pytest.raises(ValueError):
        project(x)


def test_primitive_element_gf13():
    g = find_primitive_element(GF(13))
    assert g == (2,)
    # ord(2) = 12: both maximal proper-divisor powers differ from 1
    assert pow(2, 6, 13) == 12 and pow(2, 4, 13) == 3
    assert multiplicative_order(object_field(GF(13)).from_digits(g)) == 12


@pytest.mark.parametrize("p", [5, 7, 13, 17])
def test_primitive_element_order_criterion(p):
    f = object_field(GF(p))
    g = f.from_digits(find_primitive_element(f.field))
    assert g.coeffs[0] not in (0, 1)
    n = p - 1
    for r in prime_factors(n):
        assert g ** (n // r) != f.one
    assert multiplicative_order(g) == n


def test_primitive_element_of_gf2_is_one():
    # GF(2) has no index 2 to scan; its unit group is {1}
    f = object_field(GF(2))
    g = find_primitive_element(f.field)
    assert g == f.one.digits == (1,)
    assert multiplicative_order(f.from_digits(g)) == 1
    assert nth_root_of_unity(f.field, 1) == (1,)


def test_nth_root_of_unity_q13_n85():
    tower = quadratic_extension(GF(13, 2))
    f4 = object_field(tower)
    assert (f4.order - 1) // 85 == 336
    lam = f4.from_digits(nth_root_of_unity(tower, 85))
    g = f4.from_digits(find_primitive_element(tower))
    assert lam == g**336
    assert lam**85 == f4.one
    assert lam**5 != f4.one and lam**17 != f4.one
    assert multiplicative_order(lam) == 85


def test_nth_root_edge_cases():
    f4 = quadratic_extension(GF(13, 2))
    assert nth_root_of_unity(f4, 1) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        nth_root_of_unity(f4, 9)  # 28560 = 2^4 * 3 * 5 * 7 * 17 has a single 3


def test_quadratic_tower_needs_odd_characteristic():
    with pytest.raises(ValueError, match="quadratic tower requires odd characteristic"):
        quadratic_extension(GF(2))


def test_nth_root_rejects_n_below_one():
    with pytest.raises(ValueError, match="n must be positive"):
        nth_root_of_unity(quadratic_extension(GF(13, 2)), 0)


def test_frobenius_properties():
    f169 = object_field(GF(13, 2))
    for v in range(13):
        a = f169.element(v)  # prime subfield
        assert a ** 13 == a
    rng = random.Random(3)
    for _ in range(60):
        a = f169.from_index(rng.randrange(169))
        b = f169.from_index(rng.randrange(169))
        assert (a ** 13) ** 13 == a
        assert (a * b) ** 13 == a ** 13 * b ** 13


def test_higher_degree_modulus_is_irreducible():
    # Rabin's test with the repeated prime factor 2 of e = 4
    f = GF(3, 4)
    assert f.order == 81
    mod = f.modulus
    for x in range(3):  # no roots, necessary condition
        assert sum(c * x**i for i, c in enumerate(mod)) % 3 != 0
    g = object_field(f).from_digits(find_primitive_element(f))
    assert multiplicative_order(g) == 80


def test_number_theory_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(49)
    # both read the one trial-division loop of prime_factors
    for x in list(range(-3, 5000)) + [4294967311]:
        assert is_prime(x) == sympy.isprime(x), x
        factors = sympy.factorint(x) if x > 0 else {}
        assert prime_factors(x) == tuple(sorted(factors)), x
        expected = next(iter(factors)) if len(factors) == 1 else None
        assert prime_power_base(x) == expected, x
    assert prime_factors(28560) == (2, 3, 5, 7, 17)
    assert prime_power_base(27) == 3
    assert prime_power_base(13) == 13
    assert prime_power_base(21) is None
