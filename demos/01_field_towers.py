"""Walk through the field layer: GF(q^2), its quadratic tower, and roots of unity.

The codes live over GF(q^2), but their defining roots live one level up,
in GF(q^4).  This script builds both levels for q = 13, shows that the
tower behaves (embedding is a ring homomorphism, projection is exact),
and locates the primitive 85th root of unity the cyclic codes are built
from.  An element is its digit tuple over GF(p), low first through every
tower level; x -> x a is a GF(p)-linear map on digits, so products are
vector-matrix products and a^k is row 0 of that map to the k-th power.
"""

import numpy as np

from eaqmds import (
    GF,
    find_primitive_element,
    nth_root_of_unity,
    quadratic_extension,
)
from eaqmds.fields import _powers, _times_matrix, prime_factors


def mul(a, b, field):
    return tuple((np.array(a) @ _times_matrix(b, field) % field.p).tolist())


def power(a, k, field):
    return tuple(_powers(_times_matrix(a, field), [k], field.p)[0].tolist())


def order(a, field):
    """Multiplicative order of a nonzero a, via the factored group order."""
    n, one = field.order - 1, power(a, 0, field)
    for r in prime_factors(n):
        while n % r == 0 and power(a, n // r, field) == one:
            n //= r
    return n


def index(a, field):
    return sum(d * field.p**k for k, d in enumerate(a))


def embed(a):
    """GF(q^2) into GF(q^4): the digits of a, then a zero top coefficient."""
    return a + (0, 0)


def project(a):
    assert not any(a[2:]), "not in the subfield"
    return a[:2]


q = 13

print(f"== GF(q^2) for q = {q}")
f2 = GF(q, 2)
print(f"   order {f2.order}, modulus coefficients (low first): {f2.modulus}")
x = (0, 1)
print(f"   the basis root x satisfies x^2 = {mul(x, x, f2)[0]}  (i.e. -2 mod 13)")

print("\n== the quadratic tower GF(q^4)")
f4 = quadratic_extension(f2)
print(f"   order {f4.order} = {f2.order}^2")
print(f"   modulus y^2 + b y + c with (c, b) indices {f4.modulus[:2]}")

a, b = (3, 5), (7, 2)
print(f"\n   embed(a) * embed(b) == embed(a * b): "
      f"{mul(embed(a), embed(b), f4) == embed(mul(a, b, f2))}")
print(f"   project(embed(a)) == a:               {project(embed(a)) == a}")

print("\n== Frobenius conjugation x -> x^q on GF(q^2)")
print(f"   (a^q)^q == a:            {power(power(a, q, f2), q, f2) == a}")
print(f"   (ab)^q == a^q b^q:       "
      f"{power(mul(a, b, f2), q, f2) == mul(power(a, q, f2), power(b, q, f2), f2)}")

print("\n== primitive elements and the 85th root of unity")
g = find_primitive_element(f4)
print(f"   canonical primitive element of GF(q^4): index {index(g, f4)}, "
      f"order {order(g, f4)}")
n = (q * q + 1) // 2
lam = nth_root_of_unity(f4, n)
one = power(lam, 0, f4)
print(f"   lambda = g^{(f4.order - 1) // n} has order "
      f"{order(lam, f4)} = n = {n}")
print(f"   lambda^n == 1: {power(lam, n, f4) == one}, "
      f"lambda^5 != 1: {power(lam, 5, f4) != one}, "
      f"lambda^17 != 1: {power(lam, 17, f4) != one}")
