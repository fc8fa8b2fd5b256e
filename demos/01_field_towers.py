"""Walk through the field layer: GF(q^2), its quadratic tower, and roots of unity.

The codes live over GF(q^2), but their defining roots live one level up,
in GF(q^4).  This script builds both levels for q = 13, shows that the
tower behaves (embedding is a ring homomorphism, projection is exact),
and locates the primitive 85th root of unity the cyclic codes are built
from.
"""

from eaqmds import (
    GF,
    embed,
    find_primitive_element,
    multiplicative_order,
    nth_root_of_unity,
    project,
    quadratic_extension,
)

q = 13

print(f"== GF(q^2) for q = {q}")
f2 = GF(q, 2)
print(f"   order {f2.order}, modulus coefficients (low first): {f2.modulus}")
x = f2.element([0, 1])
print(f"   the basis root x satisfies x^2 = {(x * x).coeffs[0]}  (i.e. -2 mod 13)")

print("\n== the quadratic tower GF(q^4)")
f4 = quadratic_extension(f2)
print(f"   order {f4.order} = {f2.order}^2")
print(f"   modulus y^2 + b y + c with (c, b) indices "
      f"{tuple(c.index for c in f4.modulus)}")

a = f2.element([3, 5])
b = f2.element([7, 2])
print(f"\n   embed(a) * embed(b) == embed(a * b): "
      f"{embed(a, f4) * embed(b, f4) == embed(a * b, f4)}")
print(f"   project(embed(a)) == a:               {project(embed(a, f4)) == a}")

print("\n== Frobenius conjugation x -> x^q on GF(q^2)")
print(f"   (a^q)^q == a:            {(a**q)**q == a}")
print(f"   (ab)^q == a^q b^q:       {(a * b)**q == a**q * b**q}")

print("\n== primitive elements and the 85th root of unity")
g = find_primitive_element(f4)
print(f"   canonical primitive element of GF(q^4): index {g.index}, "
      f"order {multiplicative_order(g)}")
n = (q * q + 1) // 2
lam = nth_root_of_unity(f4, n)
print(f"   lambda = g^{(f4.order - 1) // n} has order "
      f"{multiplicative_order(lam)} = n = {n}")
print(f"   lambda^n == 1: {lam ** n == f4.one}, "
      f"lambda^5 != 1: {lam ** 5 != f4.one}, lambda^17 != 1: {lam ** 17 != f4.one}")
