"""The classical layer: minimal polynomials, g(x) | x^n - 1, and a toy distance.

Everything the quantum parameters rest on is classical coding theory:
x^n - 1 factors into one irreducible per coset, the defining set picks
which factors make up g(x), the other factors make up the check
polynomial h(x), and a consecutive run of roots forces the distance up.
For a code small enough to enumerate, the brute-force minimum distance
confirms the designed one.
"""

import itertools

import numpy as np

from eaqmds import (
    GF,
    ResidueSet,
    nth_root_of_unity,
    quadratic_extension,
)
from eaqmds._gflinalg import polymul_digits
from eaqmds.cyclic import generator_digits

q, n = 13, 85
subfield = GF(q, 2)
tower = quadratic_extension(subfield)
lam = nth_root_of_unity(tower, n)

print(f"== factoring x^{n} - 1 over GF({subfield.order})")
full = np.zeros((n + 1, subfield.degree), dtype=np.int64)  # x^n - 1, low first
full[0, 0], full[n, 0] = subfield.p - 1, 1
product = full[n:]  # the constant 1
degrees = []
for i in range(n // 2 + 1):
    coset = ResidueSet.of(n, (i, -i))  # q^2 = -1 mod n: the coset {i, n - i}
    mp = generator_digits(tower, lam, coset)  # the coset's minimal polynomial
    degrees.append(len(mp) - 1)
    product = polymul_digits(product, mp, subfield)
print(f"   {len(degrees)} irreducible factors, degrees: "
      f"{sorted(set(degrees))} (1 linear + 42 quadratics)")
print(f"   product == x^{n} - 1: {np.array_equal(product, full)}")

print("\n== generator and check polynomial of the [[85,33,33;12]] code")
z = ResidueSet.of(n, range(27, 59))
g = generator_digits(tower, lam, z)
h = generator_digits(tower, lam, z.complement())  # the cosets outside Z
print(f"   deg g = {len(g) - 1}, deg h = {len(h) - 1}, "
      f"g * h == x^n - 1: {np.array_equal(polymul_digits(g, h, subfield), full)}")

print("\n== a toy code small enough to brute-force: n = 5 over GF(9)")
f9 = GF(3, 2)
t81 = quadratic_extension(f9)
mu = nth_root_of_unity(t81, 5)
z5 = ResidueSet.of(5, [1, 2, 3, 4])
g5 = generator_digits(t81, mu, z5)


def weight(message):
    """Nonzero coefficients of m(x) g5(x), m given by its field indices."""
    m = np.array([(i % f9.p, i // f9.p) for i in message])  # digits, low first
    return int(polymul_digits(m, g5, f9).any(axis=1).sum())


k5 = 5 - (len(g5) - 1)
d = min(weight(m) for m in itertools.product(range(f9.order), repeat=k5) if any(m))
print(f"   defining set {tuple(z5)} has a run of 4 consecutive roots")
print(f"   designed distance 5; exhaustive minimum distance: {d}")
