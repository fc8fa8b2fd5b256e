"""Cyclotomic cosets mod n, the -q map, and the defining-set decomposition.

For n = (q^2+1)/a the cosets mod n collapse to pairs {i, n-i}, so a
defining set built from consecutive cosets C_{s+1} ... C_{s+delta} is one
unbroken interval of 2*delta residues.  Splitting Z against its -q image
yields Z1, whose size is the number of pre-shared entangled pairs the
quantum code needs.
"""

from eaqmds import decompose, run_defining_set

q, n = 13, 85
s = (n - 1) // 2
qsq = (q * q) % n


def coset(i):
    """The orbit of i under multiplication by q^2 mod n, as a sorted tuple."""
    orbit, x = {i % n}, i * qsq % n
    while x not in orbit:
        orbit.add(x)
        x = x * qsq % n
    return tuple(sorted(orbit))


def neg_q(members):
    """The image -qS = {-q x mod n | x in S} as a sorted tuple."""
    return tuple(sorted({(-q * x) % n for x in members}))


print(f"== cosets mod {n} under multiplication by q^2 = {qsq} (= -1 mod n)")
cosets = sorted({coset(i) for i in range(n)})  # by least member
print(f"   {len(cosets)} cosets: sizes "
      f"{sorted(set(len(c) for c in cosets))} "
      f"({sum(1 for c in cosets if len(c) == 1)} singleton + "
      f"{sum(1 for c in cosets if len(c) == 2)} pairs)")
print(f"   C_1  = {cosets[1]}")
print(f"   C_42 = {coset(42)}  (the middle pair)")

print("\n== the -q map")
print(f"   -q * {{1}} = {neg_q([1])}   (since -13 = 72 mod 85)")
print(f"   -q * {{0}} = {neg_q([0])}   (fixed point)")

print("\n== the defining set of the [[85,33,33;12]] code (delta = 16)")
z = run_defining_set(n, s, 16)
print(f"   Z = [{z.members[0]}, {z.members[-1]}], size {len(z)}, "
      f"consecutive: {z.is_consecutive_run()}")

z1 = decompose(n, q, z)
print(f"   Z1 = Z n (-qZ): size {len(z1)}   <- entanglement count c")
print(f"   Z2 = Z \\ Z1:    size {len(z) - len(z1)}")
print(f"   Z1 members: {z1.members}")
print(f"   -q Z1 == Z1: {neg_q(z1) == z1.members}")

print("\n== the same split for q = 17, n = 145, delta = 21")
z145 = run_defining_set(145, 72, 21)
print(f"   |Z1| = {len(decompose(145, 17, z145))} "
      "(both length-85 and length-145 codes need 12 pairs at alpha = 1)")
