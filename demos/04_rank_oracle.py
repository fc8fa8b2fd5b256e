"""Recompute the entanglement count as a matrix rank, independent of cosets.

The residue-level route counts c = |Z1|.  This script walks the other
route for the [[61,9,39;24]] code: build the actual generator polynomial
over GF(q^2), form the parity-check matrix H, and eliminate H H† exactly.
The two numbers agree, which is the whole point: the decomposition lemma
and the rank characterization validate each other through disjoint code
paths.
"""

import numpy as np

from eaqmds import FamilySpec, build_defining_set, decompose, entanglement_rank
from eaqmds._gflinalg import rank_digits
from eaqmds.cyclic import generator_digits
from eaqmds.rank_oracle import OracleSizeError, code_context

spec = FamilySpec(2, 1, 2, 1)  # q = 11, n = 61
print(f"== the [[61,9,39;24]] code: q = {spec.q}, n = {spec.n}")

subfield, tower, lam = code_context(spec.q, spec.n)
z = build_defining_set(spec)
g = generator_digits(tower, lam, z)
print(f"   generator polynomial degree: {len(g) - 1} (= |Z|)")

# h = (x^n - 1) / g is the product over the cosets outside Z; row i of H
# is h's coefficients reversed, shifted i places
h = generator_digits(tower, lam, z.complement())
rows = spec.n - (len(h) - 1)
H = np.zeros((rows, spec.n, subfield.degree), dtype=np.int64)
for i in range(rows):
    H[i, i:i + len(h)] = h[::-1]
print(f"   parity-check matrix H: {rows} x {spec.n}, rank {rank_digits(H, subfield)}")

report = entanglement_rank(spec)
print(f"   rank(H H†)      = {report.rank_hh_dagger}")

z1 = decompose(spec.n, spec.q, z)
print(f"   |Z n (-qZ)|     = {len(z1)}")
print(f"   closed-form c   = {report.closed_form_c}")
print(f"   all three agree: {report.match and report.matches_closed_form}")

print("\n== the guard: exact elimination is O(n^3), so large n is refused")
big = FamilySpec(1, 3, 4, 1)  # q = 83, n = 689
try:
    entanglement_rank(big)
except OracleSizeError as exc:
    print(f"   n = {big.n}: {exc}")
print("   (lengths past the guard are covered by the closed-form vs")
print("    decomposition equality, which needs no matrices)")
