"""Enumerate the four code families and reproduce their published parameters.

Each family pins q to a linear form in k; every odd prime power on that
line yields, for each alpha up to k, an EAQMDS code whose distance grows
with alpha while the dimension shrinks.  The closed forms, the direct
defining-set decomposition, and the T1/T1' partition are all checked
against each other per instance.
"""

from eaqmds import (
    FamilySpec,
    build_T1,
    build_T1_prime,
    build_defining_set,
    closed_form,
    ea_params,
    enumerate_admissible,
    verify_family,
)
from eaqmds.published_params import PUBLISHED_ROWS

print("== admissible parameters for case 1, m = 1, q <= 60")
for spec in enumerate_admissible(1, 1, q_max=60):
    if spec.alpha == 1:
        print(f"   k = {spec.k:2d} -> q = {spec.q:3d}, n = {spec.n:4d}, "
              f"alpha up to {spec.k}")

print("\n== the length-85 family (case 1, m = 1, q = 13) across alpha")
for alpha in (1, 2, 3):
    spec = FamilySpec(1, 1, 3, alpha)
    ea = ea_params(spec)
    print(f"   alpha = {alpha}: {ea.label(spec.q)}  "
          f"d within (n+2)/2: {ea.d_within_half}")

print("\n== inside one instance: [[85,33,33;12]]")
spec = FamilySpec(1, 1, 3, 1)
cf = closed_form(spec)
z = build_defining_set(spec)
t1, t1p = build_T1(spec), build_T1_prime(spec)
print(f"   delta = {cf.delta}, |Z| = {len(z)}, classical [n,k,d] = "
      f"[{spec.n},{cf.classical_dim},{cf.d}]")
print(f"   |T1| = {len(t1)}, |T1'| = {len(t1p)}, "
      f"partition of Z: {len(t1) + len(t1p) == len(z)}")
report = verify_family(spec)
print(f"   all structural checks pass: {report.passed}")

print("\n== every published row, regenerated")
bad = 0
for case, rows in PUBLISHED_ROWS.items():
    for m, q, n, alpha, kq, d, c in rows:
        a = m * m + 1
        offset = {1: m, 2: a + m, 3: a - m, 4: 2 * a - m}[case]
        k = (q - offset) // (2 * a)
        ea = ea_params(FamilySpec(case, m, k, alpha))
        if (ea.n, ea.kq, ea.d, ea.c) != (n, kq, d, c):
            bad += 1
total = sum(len(rows) for rows in PUBLISHED_ROWS.values())
print(f"   {total - bad}/{total} rows match exactly")
