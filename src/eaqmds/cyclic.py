"""The generator and check polynomials of the family codes over GF(q^2).

Polynomials are (degree + 1, e) int64 arrays of GF(q^2) digits, low
degree first, as in ``_gflinalg``; no matrix is formed.  The primitive
n-th root of unity lam lives in the quadratic tower GF(q^4).  Every
family length n | q^2 + 1 has q^2 = -1 mod n, so every cyclotomic coset
is {i, n - i}, and its minimal polynomial is the quadratic

    (x - lam^i)(x - lam^-i) = x^2 - Tr_i x + 1,   Tr_i = lam^i + lam^-i,

where Tr_i = lam^i + (lam^i)^(q^2) is the trace of lam^i down to GF(q^2)
(the singleton cosets {0} and, for even n, {n/2} give x - 1 and x + 1).
So ``generator_digits`` forms the product over any coset-closed set
without a tower polynomial, reading every trace off one table of lam^0
... lam^(n-1) (``fields._power_table``).  g(x) is the product over Z.
Since x^n - 1 is the product over all cosets, the check polynomial
h = (x^n - 1) / g is the product over the complement of Z, built the
same way; no division is needed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field, _power_table, _powers, _times_matrix
from .cosets import ResidueSet, is_coset_closed


@lru_cache(maxsize=16)
def generator_digits(tower: Field, lam: tuple[int, ...], z: ResidueSet) -> np.ndarray:
    """The product of the minimal polynomials of the cosets of Z, low first.

    A read-only (|Z| + 1, e) digit array over GF(q^2) = ``tower.base``:
    g(x) for the defining set Z, and h(x) for its complement.  ``lam`` is
    the digit tuple of an n-th root of unity in the tower GF(q^4).  Each
    coset {i, n - i} contributes x^2 - Tr_i x + 1 (x - lam^i when i =
    n - i), read off lam's power table; each coefficient is checked to lie
    in GF(q^2) before projection, so a set that is not coset-closed for
    this root fails loudly.  Requires q^2 = -1 mod n and lam^n = 1.
    Memoized on (tower, lam, Z): the rank and G H^T checks build g and h
    once each.
    """
    if tower.base is None:
        raise ValueError("root of unity must live in a tower extension")
    subfield = tower.base
    n = z.n
    qsq = subfield.order % n
    if not is_coset_closed(n, qsq, z):
        raise ValueError("defining set is not a union of cyclotomic cosets")
    if (qsq + 1) % n:
        raise ValueError(f"q^2 is not -1 mod {n}; the cosets are not {{i, n - i}}")
    p, e = subfield.p, subfield.degree
    lam_n = _powers(_times_matrix(lam, tower), [n], p)[0]
    if not np.array_equal(lam_n, np.eye(2 * e, dtype=np.int64)[0]):
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    powers = _power_table(lam, tower, n)
    reps = z.array[2 * z.array <= n]
    single = reps == -reps % n
    coeff = (powers[reps] + ~single[:, None] * powers[-reps % n]) % p
    escaped = reps[coeff[:, e:].any(axis=1)]
    if escaped.size:
        i = int(escaped[0])
        raise ValueError(
            f"coefficient of coset {sorted({i, -i % n})} escapes the subfield; "
            "the coset is not closed for this root")
    g = np.zeros((1, e), dtype=np.int64)
    g[0, 0] = 1
    for lone, coeff_map in zip(single, _times_matrix(coeff[:, :e], subfield)):
        scaled = g @ coeff_map
        out = np.zeros((len(g) + (1 if lone else 2), e), dtype=np.int64)
        if lone:                         # x - lam^i
            out[1:] += g
            out[:-1] -= scaled
        else:                            # x^2 - Tr_i x + 1
            out[:-2] += g
            out[1:-1] -= scaled
            out[2:] += g
        g = out % p
    g.setflags(write=False)
    return g
