"""The generator and check polynomials of the family codes over GF(q^2).

Polynomials are (degree + 1, e) int64 arrays of GF(q^2) digits, low
degree first, as in ``_gflinalg``; no matrix is formed.  The primitive
n-th root of unity lam lives in the quadratic tower GF(q^4).  Every
family length n | q^2 + 1 has q^2 = -1 mod n, so every cyclotomic coset
is {i, n - i}, and its minimal polynomial is the quadratic

    (x - lam^i)(x - lam^-i) = x^2 - Tr_i x + 1,   Tr_i = lam^i + lam^-i,

where Tr_i = lam^i + (lam^i)^(q^2) is the trace of lam^i down to GF(q^2)
(the singleton cosets {0} and, for even n, {n/2} give x - 1 and x + 1).
So ``generator_digits`` forms the product over any coset-closed set as
one multiply per coset, without a tower polynomial.  g(x) is the product
over Z.  Since x^n - 1 is the product over all cosets, the check
polynomial h = (x^n - 1) / g is the product over the complement of Z,
built the same way; no division is needed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field, _matrix_power, _times_matrix
from .cosets import ResidueSet, is_coset_closed


def _root_pairs(step: np.ndarray, p: int, n: int, reps):
    """Tower digits of (lam^r, lam^-r) for each r of the ascending ``reps``.

    ``step`` is the matrix of x -> x lam, with lam^n = 1, so that lam^-r =
    lam^(n-r).  Consecutive representatives cost one step each way: a
    multiply of the previous digits by ``step`` or by its inverse
    ``step^(n-1)``.
    """
    one = np.zeros(len(step), dtype=np.int64)
    one[0] = 1
    down_step = _matrix_power(step, n - 1, p)
    prev = None
    for r in reps:
        if prev is not None and r == prev + 1:
            up = up @ step % p
            down = down @ down_step % p
        else:
            up = one @ _matrix_power(step, r, p)
            down = one @ _matrix_power(step, (n - r) % n, p)
        prev = r
        yield up, down


@lru_cache(maxsize=16)
def generator_digits(tower: Field, lam: tuple[int, ...], z: ResidueSet) -> np.ndarray:
    """The product of the minimal polynomials of the cosets of Z, low first.

    A read-only (|Z| + 1, e) digit array over GF(q^2) = ``tower.base``:
    g(x) for the defining set Z, and h(x) for its complement.  ``lam`` is
    the digit tuple of an n-th root of unity in the tower GF(q^4).  Each
    coset {i, n - i} contributes x^2 - Tr_i x + 1 (x - lam^i when i =
    n - i), and its coefficient is checked to lie in GF(q^2) before
    projection, so a set that is not coset-closed for this root fails
    loudly.  Requires q^2 = -1 mod n and lam^n = 1.  Memoized on
    (tower, lam, Z), so the rank and G H^T checks build h once per spec.
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
    step = _times_matrix(lam, tower)
    if not np.array_equal(_matrix_power(step, n, p), np.eye(2 * e, dtype=np.int64)):
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    reps = [i for i in z.members if 2 * i <= n]
    g = np.zeros((1, e), dtype=np.int64)
    g[0, 0] = 1
    for i, (up, down) in zip(reps, _root_pairs(step, p, n, reps)):
        single = i == (n - i) % n
        coeff = up if single else (up + down) % p
        if coeff[e:].any():
            coset = {i, (n - i) % n}
            raise ValueError(
                f"coefficient of coset {sorted(coset)} escapes the subfield; "
                "the coset is not closed for this root")
        scaled = g @ _times_matrix(coeff[:e], subfield)
        out = np.zeros((len(g) + (1 if single else 2), e), dtype=np.int64)
        if single:                       # x - lam^i
            out[1:] += g
            out[:-1] -= scaled
        else:                            # x^2 - Tr_i x + 1
            out[:-2] += g
            out[1:-1] -= scaled
            out[2:] += g
        g = out % p
    g.setflags(write=False)
    return g
