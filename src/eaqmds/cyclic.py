"""The generator and check polynomials of the family codes over GF(q^2).

Polynomials are (degree + 1, e) int64 arrays of GF(q^2) digits, low
degree first, as in ``_gflinalg``; no matrix is formed.  The primitive
n-th root of unity lam lives in the quadratic tower GF(q^4).  Every
family length n | q^2 + 1 has q^2 = -1 mod n, so every cyclotomic coset
is {i, n - i}, and its minimal polynomial is the quadratic

    (x - lam^i)(x - lam^-i) = x^2 - Tr_i x + 1,   Tr_i = lam^i + lam^-i,

where Tr_i = lam^i + (lam^i)^(q^2) is the trace of lam^i down to GF(q^2).
So ``generator_digits`` forms g(x) as a product of |Z|/2 quadratics, one
multiply each, without a tower polynomial, and ``check_digits`` divides
x^n - 1 by it, reducing mod p only the leading coefficients it reads and
the final remainder (exact while min(len g, n - deg g + 1)*e*(p-1)^2 <
2^63, checked).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _gflinalg as gfa
from .fields import Field, FieldElement, _matrix_power, _times_matrix
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
def generator_digits(lam: FieldElement, z: ResidueSet) -> np.ndarray:
    """g(x) as a read-only (|Z| + 1, e) digit array over GF(q^2), low first.

    Each coset {i, n - i} of Z contributes x^2 - Tr_i x + 1 (x - lam^i
    when i = n - i), and its coefficient is checked to lie in GF(q^2)
    before projection, so a set that is not coset-closed for this root
    fails loudly.  Requires
    q^2 = -1 mod n and lam^n = 1.  Memoized on (lam, Z), so the oracle's
    rank and G H^T checks build g once per spec.
    """
    tower = lam.field
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
    step = _times_matrix(lam)
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
        scaled = g @ gfa.scalar_matrix(coeff[:e], subfield)
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


def check_digits(g: np.ndarray, field: Field, n: int) -> np.ndarray:
    """h(x) = (x^n - 1) / g(x) by long division on digits; g must be monic.

    The map c -> c g is built once, as an (e, len g * e) matrix of reduced
    digits.  Each step reduces only the leading coefficient c it reads and
    subtracts c g, at most e(p-1)^2 a digit, from the remainder unreduced;
    the remainder is reduced once, for the divisibility test.  A remainder
    digit takes at most min(len g, n - deg g + 1) subtractions, so the
    division raises ``ValueError`` unless that count times e(p-1)^2 is
    below 2^63, and raises unless the remainder is zero.
    """
    p, e = field.p, field.degree
    dg = len(g) - 1
    if not 0 <= dg <= n or g[-1, 0] != 1 or g[-1, 1:].any():
        raise ValueError("generator must be monic of degree at most n")
    if min(dg + 1, n - dg + 1) * e * (p - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"exact int64 division needs min(len g, n - deg g + 1)*e*(p-1)^2 < 2^63; "
            f"got deg g = {dg}, n = {n}, e = {e}, p = {p}")
    times_g = (g @ gfa.reduction_tensor(field)).reshape(e, -1) % p
    rem = np.zeros((n + 1, e), dtype=np.int64)
    rem[0, 0] = p - 1
    rem[n, 0] = 1
    quot = np.zeros((n - dg + 1, e), dtype=np.int64)
    for i in range(n, dg - 1, -1):
        c = rem[i] % p
        if not c.any():
            continue
        quot[i - dg] = c
        rem[i - dg:i + 1] -= (c @ times_g).reshape(dg + 1, e)
    if (rem[:dg] % p).any():
        raise ValueError("generator does not divide x^n - 1")
    return quot
