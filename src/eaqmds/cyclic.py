"""The generator and check polynomials of the family codes over GF(q^2).

Polynomials are (degree + 1, e) int64 arrays of GF(q^2) digits, low
degree first, as in ``_gflinalg``.  The primitive n-th root of unity lam
lives in the quadratic tower GF(q^4).  A family defining set Z is one
cyclic run of exponents, and so is its complement.  Over a run L ...
L + m - 1, m < n, the q-binomial theorem (Andrews, The Theory of
Partitions, Thm 3.3) gives, with S_t = prod_{i=t..m} (1 - lam^i),

    prod_j (x - lam^j) = sum_k (-1)^k lam^(Lk + k(k-1)/2) [m k] x^(m-k),
    [m k] = S_(k+1) S_(m-k+1) / S_1.

Since q^2 = -1 mod n, conj(S_1) = S_1^(q^2) = (-1)^m lam^(-m(m+1)/2) S_1,
so S_1^-1 = conj(S_1) / N with the norm N = S_1 conj(S_1) in GF(q^2),
whose inverse map is tabled (``_gflinalg.inverse_table``).  Every S_t
comes from one suffix-product scan over one table of lam^0 ... lam^n.
Other coset-closed sets are split into maximal cyclic runs, multiplied in
the tower (``_gflinalg.polymul_digits``).  g is the product over Z and
h = (x^n - 1) / g the product over Z's complement; no division is needed.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce

import numpy as np

from ._gflinalg import inverse_table, polymul_digits
from .fields import Field, _power_table, _times_matrix, mul_tensor
from .cosets import ResidueSet, is_coset_closed


@lru_cache(maxsize=2)
def _root_powers(tower: Field, lam: tuple[int, ...], n: int) -> np.ndarray:
    """Read-only digits of lam^0 ... lam^n, once lam^n = 1 is checked."""
    powers = _power_table(lam, tower, n + 1)
    if not np.array_equal(powers[n], powers[0]):
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    powers.setflags(write=False)
    return powers


def _times(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """The products a_i b_i of two (k, dim) digit stacks, by ``mul_tensor``."""
    outer = (a[:, :, None] * b[:, None]).reshape(len(a), -1)
    return outer @ mul_tensor(field).reshape(-1, a.shape[1]) % field.p


def _run_product(powers: np.ndarray, start: int, m: int, tower: Field) -> np.ndarray:
    """N prod_{j<m} (x - lam^(start+j)), m < n, low first, in the tower;
    conj(S_1) is folded into the power of lam and the sign."""
    p, n = tower.p, len(powers) - 1
    s = np.vstack([(powers[0] - powers[1:m + 1]) % p, powers[:1]])  # row i: S_(i+1)
    shift = 1
    while shift < m:
        s[:-shift] = _times(s[:-shift], s[shift:], tower)
        shift *= 2
    k = np.arange(m + 1)
    c = powers[(start * k + (k * (k - 1) - m * (m + 1)) // 2) % n]
    c[(m + 1) % 2::2] *= -1                      # the sign (-1)^(k + m)
    c = _times(_times(c, s, tower), s[::-1], tower)
    return (c @ _times_matrix(s[0], tower) % p)[::-1]


@lru_cache(maxsize=16)
def generator_digits(tower: Field, lam: tuple[int, ...], z: ResidueSet) -> np.ndarray:
    """The product of the x - lam^j over the members j of Z, low first.

    A read-only (|Z| + 1, e) digit array over GF(q^2) = ``tower.base``:
    g(x) for Z, h(x) for its complement; ``lam`` is a primitive n-th root
    of unity in the tower.  Every coefficient must lie in GF(q^2), so a
    set not coset-closed for this root fails loudly.  Requires q^2 = -1
    mod n, lam^n = 1 and no lam^j = 1 in a run.  Memoized on (tower, lam, Z).
    """
    if tower.base is None:
        raise ValueError("root of unity must live in a tower extension")
    subfield, n = tower.base, z.n
    qsq = subfield.order % n
    if not is_coset_closed(n, qsq, z):
        raise ValueError("defining set is not a union of cyclotomic cosets")
    if (qsq + 1) % n:
        raise ValueError(f"q^2 is not -1 mod {n}; the cosets are not {{i, n - i}}")
    p, e = subfield.p, subfield.degree
    powers = _root_powers(tower, lam, n)
    a = z.array                  # maximal cyclic runs; a negative index wraps
    heads, ends = a[~z.mask[a - 1]], a[~z.mask[a + 1 - n]]
    if ends.size and ends[0] < heads[0]:         # the last run wraps into the first
        ends = np.roll(ends, -1)
    runs = zip(heads.tolist(), ((ends - heads) % n + 1).tolist())
    if len(z) == n:                              # 1 - lam^n = 0: split the full run
        runs = [(1, n - 1), (0, 1)]
    u = reduce(partial(polymul_digits, field=tower),
               [_run_product(powers, s, m, tower) for s, m in runs] or [powers[:1]])
    if not u[-1].any():
        raise ValueError(f"element is not a primitive n-th root of unity for n = {n}")
    escaped = np.flatnonzero(u[:, e:].any(axis=1))
    if escaped.size:
        raise ValueError(f"coefficient of x^{int(escaped[0])} escapes the subfield; "
                         "the set is not coset-closed for this root")
    g = u[:, :e] @ inverse_table(subfield)[u[-1, :e] @ p ** np.arange(e)] % p  # u / N
    g.setflags(write=False)
    return g
