"""The generator and check polynomials of the family codes over GF(q^2).

Polynomials are (degree + 1, e) int64 arrays of GF(q^2) digits, low first,
as in ``_gflinalg``; the primitive n-th root of unity lam lies in GF(q^4).
A family defining set Z is one cyclic run of exponents, and so is its
complement.  Over a run L ... L + m - 1, m < n, the q-binomial theorem
(Andrews, The Theory of Partitions, Thm 3.3) gives, with the lam-factorials
P_j = prod_{i=1..j} (1 - lam^i),

    prod_j (x - lam^j) = sum_k (-1)^k lam^(Lk + k(k-1)/2) [m k] x^(m-k),
    [m k] = P_m / (P_k P_(m-k)).

P_(n-1) = n for a primitive lam, so P_j^-1 = (-1)^(n-1-j) lam^(-(n-1-j)(n-j)/2)
P_(n-1-j) / n: nothing is inverted and each run comes out monic.  One cached
table per (tower, lam, n) holds lam^0 ... lam^n and P_0 ... P_(n-1), from one
prefix scan, for every run of g (over Z) and h (over Z's complement); each
run must vanish at lam^L.  Other coset-closed sets are split into maximal
cyclic runs, multiplied in the tower (``_gflinalg.polymul_digits``).
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce

import numpy as np

from ._gflinalg import _mod, polymul_digits
from .fields import Field, _exact, _power_table, _times_matrix, mul_tensor
from .cosets import ResidueSet, is_coset_closed


@lru_cache(maxsize=2)
def _root_table(tower: Field, lam: tuple[int, ...], n: int):
    """Read-only digits of lam^0 ... lam^n and P_0 ... P_(n-1) of a primitive lam."""
    p, powers = tower.p, _power_table(lam, tower, n + 1)
    if not np.array_equal(powers[n], powers[0]):
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    fact = np.vstack([powers[:1], (powers[0] - powers[1:n]) % p])  # row i: 1 - lam^i
    _scan(fact, tower)
    if not np.array_equal(fact[n - 1], n * powers[0] % p):
        raise ValueError(f"element is not a primitive n-th root of unity for n = {n}")
    powers.setflags(write=False)
    fact.setflags(write=False)
    return powers, fact


def _times(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """a_i b_i for (k, dim) stacks of digits in [0, p): float64 outer products
    by ``mul_tensor``, reduced by ``_mod``, in blocks of at most 2^20 digits."""
    p, dim, out = field.p, a.shape[1], np.empty_like(a)
    _exact(dim * dim * (p - 1) ** 3, f"dim^2*(p-1)^3 (dim = {dim}, p = {p})")
    t, rows = mul_tensor(field).reshape(-1, dim).astype(np.float64), 2**20 // dim**2
    for i in range(0, len(a), rows):
        block = slice(i, i + rows)
        outer = np.multiply(a[block, :, None], b[block, None], dtype=np.float64)
        _mod(outer.reshape(-1, dim * dim) @ t, p, out[block])
    return out


def _scan(x: np.ndarray, field: Field) -> None:
    """Prefix products of a (k, dim) digit stack, in place, by pairs (Blelloch)."""
    if len(x) > 1:
        odd = x[1::2]                            # odd[i] = x_(2i) x_(2i+1), then
        odd[:] = _times(x[:-1:2], odd, field)    # x_0 ... x_(2i+1) by recursion
        _scan(odd, field)
        x[2::2] = _times(x[2::2], odd[:(len(x) - 1) // 2], field)


def _run_product(table: tuple, start: int, m: int, tower: Field) -> np.ndarray:
    """prod_{j<m} (x - lam^(start+j)), m < n, low first, in the tower."""
    (powers, fact), p, n = table, tower.p, len(table[1])
    k = np.arange(m + 1)
    c = powers[(start * k + (k * (k - 1) - (n - 1 - k) * (n - k)
                             - (n - 1 - m + k) * (n - m + k)) // 2) % n]
    c = _times(_times(c, fact[n - 1 - k], tower), fact[n - 1 - m + k], tower)
    c[(m + 1) % 2::2] *= -1                      # the sign (-1)^(k + m)
    return (c @ _times_matrix(fact[m] * pow(n, -2, p) % p, tower) % p)[::-1]


@lru_cache(maxsize=16)
def generator_digits(tower: Field, lam: tuple[int, ...], z: ResidueSet) -> np.ndarray:
    """The product of the x - lam^j over the members j of Z, low first.

    A read-only (|Z| + 1, e) digit array over GF(q^2) = ``tower.base``: g(x)
    for Z, h(x) for its complement.  A coefficient outside GF(q^2) (a set not
    coset-closed for this root) or a run whose product does not vanish at its
    first root fails loudly.  Requires q^2 = -1 mod n; memoized on (tower, lam, Z).
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
    powers, fact = _root_table(tower, lam, n)
    # the maximal runs [head, end): the edges of the span between two False slots
    w = z.window(z.lo - 1, z.span.size + 1)
    edges = (np.flatnonzero(np.diff(w)) + z.lo).tolist()
    runs = [(head, end - head) for head, end in zip(edges[::2], edges[1::2])]
    if len(runs) > 1 and edges[0] == 0 and edges[-1] == n:
        first = runs.pop(0)                      # the last run wraps into the first
        runs[-1] = (runs[-1][0], runs[-1][1] + first[1])
    if runs == [(0, n)]:                         # 1 - lam^n = 0: split the full run
        runs = [(1, n - 1), (0, 1)]
    parts = []
    for s, m in runs:            # u(lam^s) = 0, from the (dim, dim) digit sums of u^T
        parts.append(_run_product((powers, fact), s, m, tower))
        sums = parts[-1].T @ powers[s * np.arange(m + 1) % n] % p
        if (sums.reshape(-1) @ mul_tensor(tower).reshape(sums.size, -1) % p).any():
            raise ValueError(f"the product over the run {s} ... {s + m - 1} mod {n} "
                             f"does not vanish at lam^{s}")
    u = reduce(partial(polymul_digits, field=tower), parts or [powers[:1]])
    escaped = np.flatnonzero(u[:, e:].any(axis=1))
    if escaped.size:
        raise ValueError(f"coefficient of x^{int(escaped[0])} escapes the subfield; "
                         "the set is not coset-closed for this root")
    g = np.ascontiguousarray(u[:, :e])
    g.setflags(write=False)
    return g
