"""Independent verification of the entanglement count via rank(H H†).

The decomposition route counts c = |Z1| with pure residue arithmetic;
this module recomputes c as the rank of H H† over GF(q^2), where H is the
parity-check matrix of the actual cyclic code and H† its conjugate
transpose (the Wilde-Brun entanglement formula).  The two routes share no
code path, so their agreement checks the decomposition lemma against the
matrix-rank characterization.

The oracle runs on digit arrays and never forms H.  x^n - 1 is the
product of the x - lam^j over all j mod n, so h = (x^n - 1) / g is the
product over the complement of Z, one cyclic run like Z, built in closed
form by ``cyclic.generator_digits`` (q-binomial theorem) as g is from Z.
H's rows are shifts of the reversed h, so H H† is the Hermitian Toeplitz
band of h's autocorrelation (``gram_digits``), and G G† is the same band
of g's.  C and its Euclidean dual have Hermitian hulls of one dimension
(conjugation maps one hull onto the other), so

    rank(H H†) = rank(G G†) + 2 deg g - n

(Guenda, Jitman and Gulliver, Des. Codes Cryptogr. 86, 2018).  A
polynomial of degree d gives a Gram matrix of n - d rows, so the rank
route builds only the longer of g and h (h on a tie) and ranks the
smaller matrix.  G H^T = 0 says that g h has no terms of degrees
1 .. n - 1; since g and h are two separately built products, and not a
quotient and its divisor, that check can fail.

Elimination stays cubic in the worst case, so the oracle refuses lengths
above a guard (default 300); larger family instances are covered by the
closed-form versus decomposition equality only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _gflinalg as gfa
from .cosets import ResidueSet, _check_int64_products, decompose
from .cyclic import generator_digits
from .families import FamilySpec, build_defining_set, closed_form
from .fields import GF, Field, nth_root_of_unity, prime_power_base, quadratic_extension

DEFAULT_N_MAX = 300


class OracleSizeError(ValueError):
    """Raised when an instance exceeds the rank oracle's size guard."""


@lru_cache(maxsize=32)
def code_context(q: int, n: int) -> tuple[Field, Field, tuple[int, ...]]:
    """(GF(q^2), its quadratic tower GF(q^4), the digits of the canonical
    primitive n-th root of unity in the tower)."""
    p = prime_power_base(q)
    if p is None:
        raise ValueError(f"q = {q} is not a prime power")
    j = 0
    x = q
    while x > 1:
        x //= p
        j += 1
    subfield = GF(p, 2 * j)
    tower = quadratic_extension(subfield)
    lam = nth_root_of_unity(tower, n)
    return subfield, tower, lam


@dataclass(frozen=True)
class RankReport:
    """Outcome of the rank route versus the decomposition route."""

    rank_hh_dagger: int
    z1_size: int
    closed_form_c: int

    @property
    def match(self) -> bool:
        return self.rank_hh_dagger == self.z1_size

    @property
    def matches_closed_form(self) -> bool:
        return self.rank_hh_dagger == self.closed_form_c


def _code(spec: FamilySpec) -> tuple[Field, tuple[int, ...], ResidueSet]:
    """(GF(q^4), the n-th root of unity lam in it, Z) of the instance's
    code: g is ``generator_digits(tower, lam, Z)`` and h the same over Z's
    complement."""
    _, tower, lam = code_context(spec.q, spec.n)
    return tower, lam, build_defining_set(spec)


def gram_digits(h: np.ndarray, field: Field, q: int, n: int) -> np.ndarray:
    """The Gram matrix of the n - k shifts of the reversed h, as a read-only
    (n - k, n - k, e) view.

    Any polynomial h of degree k < n serves: the check polynomial gives
    H H†, and the generator polynomial g gives (G G†)^T, whose rank is
    rank(G G†).  Row i is h~ = h_k, ..., h_0 shifted i places, so entry
    (i, j) is r_(i-j) with r_d = sum_t h~_t conj(h~_(t+d)), zero for
    |d| > k.  r is one product, h~ times the reversed conjugate of h~
    (that is, the conjugate of h), with r_d at index k - d; the matrix is
    a strided view of its band.
    """
    k = len(h) - 1
    rows, band = n - k, min(k, n - k - 1)
    conj = h @ gfa.frobenius_matrix(field, q).T % field.p
    r = gfa.polymul_digits(h[::-1], conj, field)
    diag = np.zeros((2 * rows - 1, field.degree), dtype=np.int64)
    diag[rows - 1 - band:rows + band] = r[k - band:k + band + 1]  # r_-s at rows-1+s
    return sliding_window_view(diag, rows, axis=0)[::-1].transpose(0, 2, 1)


def entanglement_rank(spec: FamilySpec, n_max: int = DEFAULT_N_MAX) -> RankReport:
    """Compute rank(H H†) for the instance's code and compare with |Z1|.

    Ranks the smaller of H H† and G G†: when deg g = |Z| > n/2 it builds
    g only and adds 2 deg g - n, the degree read off the polynomial it
    ranked.  Raises OracleSizeError when n exceeds ``n_max``, and, before
    any field is built, ``cosets._check_int64_products``'s ExactnessError
    when q*n >= 2^63.
    """
    n, q = spec.n, spec.q
    if n > n_max:
        raise OracleSizeError(
            f"n = {n} exceeds the rank oracle guard n_max = {n_max}")
    _check_int64_products(q, n)  # refuses q*n >= 2^63 up front
    tower, lam, z = _code(spec)
    g_side = 2 * len(z) > n
    poly = generator_digits(tower, lam, z if g_side else z.complement())
    rank = gfa.rank_digits(gram_digits(poly, tower.base, q, n), tower.base)
    if g_side:
        rank += 2 * (len(poly) - 1) - n
    return RankReport(rank_hh_dagger=rank, z1_size=len(decompose(n, q, z)),
                      closed_form_c=closed_form(spec).c)


def generator_parity_orthogonal(spec: FamilySpec) -> bool:
    """Exact check that G H^T = 0 for the instance's code (plain transpose).

    (G H^T)_ij = (g h)_(k + j - i) for i < k = deg h and j < n - k, so the
    check is that g h has no terms of degrees 1 .. n - 1.  g is built from
    Z and h from its complement (the rank route built the longer one), so
    a wrong factor on either side shows.
    """
    tower, lam, z = _code(spec)
    g = generator_digits(tower, lam, z)
    h = generator_digits(tower, lam, z.complement())
    return not gfa.polymul_digits(g, h, tower.base)[1:spec.n].any()
