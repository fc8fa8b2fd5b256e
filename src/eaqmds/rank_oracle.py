"""Independent verification of the entanglement count via rank(H H†).

The decomposition route counts c = |Z1| with pure residue arithmetic;
this module recomputes c as the rank of H H† over GF(q^2), where H is the
parity-check matrix of the actual cyclic code and H† its conjugate
transpose (the Wilde-Brun entanglement formula).  The two routes share no
code path, so their agreement checks the decomposition lemma against the
matrix-rank characterization.

The oracle runs on digit arrays from start to finish: g(x) is built as a
product of one quadratic x^2 - Tr_i x + 1 per coset {i, n - i} of Z
(q^2 = -1 mod n makes every coset such a pair, and Tr_i = lam^i + lam^-i
lies in GF(q^2)), h = (x^n - 1) / g by digit long division, and H and G as
Toeplitz digit arrays; see ``cyclic``.  g and h are built once per spec
(``_code_digits``) and shared by the rank and the G H^T check; H is a
scatter of h, rebuilt by each and dropped before the rank runs.  The
object-level builders there (``generator_polynomial``,
``parity_check_matrix``) are the reference the digit builders are tested
against, and ``family_generator_polynomial`` reaches them for a family
instance.

Exact elimination is O(n^3), so the oracle refuses lengths above a guard
(default 300); larger family instances are covered by the closed-form
versus decomposition equality only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _gflinalg as gfa
from .cosets import ResidueSet, decompose
from .cyclic import MatrixGF, Polynomial, check_digits, generator_digits, \
    generator_matrix_digits, generator_polynomial, parity_check_digits
from .families import FamilySpec, build_defining_set, closed_form
from .fields import GF, Field, FieldElement, nth_root_of_unity, prime_power_base, \
    quadratic_extension

DEFAULT_N_MAX = 300


class OracleSizeError(ValueError):
    """Raised when an instance exceeds the rank oracle's size guard."""


def conjugate_transpose(mat: MatrixGF, q: int) -> MatrixGF:
    """H† : transpose with every entry raised to the q-th power."""
    out = []
    for j in range(mat.cols):
        out.append(tuple(mat.entries[i][j] ** q for i in range(mat.rows)))
    return MatrixGF(mat.field, tuple(out))


def rank_gf(mat: MatrixGF) -> int:
    """Row rank by exact Gaussian elimination with field inverses.

    Object-level and deterministic; intended for modest sizes and as the
    reference the vectorized path is checked against.
    """
    rows = [list(r) for r in mat.entries]
    nrows, ncols = mat.rows, mat.cols
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows)
                      if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(rank + 1, nrows):
            f = rows[i][col]
            if not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def fast_rank(mat: MatrixGF) -> int:
    """rank_gf through the vectorized digit path (same elimination order)."""
    return gfa.rank_digits(gfa.to_digits(mat.entries, mat.field), mat.field)


def fast_matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.field != b.field:
        raise ValueError("matrices over different fields")
    c = gfa.matmul_digits(gfa.to_digits(a.entries, a.field),
                          gfa.to_digits(b.entries, b.field), a.field)
    return MatrixGF(a.field, gfa.from_digits(c, a.field))


@lru_cache(maxsize=32)
def code_context(q: int, n: int) -> tuple[Field, Field, FieldElement]:
    """(GF(q^2), its quadratic tower GF(q^4), primitive n-th root of unity)."""
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


def family_generator_polynomial(spec: FamilySpec) -> Polynomial:
    """g(x) of the family instance's cyclic code, over GF(q^2), as objects.

    The reference path; the oracle itself builds g with ``generator_digits``.
    """
    _, _, lam = code_context(spec.q, spec.n)
    record = build_defining_set(spec)
    return generator_polynomial(lam, record.defining_set)


@dataclass(frozen=True)
class RankReport:
    """Outcome of the rank route versus the decomposition route."""

    case: int
    m: int
    q: int
    alpha: int
    n: int
    rank_hh_dagger: int
    z1_size: int
    closed_form_c: int

    @property
    def match(self) -> bool:
        return self.rank_hh_dagger == self.z1_size

    @property
    def matches_closed_form(self) -> bool:
        return self.rank_hh_dagger == self.closed_form_c


@lru_cache(maxsize=16)
def _code_digits(spec: FamilySpec) -> tuple[Field, ResidueSet, np.ndarray, np.ndarray]:
    """(GF(q^2), Z, g, h) of the instance's code; g and h are read-only digits.

    Memoized on the spec.  H is left out: it holds (n - k) x n digits
    against h's k + 1, and a cached copy would stay alive while the rank
    runs.
    """
    subfield, _, lam = code_context(spec.q, spec.n)
    z = build_defining_set(spec).defining_set
    g = generator_digits(lam, z)
    h = check_digits(g, subfield, spec.n)
    h.setflags(write=False)
    return subfield, z, g, h


def entanglement_rank(spec: FamilySpec, n_max: int = DEFAULT_N_MAX) -> RankReport:
    """Compute rank(H H†) for the instance's code and compare with |Z1|.

    Raises OracleSizeError when n exceeds ``n_max``.
    """
    n, q = spec.n, spec.q
    if n > n_max:
        raise OracleSizeError(
            f"n = {n} exceeds the rank oracle guard n_max = {n_max}")
    subfield, z, _, h = _code_digits(spec)
    hd = parity_check_digits(h, n)
    hdag = gfa.conjugate_transpose_digits(hd, subfield, q)
    product = gfa.matmul_digits(hd, hdag, subfield)
    del hd, hdag                # not needed by the rank; free them first
    rank = gfa.rank_digits(product, subfield)

    dec = decompose(n, q, z)
    return RankReport(
        case=spec.case, m=spec.m, q=spec.q, alpha=spec.alpha, n=n,
        rank_hh_dagger=rank,
        z1_size=len(dec.z1),
        closed_form_c=closed_form(spec).c,
    )


def generator_parity_orthogonal(spec: FamilySpec) -> bool:
    """Exact check that G H^T = 0 for the instance's code (plain transpose)."""
    subfield, _, g, h = _code_digits(spec)
    gd = generator_matrix_digits(g, spec.n)
    hd = parity_check_digits(h, spec.n)
    prod = gfa.matmul_digits(gd, hd.transpose(1, 0, 2), subfield)
    return not prod.any()
