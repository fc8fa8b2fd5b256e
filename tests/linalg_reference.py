"""Reference digit-array linear algebra over GF(p^e), for tests only.

These are the int64 kernels the package used before its float64 BLAS
path: the product is one ``tensordot`` per digit against the reduction
tensor, and rank is column-by-column Gaussian elimination with field
inverses taken on ``FieldElement`` objects.  ``_gflinalg`` must agree
with them exactly.  Below them: the explicit generator and parity-check
matrices the rank oracle no longer forms, and the object-level
``MatrixGF`` conjugate transpose, rank and digit-path product.
"""

import numpy as np

from eaqmds import _gflinalg as gfa
from eaqmds._gflinalg import reduction_tensor
from eaqmds.cyclic import MatrixGF
from eaqmds.fields import FieldElement


def matmul_digits(a, b, field):
    """Exact product of digit matrices over the field, reduced mod p."""
    t = reduction_tensor(field)
    e = field.degree
    rows, inner = a.shape[0], a.shape[1]
    cols = b.shape[1]
    if b.shape[0] != inner:
        raise ValueError("incompatible shapes")
    out = np.zeros((rows, cols, e), dtype=np.int64)
    for u in range(e):
        bu = np.tensordot(b, t[u], axes=(2, 0))      # (inner, cols, e)
        out += np.tensordot(a[:, :, u], bu, axes=(1, 0))
    return out % field.p


def _columns(a, field):
    """Column-by-column elimination, yielding (rank, col, matrix) per column.

    The pivot is the first nonzero row at or below the current rank,
    swapped into place; pivot rows are normalized with exact field
    inverses and cleared from every row below.
    """
    t = reduction_tensor(field)
    p = field.p
    a = a.copy() % p
    rows, cols = a.shape[0], a.shape[1]
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, col].any(axis=1))[0]
        if nz.size:
            pivot = rank + int(nz[0])
            if pivot != rank:
                a[[rank, pivot]] = a[[pivot, rank]]
            pe = FieldElement(field, tuple(int(d) for d in a[rank, col]))
            inv = np.asarray(pe.inverse().coeffs, dtype=np.int64)
            a[rank] = (a[rank] @ np.einsum("v,uvw->uw", inv, t)) % p
            below = a[rank + 1:, col]
            live = np.nonzero(below.any(axis=1))[0]
            if live.size:
                factors = a[rank + 1 + live, col]                    # (L, e)
                pt = np.einsum("jv,uvw->ujw", a[rank], t)             # (e, cols, e)
                out = np.tensordot(factors, pt, axes=(1, 0))          # (L, cols, e)
                a[rank + 1 + live] = (a[rank + 1 + live] - out) % p
            rank += 1
        yield rank, col, a


def elimination_states(a, field):
    """(rank, remaining rows x later columns) after each column processed."""
    return [(rank, m[rank:, col + 1:].copy()) for rank, col, m in _columns(a, field)]


def rank_digits(a, field):
    """Row rank by the column-by-column elimination."""
    rank = 0
    for rank, _, _ in _columns(a, field):
        pass
    return rank


# ---------------------------------------------------------------------------
# explicit matrices of a cyclic code: the reference for the Gram builder
# and for the g h check of the rank oracle


def _toeplitz(coeffs, rows, n):
    """(rows, n, e) array whose row r holds ``coeffs`` from column r on."""
    out = np.zeros((rows, n, coeffs.shape[1]), dtype=np.int64)
    r = np.arange(rows)[:, None]
    out[r, r + np.arange(len(coeffs))[None, :]] = coeffs
    return out


def generator_matrix_digits(g, n):
    """``cyclic.generator_matrix`` as a (k, n, e) digit array, k = n - deg g."""
    k = n - (len(g) - 1)
    if k < 1:
        raise ValueError("generator degree leaves no dimension")
    return _toeplitz(g, k, n)


def parity_check_digits(h, n):
    """``cyclic.parity_check_matrix`` as a (n - deg h, n, e) digit array.

    Built from the check polynomial h: row i is the reversed h_k, ..., h_0
    shifted i places.
    """
    return _toeplitz(h[::-1], n - (len(h) - 1), n)


# ---------------------------------------------------------------------------
# object-level matrices


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


def fast_matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Product of object-level matrices through ``_gflinalg.matmul_digits``."""
    if a.field != b.field:
        raise ValueError("matrices over different fields")
    c = gfa.matmul_digits(gfa.to_digits(a.entries, a.field),
                          gfa.to_digits(b.entries, b.field), a.field)
    return MatrixGF(a.field, gfa.from_digits(c, a.field))
