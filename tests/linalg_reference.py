"""Reference digit-array linear algebra over GF(p^e), for tests only.

These are the int64 kernels the package used before its float64 BLAS
path: the product is one ``tensordot`` per digit against the multiplication
tensor, and rank is column-by-column Gaussian elimination with field
inverses taken on ``field_reference.FieldElement`` objects.  The BLAS
product of ``_gflinalg`` (``_gemm`` reduced mod p) and its rank must
agree with them exactly.  Below them: the explicit generator and
parity-check matrices the rank oracle no longer forms, and the conjugate
transpose two ways: with the Frobenius matrix of ``_gflinalg`` on whole
digit arrays, and entry by entry on ``FieldElement`` objects.
"""

import numpy as np

from eaqmds._gflinalg import frobenius_matrix
from eaqmds.fields import mul_tensor
from field_reference import object_field


def matmul_digits(a, b, field):
    """Exact product of digit matrices over the field, reduced mod p."""
    t = mul_tensor(field)
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
    t = mul_tensor(field)
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
            pe = object_field(field).from_digits(a[rank, col])
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
    """(k, n, e) generator matrix, k = n - deg g: row i holds x^i g(x)."""
    k = n - (len(g) - 1)
    if k < 1:
        raise ValueError("generator degree leaves no dimension")
    return _toeplitz(g, k, n)


def parity_check_digits(h, n):
    """(n - deg h, n, e) parity-check matrix from the check polynomial h.

    Row i is the reversed h_k, ..., h_0 shifted i places, the standard
    cyclic-code choice.
    """
    return _toeplitz(h[::-1], n - (len(h) - 1), n)


# ---------------------------------------------------------------------------
# element-wise conjugation


def conjugate_transpose_digits(a, field, q):
    """Transpose with entry-wise q-th power, by the Frobenius matrix."""
    return np.einsum("wu,iju->jiw", frobenius_matrix(field, q), a) % field.p


def conjugate_transpose(a, field, q):
    """H†: the transpose of a digit matrix, each entry raised to the q-th
    power as a ``FieldElement``."""
    objects = object_field(field)
    out = np.empty((a.shape[1], a.shape[0], field.degree), dtype=np.int64)
    for i, row in enumerate(a):
        for j, cell in enumerate(row):
            out[j, i] = (objects.from_digits(cell) ** q).coeffs
    return out
