"""Reference digit-array linear algebra over GF(p^e), for tests only.

These are the int64 kernels the package used before its float64 BLAS
path: the product is one ``tensordot`` per digit against the reduction
tensor, and rank is column-by-column Gaussian elimination with field
inverses taken on ``FieldElement`` objects.  ``_gflinalg`` must agree
with them exactly.
"""

import numpy as np

from eaqmds._gflinalg import reduction_tensor
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
