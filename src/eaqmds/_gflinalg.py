"""Exact linear algebra over GF(p^e) on float64 BLAS, internal.

Matrices over a single-level extension field are flattened to int64
arrays of shape (rows, cols, e) holding the polynomial-basis digits mod
p, in [0, p).  Field multiplication is contraction against a fixed
reduction tensor T with T[u, v] = digits(x^(u+v) mod modulus), so the
map x -> x b of one entry b is an e x e matrix over GF(p).

Products run as float64 GEMM (``_gemm``): the right factor is expanded
into the (inner*e x cols*e) matrix of its entries' multiplication maps,
reduced mod p, and one BLAS call multiplies the left factor's digits
into it.  Every product and partial sum is an integer below
inner*e*(p-1)^2, so the result is exact as long as that bound is below
2^53; ``_gemm`` raises ``ValueError`` when it is not.  It returns
those sums unreduced, as float64: the Schur update of ``rank_digits``
adds them to the rows they update and reduces the total once.
Polynomials are (length, e) digit arrays; ``polymul_digits`` multiplies
two with e^2 int64 convolutions of digit planes.

Rank is blocked Gaussian elimination (the FFLAS/FFPACK design of Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).  Each panel of ``_PANEL``
columns is eliminated on int64 digits with the deterministic rule (the
pivot is the first nonzero row of the column, swapped into place), while
the panel also records each remaining row's coefficients C = -rest_J S_J^-1
over the pivot rows S.  The remaining rows are then replaced by the Schur
complement rest_T + C S_T, one ``_gemm``; that is exactly the state the
column-by-column loop would leave, so the pivot sequence is unchanged.
The candidate row is tested first: the digit index of its reduced entry
is both the zero test and the index into ``inverse_table``, the
per-field table of the maps x -> x c^-1 that normalizes a pivot, and
only a zero candidate makes the column be searched and a row swapped up.
Pivot k's row operations stop at its last live coefficient column,
w + k.  Panels and updates stop at the last nonzero row and column, so a
banded matrix costs only its band, and the elimination stops at the
first panel without a live row once the rows left are all zero: past
the last pivot there is nothing to find.

Reduction mod p is delayed, as in FFLAS/FFPACK.  Inside a panel the rows
below the pivots take their updates unreduced, and digits are reduced
only where a value must be exact: the column scanned for the next pivot
(the zero test and the table index), the pivot row before it is
normalized, and the coefficient record once per panel before ``_gemm``
reads it.  Each update subtracts a product of reduced digits, at most
e(p-1)^2, and a panel has at most ``_PANEL`` pivots, so every digit stays
in (-_PANEL*e*(p-1)^2, p); ``rank_digits`` raises ``ValueError`` unless
_PANEL*e*(p-1)^2 < 2^63.  The rows outside the panels stay in [0, p):
the Schur update adds them to ``_gemm``'s sums in float64 and reduces
the total as it is written back (``_mod``), as ``_gemm`` reduces its
expanded right factor.  That total is at most k*e*(p-1)^2 + p - 1 for
k pivots, below 2^53 whenever ``_gemm``'s guard k*e*(p-1)^2 < 2^53
holds (checked over every prime p: the only exceptions need
k*e > 6*10^10).  Below 2^53 a correctly rounded x/p is off by less than
1/p, the least distance from x/p to the next integer, so its floor is
exact, and x - p*floor(x/p) is x mod p with no correction step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field, _power_table, _powers, _times_matrix, \
    find_primitive_element, mul_tensor

_PANEL = 16                 # columns eliminated per panel of rank_digits
_EXACT = 1 << 53            # float64 holds every integer below this


def _require_flat(field: Field):
    if field.base is not None or field.degree < 1:
        raise ValueError("digit representation needs a single-level field")


def reduction_tensor(field: Field) -> np.ndarray:
    """T[u, v, :] = digits of x^(u+v) reduced by the field modulus."""
    _require_flat(field)
    return mul_tensor(field)


@lru_cache(maxsize=None)
def frobenius_matrix(field: Field, q: int) -> np.ndarray:
    """Matrix of x -> x^q on the digit representation (a GF(p)-linear map).

    Column i holds the digits of b_i^q, b_i = x^i the i-th basis element:
    row 0 of the q-th power of b_i's multiplication map (``fields._powers``).
    So conj(a) = a @ M.T on a digit array a.  Cached and read-only.
    """
    _require_flat(field)
    frob = _powers(mul_tensor(field), [q], field.p)[0].T
    frob.flags.writeable = False
    return frob


@lru_cache(maxsize=None)
def inverse_table(field: Field) -> np.ndarray:
    """Read-only (order, e, e) table: at the index digits(c) . p^arange(e)
    of a unit c, the map x -> x c^-1 (``fields._times_matrix`` of c^-1).

    Built once per field from the powers g^j of the canonical primitive
    element (``fields._power_table``).  The entry at index(g^j) holds the
    map of g^-j, whose row 0 is the digits of g^-j.  Entry 0 (zero has no
    inverse) stays zero and is never read.  The table holds order*e^2
    int64 digits.
    """
    _require_flat(field)
    p, e, units = field.p, field.degree, field.order - 1
    powers = _power_table(find_primitive_element(field), field, units)
    table = np.zeros((field.order, e, e), dtype=np.int64)
    inverses = powers[-np.arange(units) % units]
    table[powers @ p ** np.arange(e)] = _times_matrix(inverses, field)
    table.flags.writeable = False
    return table


def _reduced(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` itself when its digits already lie in [0, p), else a % p."""
    if a.size and (a.min() < 0 or a.max() >= p):
        return a % p
    return a


def _mod(x: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """x mod p, exactly, for float64 integers 0 <= x < 2^53 (see the module
    notes), written to ``out``: float64, possibly ``x`` itself, or int64."""
    quot = x / p
    np.floor(quot, out=quot)
    quot *= p
    return np.subtract(x, quot, out=out, casting="unsafe")


def _gemm(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """Exact product of digit matrices with digits in [0, p), via float64 BLAS.

    The result is float64 and left unreduced: each digit is the exact
    integer sum, in [0, inner*e*(p-1)^2], of products of reduced digits.
    """
    t = reduction_tensor(field)
    p, e = field.p, field.degree
    rows, inner = a.shape[0], a.shape[1]
    cols = b.shape[1]
    if b.shape[0] != inner:
        raise ValueError("incompatible shapes")
    if inner * e * (p - 1) ** 2 >= _EXACT:
        raise ValueError(
            f"exact float64 product needs inner*e*(p-1)^2 < 2^53; got inner = "
            f"{inner}, e = {e}, p = {p}")
    left = np.ascontiguousarray(a, dtype=np.float64).reshape(rows, inner * e)
    tf = t.astype(np.float64)
    right = np.empty((inner, e, cols, e))
    bf = b.astype(np.float64)
    for u in range(e):                    # right[k, u, j] = digits of x^u b[k, j]
        np.matmul(bf, tf[u], out=right[:, u])
    _mod(right, p, right)
    prod = left @ right.reshape(inner * e, cols * e)
    return prod.reshape(rows, cols, e)


def polymul_digits(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """Exact product of polynomials held as (length, e) digit arrays, low first.

    Each pair (u, v) of digit planes is one int64 convolution, reduced mod
    p, then contracted with ``mul_tensor`` (b_u b_v has the digits T[u, v]),
    so a tower level serves too.  Raises ``ValueError`` unless
    min(len a, len b)*e^2*(p-1)^2 < 2^63, which keeps every sum exact.
    """
    t = mul_tensor(field)
    p, e = field.p, len(t)
    if min(len(a), len(b)) * e * e * (p - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"exact int64 polynomial product needs min(len)*e^2*(p-1)^2 < 2^63; "
            f"got lengths {len(a)} and {len(b)}, e = {e}, p = {p}")
    a, b = _reduced(a, p), _reduced(b, p)
    conv = np.stack([np.stack([np.convolve(a[:, u], b[:, v]) for v in range(e)])
                     for u in range(e)]) % p              # (e, e, len a + len b - 1)
    return np.tensordot(conv, t, axes=([0, 1], [0, 1])) % p


def _eliminate_panel(panel: np.ndarray, w: int, field: Field,
                     order: np.ndarray) -> int:
    """Eliminate the first ``w`` columns of ``panel`` in place; return the rank.

    Column by column, the pivot is the first nonzero row at or below the
    current rank; it is swapped into place (the swap is mirrored in
    ``order``), normalized to 1 and cleared from the rows below it.  The
    columns from ``w`` on record each row as (original row) + C S, where
    S are the original pivot rows in pivot order: pivot i gets C[i, i] = 1
    when it is chosen, and every row operation then updates C with the row.
    Pivot k's record is zero past column w + k, so its normalization and
    the update of the rows below stop there.  The candidate row is tested
    first (see the module notes), and every row below a pivot takes the
    update, a zero one where the row is zero in the column.

    The rows below the pivots are left unreduced (see the module notes):
    only the scanned column and the pivot row are reduced mod p, and the
    pivot rows come out reduced.  Digits of the other rows are correct
    mod p but may be negative.
    """
    t = reduction_tensor(field)
    maps = inverse_table(field)
    p, e = field.p, field.degree
    index = p ** np.arange(e)
    rows = panel.shape[0]
    k = 0
    for col in range(w):
        if k == rows:
            break
        scan = panel[k:, col]
        scan %= p
        i = int(scan[0] @ index)
        if not i:
            nz = scan.any(axis=1).nonzero()[0]
            if nz.size == 0:
                continue
            j = k + nz[0]
            panel[[k, j]] = panel[[j, k]]
            order[[k, j]] = order[[j, k]]
            i = int(panel[k, col] @ index)
        end = w + k + 1
        panel[k, end - 1, 0] = 1
        prow = panel[k, col:end] % p @ maps[i] % p
        panel[k, col:end] = prow
        if k + 1 < rows:
            pt = (prow @ t).reshape(e, -1) % p                  # x -> x prow
            below = panel[k + 1:]
            below[:, col:end] -= (below[:, col] @ pt).reshape(rows - k - 1, -1, e)
        k += 1
    return k


def _panels(a: np.ndarray, field: Field):
    """Blocked elimination of ``a``, one panel of ``_PANEL`` columns at a time.

    After each panel yields (pivots found in it, remaining rows x columns):
    the rows the column-by-column loop would leave below its pivots, in
    the same order and with the same digits.  The panel is eliminated
    only on the rows up to the last one nonzero in its columns (later rows
    are never pivots and take no update), the rows its swaps moved are
    reordered in place, and the rows below the pivots take the Schur
    complement rest_T + C S_T, C = -rest_J S_J^-1 from the panel (reduced
    here, once), on the columns up to the last one nonzero in the pivot
    rows S; the sum is formed in float64 and reduced once, into the rows.
    Elimination goes on in a view of the remaining rows, whose digits stay
    in [0, p), and stops after a panel with no live row when the rows
    left are all zero.
    """
    p, e = field.p, field.degree
    if _PANEL * e * (p - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"exact int64 elimination needs {_PANEL}*e*(p-1)^2 < 2^63; "
            f"got e = {e}, p = {p}")
    a = _reduced(np.array(a, dtype=np.int64, order="C"), p)
    while a.shape[0] and a.shape[1]:
        w = min(_PANEL, a.shape[1])
        live = np.flatnonzero(a[:, :w].any(axis=(1, 2)))
        last = int(live[-1]) + 1 if live.size else 0
        panel = np.zeros((last, 2 * w, e), dtype=np.int64)
        panel[:, :w] = a[:last, :w]
        order = np.arange(last)
        k = _eliminate_panel(panel, w, field, order)
        moved = np.flatnonzero(order != np.arange(last))
        a[moved, w:] = a[order[moved], w:]
        live = np.flatnonzero(a[:k, w:].any(axis=(0, 2)))
        cols = int(live[-1]) + 1 if live.size else 0
        if k < last and cols:
            rest = a[k:last, w:w + cols]
            update = _gemm(panel[k:, w:w + k] % p, a[:k, w:w + cols], field)
            update += rest
            _mod(update, p, rest)
        a = a[k:, w:]
        yield k, a
        if not k and not a.any():
            return


def rank_digits(a: np.ndarray, field: Field) -> int:
    """Row rank by exact blocked Gaussian elimination on digit arrays.

    Deterministic: the pivot is always the first nonzero row in the
    current column, as in the column-by-column loop; see ``_panels``.
    """
    return sum(k for k, _ in _panels(a, field))
