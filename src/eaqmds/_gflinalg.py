"""Exact linear algebra over GF(p^e) on float64 BLAS, internal.

Matrices over a single-level extension field are flattened to arrays of
shape (rows, cols, e) holding the polynomial-basis digits mod p, in
[0, p).  Field multiplication is contraction against the tensor T of
``fields.mul_tensor``, T[u, v] = digits(x^(u+v) mod modulus), so the map
x -> x b of one entry b is an e x e matrix over GF(p).

One rule, after FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3),
2008), holds for every hot product sum here and in ``cyclic._times`` but
the pivot loop: products of digits in [0, p) are summed in float64,
exact in any order while the bound on the sum is below 2^53 (``_exact``
refuses the product otherwise), and each sum is reduced once (``_mod``).
Below 2^53 a correctly rounded x/p is off by less than 1/p, the least
distance from x/p to the next integer, so its floor is exact, and
x - p*floor(x/p) is x mod p with no correction step.  ``_gemm`` expands
the right factor into the (inner*e x cols*e) matrix of its entries'
multiplication maps, reduced, and multiplies the left factor's digits
into it in one BLAS call, returning the sums (at most inner*e*(p-1)^2)
unreduced; ``polymul_digits`` contracts e^2 convolutions of digit planes
(BLAS dot products, at most min(length)*(p-1)^2), reduced, with T.

Rank is blocked Gaussian elimination.  Each panel of ``_PANEL`` columns
is eliminated in an int64 buffer, the rule's one exception: numpy's
float64 ``%`` costs 3-4x its int64 ``%`` on the per-pivot reductions (a
float64 panel measured 14 % slower on the seven n = 421 Gram ranks).
The pivot is the first nonzero row of the column, swapped into place,
normalized and cleared from every other up-to-date row, the pivot rows
too (Gauss-Jordan), so the pivot rows are the identity P' on the pivot
columns and their records are M = S_J[:, piv]^-1 over the original
pivot rows S.  The panel records each remaining row's coefficients
C = -rest_J S_J^-1.  The remaining rows, float64 digits in [0, p), then
take the Schur complement rest_T + C S_T: ``_gemm``'s sums plus the
rows, reduced once as they are written back, at most
k*e*(p-1)^2 + p - 1 for k pivots and so below 2^53 under ``_gemm``'s
guard k*e*(p-1)^2 < 2^53 (checked over every prime p: the only
exceptions need k*e > 6*10^10).  That is the state the column-by-column
loop would leave, with the same pivots.  The candidate row is tested
first: the digit index of its reduced entry is both the zero test and
the index into ``inverse_table``, the per-field table of the maps
x -> x c^-1 that normalizes a pivot, and only a zero candidate makes the
column be searched and a row swapped up.  Pivot k's row operations stop
at its last live coefficient column, w + k.  Panels and updates stop at
the last nonzero row and column, so a banded matrix costs only its
band, and the elimination stops at the first panel without a live row
once the rows left are all zero.

A tall panel, more than ``_TALL`` = 4*_PANEL rows up to its last live
one, is eliminated on a window when _PANEL*e*(p-1)^2 < 2^53: only its
first ``_PANEL`` rows are kept up to date, so a pivot's numpy calls
touch ``_PANEL`` rows instead of every row of the panel.  A panel has at
most ``_PANEL`` pivots, so the window holds them all.  Any other row r
comes up to date in one ``_gemm``, r - r[piv] P': the one row of
r + span(S) that is zero on the pivot columns, which is the column
loop's state whatever the order of the updates.  At the first column
zero on the window's rows below the pivots, every row past the window
is brought up to date so, and the elimination goes on over all rows.
If no column is, the rows past the window take only their records
C = -r[piv] M, in one ``_gemm``, and the Schur update stays one tall
GEMM per panel.  These lazy products have inner dimension at most
``_PANEL``, so their sums stay below 2^53 under the window's rule as the
Schur sums do.  The window costs more than the full update on short
panels and less on tall ones (``_panels`` gives the crossover), so the
rule reads the row count alone.

Inside a panel reduction is delayed: the updated rows take their
updates unreduced, and only the column scanned for the next pivot (on
every up-to-date row, since each takes the pivot's update), the pivot
row before it is normalized, and the coefficient record (once per
panel, before ``_gemm`` reads it) are reduced; a row brought in is
reduced.  Each update subtracts at most e(p-1)^2 and a panel has at most
``_PANEL`` pivots, so every digit stays in (-_PANEL*e*(p-1)^2, p);
``rank_digits`` raises ``ExactnessError`` unless _PANEL*e*(p-1)^2 < 2^63,
which keeps p below 2^53.  An int64 ``%`` by p beats x - (x // p)*p on
these small reductions: 1.4 against 2.7 us on a 32-row scanned column,
0.9 against 2.0 us on a 17-entry pivot row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import Field, _exact, _power_table, _powers, _times_matrix, \
    find_primitive_element, mul_tensor

_PANEL = 16                 # columns eliminated per panel of rank_digits
_TALL = 4 * _PANEL          # rows past which a panel is eliminated on a window


def _require_flat(field: Field):
    if field.base is not None or field.degree < 1:
        raise ValueError("digit representation needs a single-level field")


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
    t = mul_tensor(field).astype(np.float64)
    p, e = field.p, field.degree
    rows, inner = a.shape[0], a.shape[1]
    cols = b.shape[1]
    if b.shape[0] != inner:
        raise ValueError("incompatible shapes")
    _exact(inner * e * (p - 1) ** 2,
           f"inner*e*(p-1)^2 (inner = {inner}, e = {e}, p = {p})")
    left = np.ascontiguousarray(a, dtype=np.float64).reshape(rows, inner * e)
    right = np.empty((inner, e, cols, e))
    bf = np.asarray(b, dtype=np.float64)
    for u in range(e):                    # right[k, u, j] = digits of x^u b[k, j]
        np.matmul(bf, t[u], out=right[:, u])
    _mod(right, p, right)
    prod = left @ right.reshape(inner * e, cols * e)
    return prod.reshape(rows, cols, e)


def polymul_digits(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """Exact product of polynomials held as (length, e) digit arrays, low first.

    Each pair (u, v) of digit planes is one float64 convolution, reduced
    mod p, then contracted with ``mul_tensor`` (b_u b_v has the digits
    T[u, v]), so a tower level serves too.  Returns int64 digits.  Raises
    ``ExactnessError`` unless min(len a, len b)*e^2*(p-1)^2 < 2^53, a bound on
    the sums of both steps.
    """
    t = mul_tensor(field)
    p, e = field.p, len(t)
    _exact(min(len(a), len(b)) * e * e * (p - 1) ** 2,
           f"min(len)*e^2*(p-1)^2 (lengths {len(a)} and {len(b)}, e = {e}, p = {p})")
    a, b = (np.ascontiguousarray(_reduced(x, p).T, dtype=np.float64) for x in (a, b))
    conv = np.stack([np.stack([np.convolve(u, v) for v in b]) for u in a])
    _mod(conv, p, conv)                                  # (e, e, len a + len b - 1)
    prod = np.tensordot(conv, t.astype(np.float64), axes=([0, 1], [0, 1]))
    return _mod(prod, p, np.empty(prod.shape, dtype=np.int64))


def _brought_in(source: np.ndarray, pivots: np.ndarray, piv: list, start: int,
                stop: int, field: Field, out: np.ndarray) -> np.ndarray:
    """Columns [start, stop) of the original panel rows ``source`` brought up
    to date with the Gauss-Jordan pivot rows ``pivots``, into int64 ``out``.

    ``source`` holds float64 digits in [0, p) on the panel's w columns; a
    row's record columns, from w on, start at zero.  A row r comes up to
    date as r - r[piv] P' (see the module notes): one ``_gemm`` of r by -P'
    placed on the pivot columns ``piv`` (zero on the others), plus r.  The
    sums are at most k*e*(p-1)^2 + p - 1 for k pivots.  ``_eliminate_panel``
    brings the rows past its window in once: from the first column zero on
    the window, or else only their records, the columns from w on.
    """
    p, w = field.p, source.shape[1]
    neg = np.zeros((w, stop - start, field.degree), dtype=np.int64)
    neg[piv] = np.negative(pivots[:, start:stop]) % p
    sums = _gemm(source, neg, field)
    if start < w:
        sums[:, :w - start] += source[:, start:stop]
    return _mod(sums, p, out)


def _eliminate_panel(source: np.ndarray, field: Field, window: bool):
    """Eliminate the panel ``source`` (rows x w x e, float64 digits in
    [0, p)) in an int64 buffer; return its rank k, the buffer and the row
    order.

    Rows [0, hi) of the buffer are up to date: every row, or with
    ``window`` (see the module notes) the first ``_PANEL``.  Column by
    column, the pivot is the first up-to-date row at or below the current
    rank that is nonzero in the column, the candidate row tested first
    (see the module notes); it is swapped into place (the swap is mirrored
    in ``order``), normalized to 1 and cleared from every other up-to-date
    row.  At the first column zero on the window's rows [k, hi), the rows
    past it are brought in, from that column on (the columns before it are
    pivot columns, zero on every up-to-date row), and hi becomes rows.
    Rows never brought in get their records C = -source[piv] M at the end,
    M the pivot rows' records.

    The buffer's columns from w on record each row as (original row) + C S,
    where S are the original pivot rows in pivot order: pivot i gets
    C[i, i] = 1 when it is chosen, and every row operation then updates C
    with the row.  Pivot k's record is zero past column w + k, so its
    normalization and the row updates stop there.  On return the buffer
    holds the record C of each row below the pivots, in the final order.

    The rows are left unreduced (see the module notes): only the scanned
    column and the pivot row are reduced mod p.  Other digits are correct
    mod p but may be negative.
    """
    t = mul_tensor(field)
    maps = inverse_table(field)
    p, e = field.p, field.degree
    index = p ** np.arange(e)
    rows, w = source.shape[:2]
    panel = np.zeros((rows, 2 * w, e), dtype=np.int64)
    order = np.arange(rows)
    hi = min(rows, _PANEL) if window else rows  # rows [0, hi) are up to date
    panel[:hi, :w] = source[:hi]
    piv = []
    k = 0
    for col in range(w):
        if k == rows:
            break
        panel[:hi, col] %= p            # every row the pivot's update reaches
        i = int(panel[k, col].dot(index))
        if not i:
            if hi < rows and not panel[k:hi, col].any():
                _brought_in(source[order[hi:]], panel[:k], piv, col, w + k, field,
                            panel[hi:, col:w + k])
                hi = rows
            nz = panel[k:hi, col].any(axis=1).nonzero()[0]
            if not nz.size:
                continue
            j = k + nz[0]
            panel[[k, j]] = panel[[j, k]]
            order[[k, j]] = order[[j, k]]
            i = int(panel[k, col].dot(index))
        end = w + k + 1
        panel[k, end - 1, 0] = 1
        prow = panel[k, col:end] % p @ maps[i] % p
        pt = (prow @ t).reshape(e, -1) % p                      # x -> x prow
        panel[:hi, col:end] -= (panel[:hi, col] @ pt).reshape(hi, -1, e)
        panel[k, col:end] = prow        # the pivot row, zeroed above, normalized
        piv.append(col)
        k += 1
    if hi < rows:
        _brought_in(source[order[hi:]], panel[:k], piv, w, w + k, field,
                    panel[hi:, w:w + k])
    return k, panel, order


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
    rows S; the sum is reduced once, into the rows.  Elimination goes on
    in a view of the remaining rows, float64 digits in [0, p), and stops
    after a panel with no live row when the rows left are all zero.

    A panel of more than ``_TALL`` rows up to its last live one is
    eliminated with only its first ``_PANEL`` rows up to date, a window
    (see the module notes), when _PANEL*e*(p-1)^2 < 2^53, under which the
    window's own GEMMs are exact; past it every row of the panel takes
    every pivot's update, which needs no GEMM.  Timed per panel
    (elimination and Schur update) on the Gram matrices of the 185 sweep
    specs with n <= 1000, the window costs 1.08-1.34x the full update
    below 48 rows, 1.04-1.07x from 48 to 71 and 0.69-0.94x from 72 rows
    on.
    """
    p, e = field.p, field.degree
    _exact(_PANEL * e * (p - 1) ** 2, f"{_PANEL}*e*(p-1)^2 (e = {e}, p = {p})",
           np.int64)
    window_exact = _PANEL * e * (p - 1) ** 2 < 2**53
    a = np.array(_reduced(np.asarray(a), p), dtype=np.float64, order="C")
    while a.shape[0] and a.shape[1]:
        w = min(_PANEL, a.shape[1])
        live = np.flatnonzero(a[:, :w].any(axis=(1, 2)))
        last = int(live[-1]) + 1 if live.size else 0
        k, panel, order = _eliminate_panel(a[:last, :w], field,
                                           window_exact and last > _TALL)
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
    The field must be single-level: a tower's digits are not its degree.
    """
    _require_flat(field)
    return sum(k for k, _ in _panels(a, field))
