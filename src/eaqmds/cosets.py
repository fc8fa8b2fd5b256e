"""Residue arithmetic mod n for cyclic defining sets.

Covers the -q map x -> n - qx, consecutive-run defining sets, and
Z1 = Z n (-qZ) of a defining set Z.

A set of residues is a ``ResidueSet``: a read-only numpy bool mask over
its span [lo, hi], from its smallest to its largest member, True at each
member.  Cosets are ResidueSets too.  A defining set is an interval and
the T1 / T1' unions lie inside it, so no mask on the structural path is
n long.  The span is the only stored form: membership, equality and every
kernel read it, and the sorted members and the mask over [0, n) are
derived on request for tests and demos.

Z1 and the structural checks are gathers over a window of residues
[lo, lo + w): each x in it is taken to factor * x mod n for a unit
factor (``_window_offsets``), and a window mask of the set is read at
the product; no image set is built.  x lies in -qZ exactly when
(-q)^-1 x lies in Z.  Coset closure is the same gather over the set's
own span, at its members times the multiplier.

The products come from the paper's coset identity -qC_{uq+v} = C_{vq-u}:
on the family lengths q^2 = -1 mod n, so q(lo + iq + j) = q(lo + j) - i.
A wide window is read in rows of q: one row is multiplied and reduced,
and each later row is the first minus its row index.  In general the
rows are L = (-factor)^-1 mod n long, and L = 1 for the closure
multiplier q^2 = -1.

The products of a row's residues (all below n) stay below |factor| * n.
They are computed in int32 when that bound is under 2^31 and in int64
otherwise; past 2^63 the kernels raise ``fields.ExactnessError``.  For
the family lengths n = (q^2+1)/(m^2+1) the bound is about q^3/2: int32 up
to q = 1 600 or so, int64 far past q = 10^5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _exact


def _check_int64_products(factor: int, n: int) -> None:
    """Refuse a factor whose products with residues mod n can reach 2^63:
    ``ExactnessError`` unless |factor| * n < 2^63."""
    _exact(abs(factor) * n, "the residue kernels' |factor|*n", np.int64)


def _times_mod(arr: np.ndarray, factor: int, n: int) -> np.ndarray:
    """(arr * factor) mod n in [0, n), exactly, for members 0 <= x < n.

    The products stay below |factor| * n.  Under 2^31 they are computed in
    int32, where numpy's division is about twice as fast; otherwise in
    int64, and past 2^63 the call is refused.  One fresh array is
    multiplied and reduced in place; the reduction is spelled
    x - (x // n) * n because numpy divides by a scalar with a
    multiply-and-shift, about twice as fast as its remainder.  The result
    is returned as intp, since every caller indexes a mask with it and
    numpy would otherwise convert an int32 index array on each use.
    """
    _check_int64_products(factor, n)
    bound = abs(factor) * n
    x = arr.astype(np.int32 if bound < 2 ** 31 else np.int64)
    x *= factor
    t = x // n
    t *= n
    x -= t
    return x.astype(np.intp, copy=False)


# windows narrower than this are read as one row.  Below it the row step's
# few more numpy calls cost more than the divisions they save: on a 2-core
# x86-64 host the rank oracle's calls (n <= 150) took 14.0 us each in rows
# against 8.4 us in one, and the sweep's windows broke even near 4 000
_ROW_STEP_WIDTH = 4096


def _window_offsets(n: int, factor: int, lo: int, width: int) -> np.ndarray:
    """Where factor * x mod n falls in the window [lo, lo + width), for x
    from lo to lo + width (a window inside [0, n]): the offset
    (factor * x mod n) - lo, or ``width`` when the product leaves the window.

    ``ResidueSet.window`` leaves the slot at offset ``width`` False, so a
    window mask read at these offsets says, for each x, whether factor * x
    lies in the set.  The last x is the slot past the window; its entry
    means nothing, and every caller ands it with that False slot.

    A window of at least ``_ROW_STEP_WIDTH`` residues is read in rows of
    L = (-factor)^-1 mod n, so factor * L = -1 and x = lo + iL + j maps to
    factor * (lo + j) - i: one ``_times_mod`` over the first row, the row
    index i subtracted, and n added back in column j's rows past
    factor * (lo + j) mod n, where the difference fell below 0.  This is
    the paper's coset identity -qC_{uq+v} = C_{vq-u}: on the family lengths
    (-q)^-1 = q, so the -q preimages step by rows of L = q, and the
    closure multiplier q^2 = -1 has L = 1.  A factor that is not a unit,
    L > width, or a narrower window is one row: one ``_times_mod`` over it.
    A wrapped product is at least n - (rows - 1), so the add is skipped
    when the window ends below that, or no first-row product is small
    enough to wrap there.
    """
    step = pow(-factor, -1, n) if math.gcd(factor, n) == 1 else 0
    cols = step if 0 < step <= width and width >= _ROW_STEP_WIDTH else width + 1
    rows = -(-(width + 1) // cols)
    # int32 residues when they fit: an int64 arange, cast by _times_mod,
    # made the sweep benchmark's wall time 5 % worse
    row = _times_mod(np.arange(lo, lo + cols, dtype=np.int32 if n < 2 ** 31 else np.int64),
                     factor, n)
    row -= lo
    x = row.view(np.uintp)  # unsigned: an offset below 0 reads past width too
    if rows > 1:
        x = x - np.arange(rows, dtype=np.uintp)[:, None]
        # column j falls below 0 in its rows i > factor * (lo + j) mod n =
        # row[j] + lo, and needs n back there.  That product is at least
        # n - (rows - 1), so it can land in the window only if row[j] + lo
        # is below reach
        reach = min(rows - 1, lo + width + rows - 1 - n)
        if reach > 0 and row.min() < reach - lo:
            for j in np.flatnonzero(row < reach - lo).tolist():
                x[row[j] + lo + 1:, j] += n
        x = x.reshape(-1)[:width + 1]
    np.minimum(x, width, out=x)
    return x.view(np.intp)


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """A set of residues mod n: a read-only bool mask ``span`` over
    [lo, hi], the smallest and largest members (an empty span at lo = 0
    for the empty set).  ``array`` (the sorted members, int64) and
    ``mask`` (length n) are read-only copies derived on each read."""

    n: int
    lo: int
    span: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.span, np.ndarray) and self.span.dtype == np.bool_
                and self.span.ndim == 1 and 0 <= self.lo <= self.n - self.span.size
                and (self.span[0] and self.span[-1] if self.span.size else not self.lo)):
            raise ValueError(f"need a 1-D bool span in [0, {self.n}) True at both ends, "
                             "or an empty one at 0")
        self.span.setflags(write=False)

    @classmethod
    def of(cls, n: int, values) -> "ResidueSet":
        """The set {v mod n | v in values}; duplicates collapse."""
        arr = np.array(sorted({v % n for v in values}), dtype=np.int64)
        window = np.zeros(arr.size and int(arr[-1] - arr[0]) + 1, dtype=np.bool_)
        window[arr - arr[:1]] = True  # arr[:1]: the least member, or none
        return cls.from_window(n, int(arr[0]) if arr.size else 0, window)

    @classmethod
    def from_window(cls, n: int, lo: int, window: np.ndarray) -> "ResidueSet":
        """The set {lo + i | window[i]} for a bool window inside [0, n),
        trimmed to its first and last True (kept as a view, not copied)."""
        if not window.any():
            return cls(n, 0, window[:0])
        first, end = int(window.argmax()), window.size - int(window[::-1].argmax())
        return cls(n, lo + first, window[first:end])

    @classmethod
    def from_mask(cls, n: int, mask) -> "ResidueSet":
        """The set a length-n bool mask marks; the mask is frozen, not copied."""
        mask = np.asarray(mask, dtype=np.bool_)
        if mask.shape != (n,):
            raise ValueError(f"a mask mod {n} needs shape ({n},), got {mask.shape}")
        mask.setflags(write=False)
        return cls.from_window(n, 0, mask)

    def window(self, lo: int, width: int) -> np.ndarray:
        """The set's mask over [lo, lo + width), which holds its span, and one
        False slot after it, where ``_window_offsets`` sends what leaves it."""
        out = np.zeros(width + 1, dtype=np.bool_)
        out[self.lo - lo:self.lo - lo + self.span.size] = self.span
        return out

    @property
    def array(self) -> np.ndarray:
        arr = (np.flatnonzero(self.span) + self.lo).astype(np.int64, copy=False)
        arr.setflags(write=False)
        return arr

    @property
    def mask(self) -> np.ndarray:
        mask = self.window(0, self.n)[:-1]
        mask.setflags(write=False)
        return mask

    @property
    def members(self) -> tuple[int, ...]:
        """The members as a sorted tuple of ints."""
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.span))

    def __contains__(self, x: int) -> bool:
        i = x % self.n - self.lo
        return 0 <= i < self.span.size and bool(self.span[i])

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return (self.n, self.lo) == (other.n, other.lo) and \
            np.array_equal(self.span, other.span)

    def __hash__(self) -> int:
        return hash((self.n, self.lo, self.span.tobytes()))

    def __repr__(self) -> str:
        return f"ResidueSet(n={self.n}, members={self.members})"

    def complement(self) -> "ResidueSet":
        return ResidueSet.from_window(self.n, 0, ~self.window(0, self.n)[:-1])

    def is_consecutive_run(self) -> bool:
        """Whether the members form one gap-free integer interval."""
        return bool(self.span.size and self.span.all())


def run_defining_set(n: int, s: int, delta: int) -> ResidueSet:
    """Union of the cosets C_{s+1} ... C_{s+delta} for s = (n-1)/2.

    Since C_{s+j} = {s+j, s+1-j}, the union is the consecutive interval
    [s+1-delta, s+delta] of size 2*delta.
    """
    if not 1 <= delta <= s:
        raise ValueError(f"run half-length {delta} outside [1, {s}]")
    return ResidueSet(n, s + 1 - delta, np.ones(2 * delta, dtype=np.bool_))


def is_coset_closed(n: int, multiplier: int, s: ResidueSet) -> bool:
    """Whether x * multiplier mod n lies in S for every x in S: S's span
    read at the products of its own residues (``_window_offsets``).  As in
    _times_mod, |multiplier| * n >= 2^63 raises.
    """
    inside = s.window(s.lo, s.span.size)
    at = _window_offsets(n, multiplier, s.lo, s.span.size)
    return not np.greater(inside, inside[at]).any()


def decompose(n: int, q: int, z: ResidueSet) -> ResidueSet:
    """Z1 = Z n (-qZ) of a defining set Z, one gather over Z's span.

    x lies in -qZ exactly when (-q)^-1 x lies in Z; that factor is q when
    q^2 = -1 mod n, which is not assumed.  Rejects a q that is not a unit
    mod n, and Z not closed under q^2, as |Z1| counts entanglement only
    for unions of q^2-cyclotomic cosets.
    """
    if z.n != n:
        raise ValueError(f"modulus mismatch: {z.n} vs {n}")
    if math.gcd(q, n) != 1:
        raise ValueError(f"q = {q} is not a unit mod n = {n}; "
                         "the -q map is not a permutation of the residues")
    if not is_coset_closed(n, q * q % n, z):
        raise ValueError("set is not closed under the q^2-cyclotomic action")
    inside = z.window(z.lo, z.span.size)
    pre = _window_offsets(n, pow(-q, -1, n), z.lo, z.span.size)
    return ResidueSet.from_window(n, z.lo, inside & inside[pre])
