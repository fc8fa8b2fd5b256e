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

|Z1| of an interval Z is counted with no residue listed: on the family
lengths q^2 = -1 mod n, so x lies in -qZ exactly when qx mod n lies in Z,
and the x of an interval with that property are two floor sums
(``z1_count``).  The structural checks read the -q images forward, as
rectangles (``families._image``); only a set with no known shape is
gathered.

``decompose`` (Z1 as a set) and coset closure are gathers over the set's
own span: each x in it is taken to factor * x mod n for a unit factor
(``_window_offsets``), and the span's window mask is read at the product.
x lies in -qZ exactly when (-q)^-1 x lies in Z.  The products of residues
below n stay below |factor| * n.  They are computed in int32 when that
bound is under 2^31 and in int64 otherwise; past 2^63 the kernels raise
``fields.ExactnessError``.  For the family lengths n = (q^2+1)/(m^2+1)
the bound is about q^3/2: int32 up to q = 1 600 or so, int64 far past
q = 10^5.
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


def _window_offsets(n: int, factor: int, lo: int, width: int) -> np.ndarray:
    """Where factor * x mod n falls in the window [lo, lo + width), for x
    from lo to lo + width (a window inside [0, n]): the offset
    (factor * x mod n) - lo, or ``width`` when the product leaves the window.

    ``ResidueSet.window`` leaves the slot at offset ``width`` False, so a
    window mask read at these offsets says, for each x, whether factor * x
    lies in the set.  The last x is the slot past the window; its entry
    means nothing, and every caller ands it with that False slot.
    """
    # int32 residues when they fit, so _times_mod makes no int64 copy to cast
    x = _times_mod(np.arange(lo, lo + width + 1, dtype=np.int32 if n < 2 ** 31 else np.int64),
                   factor, n)
    x -= lo
    # read unsigned, an offset below 0 is past width too
    np.minimum(x.view(np.uintp), width, out=x.view(np.uintp))
    return x


def floor_sum(count: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over 0 <= i < count, for m >= 1 and
    count >= 0.

    Each round takes the whole parts of a/m and b/m out of the sum; what
    is left counts the lattice points under a line of slope a/m < 1, which
    is the same count read along the other axis, a sum with m and a
    swapped.  So the rounds follow Euclid's algorithm on (m, a).  This is
    the technique of AtCoder Library's ``floor_sum``
    (https://github.com/atcoder/ac-library), here on Python integers,
    whose floor division lets a and b be negative.
    """
    total = 0
    while count:
        whole, a = divmod(a, m)
        total += whole * count * (count - 1) // 2
        whole, b = divmod(b, m)
        total += whole * count
        count, b = divmod(a * count + b, m)
        m, a = a, m
    return total


def z1_count(n: int, q: int, lo: int, hi: int) -> int:
    """|Z n (-qZ)| for the interval Z = [lo, hi] of residues mod n, with no
    residue listed.

    With q^2 = -1 mod n, (-q)^-1 = q, so x lies in -qZ exactly when
    qx mod n lies in [lo, hi], and for 0 <= lo <= hi < n that indicator is
    floor((qx - lo) / n) - floor((qx - hi - 1) / n).  Summed over x in Z,
    that is two floor sums, O(log n) exact integer steps.
    """
    if (q * q + 1) % n or not 0 <= lo <= hi < n:
        raise ValueError(f"need q^2 = -1 mod n and 0 <= lo <= hi < n; got "
                         f"q = {q}, n = {n}, [{lo}, {hi}]")
    size = hi - lo + 1
    return floor_sum(size, n, q, q * lo - lo) - floor_sum(size, n, q, q * lo - hi - 1)


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
