"""Residue arithmetic mod n for cyclic defining sets.

Covers the -q map x -> n - qx, consecutive-run defining sets, and
Z1 = Z n (-qZ) of a defining set Z.

A set of residues is a ``ResidueSet``: a read-only numpy bool mask over
[0, n), True at each member.  Cosets are ResidueSets too.  Coset closure
and Z1 are gathers, the mask read at the members times a unit mod n; no
image set is built.  Each set also holds its sorted members as a read-only
int64 array, set by its constructor.

The kernels multiply members (all below n) by -q, by (-q)^-1 mod n (q on
the family lengths) or by a coset multiplier, so the products stay below
|factor| * n.  They compute in int32 when that bound is under 2^31 and in
int64 otherwise; past 2^63 they raise ``fields.ExactnessError``.  For
the family lengths n = (q^2+1)/(m^2+1) the bound is about q^3/2: int32
up to q = 1 600 or so, int64 far past q = 10^5.
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


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """A set of residues mod n: a read-only bool mask of length n and the
    members as a sorted, read-only int64 array."""

    n: int
    mask: np.ndarray
    array: np.ndarray

    def __post_init__(self):
        mask, arr = self.mask, self.array
        if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
                and mask.shape == (self.n,) and isinstance(arr, np.ndarray)
                and arr.dtype == np.int64 and arr.ndim == 1):
            raise ValueError(f"a ResidueSet mod {self.n} needs a bool mask of "
                             f"shape ({self.n},) and a 1-D int64 member array")
        mask.setflags(write=False)
        arr.setflags(write=False)

    @classmethod
    def of(cls, n: int, values) -> "ResidueSet":
        """The set {v mod n | v in values}; duplicates collapse."""
        return cls.from_sorted(n, sorted({v % n for v in values}))

    @classmethod
    def from_mask(cls, n: int, mask) -> "ResidueSet":
        """Wrap a length-n bool mask (frozen, not copied) with its members."""
        mask = np.asarray(mask, dtype=np.bool_)
        return cls(n, mask, np.flatnonzero(mask).astype(np.int64, copy=False))

    @classmethod
    def from_sorted(cls, n: int, members) -> "ResidueSet":
        """The set of sorted, distinct members in [0, n), kept as ``array``
        (frozen, not copied)."""
        arr = np.asarray(members, dtype=np.int64)
        mask = np.zeros(n, dtype=np.bool_)
        run = arr.size and arr[-1] - arr[0] + 1 == arr.size
        mask[slice(arr[0], arr[-1] + 1) if run else arr] = True  # a run: slice
        return cls(n, mask, arr)

    @property
    def members(self) -> tuple[int, ...]:
        """The members as a sorted tuple of ints."""
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return self.array.size

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x % self.n])

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((self.n, self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"ResidueSet(n={self.n}, members={self.members})"

    def complement(self) -> "ResidueSet":
        return ResidueSet.from_mask(self.n, ~self.mask)

    def is_consecutive_run(self) -> bool:
        """Whether the members form one gap-free integer interval."""
        arr = self.array
        if not arr.size:
            return False
        return int(arr[-1] - arr[0]) + 1 == arr.size


def run_defining_set(n: int, s: int, delta: int) -> ResidueSet:
    """Union of the cosets C_{s+1} ... C_{s+delta} for s = (n-1)/2.

    Since C_{s+j} = {s+j, s+1-j}, the union is the consecutive interval
    [s+1-delta, s+delta] of size 2*delta.
    """
    if not 1 <= delta <= s:
        raise ValueError(f"run half-length {delta} outside [1, {s}]")
    return ResidueSet.from_sorted(n, np.arange(s + 1 - delta, s + delta + 1))


def is_coset_closed(n: int, multiplier: int, s: ResidueSet) -> bool:
    """Whether x * multiplier mod n lies in S for every x in S.

    A multiplier = -1 mod n (q^2 here) needs no product: numpy reads index
    -x as n - x and 0 as 0.  As in _times_mod, |multiplier| * n >= 2^63 raises.
    """
    _check_int64_products(multiplier, n)
    minus_one = not (multiplier + 1) % n
    idx = -s.array if minus_one else _times_mod(s.array, multiplier, n)
    return bool(np.count_nonzero(s.mask[idx]) == idx.size)


def decompose(n: int, q: int, z: ResidueSet) -> ResidueSet:
    """Z1 = Z n (-qZ) of a defining set Z, built from its sorted members.

    x lies in -qZ exactly when (-q)^-1 x lies in Z; that factor is q when
    q^2 = -1 mod n, which is not assumed.  Rejects a q that is not a unit
    mod n, and Z not closed under q^2 (a -x read when q^2 = -1 mod n), as
    |Z1| counts entanglement only for unions of q^2-cyclotomic cosets.
    """
    if z.n != n:
        raise ValueError(f"modulus mismatch: {z.n} vs {n}")
    if math.gcd(q, n) != 1:
        raise ValueError(f"q = {q} is not a unit mod n = {n}; "
                         "the -q map is not a permutation of the residues")
    if not is_coset_closed(n, q * q % n, z):
        raise ValueError("set is not closed under the q^2-cyclotomic action")
    hit = z.mask[_times_mod(z.array, pow(-q, -1, n), n)]
    return ResidueSet.from_sorted(n, z.array[hit])
