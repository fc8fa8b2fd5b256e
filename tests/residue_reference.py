"""Set-and-loop reference versions of the residue kernels, and the image
form of the -q laws.

``is_coset_closed``, ``neg_q_image``, ``decompose``, ``mark`` and
``coset_identity_holds`` are the plain-Python forms of
``cosets.is_coset_closed``, the -q map of ``cosets._times_mod``,
``cosets.decompose``, ``families._mark`` and
``verification.coset_identity_holds``, one residue at a time on Python
sets and tuples.  ``image_mask`` scatters factor * S into a fresh mask,
so the laws T1 n (-qT1) = {} and -qT1' = T1' can be checked as written,
apart from the gathers ``src/`` checks them with.
"""

import numpy as np


def image_mask(n: int, factor: int, members) -> np.ndarray:
    """The bool mask of {factor * x mod n | x in S}, for members below n."""
    out = np.zeros(n, dtype=np.bool_)
    out[np.asarray(members, dtype=np.int64) * (factor % n) % n] = True
    return out


def is_coset_closed(n: int, multiplier: int, members) -> bool:
    members = {x % n for x in members}
    return all((x * multiplier) % n in members for x in members)


def neg_q_image(n: int, q: int, members) -> tuple[int, ...]:
    """-qS as a sorted tuple (duplicates kept, as a plain map image)."""
    return tuple(sorted((-q * x) % n for x in members))


def decompose(n: int, q: int, members) -> tuple[int, ...]:
    """Z1 = Z n -qZ as a sorted tuple; rejects non-closed Z."""
    zset = {x % n for x in members}
    if not is_coset_closed(n, (q * q) % n, zset):
        raise ValueError("set is not closed under the q^2-cyclotomic action")
    neg = {(-q * x) % n for x in zset}
    return tuple(sorted(zset & neg))


def coset_identity_holds(q: int, n: int) -> bool:
    """-qC_{uq+v} = C_{vq-u} for 0 <= u, v < q, one (u, v) at a time."""
    for u in range(q):
        uq = u * q
        for v in range(q):
            i = (uq + v) % n
            if i == 0:
                continue
            left = {(-q * i) % n, (q * i) % n}
            w = (v * q - u) % n
            right = {w, (n - w) % n}
            if left != right:
                return False
    return True


def mark(n: int, q: int, blocks, thresh=None) -> set[int]:
    """The cosets {idx, n - idx} of idx = uq + v over (lo, hi, umax) blocks.

    v runs over lo..hi; u over 0..umax while v <= thresh (every v when
    thresh is None) and over 0..umax-1 beyond it.
    """
    out = set()
    for lo, hi, umax in blocks:
        for v in range(lo, hi + 1):
            top = umax if thresh is None or v <= thresh else umax - 1
            for u in range(top + 1):
                idx = (u * q + v) % n
                out.update((idx, (n - idx) % n))
    return out
