"""Set-and-loop reference versions of the residue kernels, the image
form of the -q laws, the general coset enumerator, and the structural
checks of ``verify_family`` on length-n masks.

``is_coset_closed``, ``neg_q_image``, ``decompose``, ``mark`` and
``coset_identity_holds`` are the plain-Python forms of
``cosets.is_coset_closed``, the -q map of ``cosets._times_mod`` and of
``families._image``, ``cosets.decompose``, the rectangles
``families._paint`` paints and ``verification.coset_identity_holds``, one
residue at a time on Python sets and tuples.  ``window_offsets`` is
``cosets._window_offsets`` written out, one multiply and reduction per
residue of the window.  ``image_mask`` scatters factor * S into a fresh
mask, so the laws T1 n (-qT1) = {} and -qT1' = T1' can be checked as
written, apart from the painted images ``src/`` checks them with.
``cyclotomic_coset`` and ``all_cosets`` follow each orbit under a unit
multiplier without assuming its shape, so the pair form {i, n - i} that
``src/`` relies on is proven against them.  ``verify_checks_reference``
runs the checks of ``families.verify_family`` as written, on bool masks
over [0, n) and scattered -q images, with |Z1| counted on the masks
rather than by floor sums; ``t1_laws`` checks the T1 / T1' laws on Python
sets."""

import math

import numpy as np

from eaqmds.cosets import ResidueSet, _times_mod
from eaqmds.families import (assemble_ea_params, build_T1, build_T1_prime,
                             closed_form, theorem_quantum_dim)


def image_mask(n: int, factor: int, members) -> np.ndarray:
    """The bool mask of {factor * x mod n | x in S}, for members below n."""
    out = np.zeros(n, dtype=np.bool_)
    small = abs(factor) * n < 2 ** 31  # then the products fit int32
    x = np.asarray(members, dtype=np.int32 if small else np.int64) * factor
    out[x - x // n * n] = True  # x mod n; numpy's // by a scalar is faster than %
    return out


def window_offsets(n: int, factor: int, lo: int, width: int) -> np.ndarray:
    """``cosets._window_offsets`` one product at a time over the window: each
    x from lo to lo + width is multiplied by factor and reduced mod n, then
    taken as its offset in [lo, lo + width), or ``width`` past the window.

    int32 residues and products while |factor| * n < 2^31, int64 otherwise,
    through ``cosets._times_mod``, so the refusals are the same.
    """
    x = np.arange(lo, lo + width + 1, dtype=np.int32 if n < 2 ** 31 else np.int64)
    x = _times_mod(x, factor, n)
    x -= lo
    # read unsigned, an offset below 0 is past width too
    np.minimum(x.view(np.uintp), width, out=x.view(np.uintp))
    return x


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


def cyclotomic_coset(n: int, multiplier: int, i: int) -> ResidueSet:
    """The orbit of i under repeated multiplication by ``multiplier`` mod n.

    No shape is assumed.  A multiplier that is not a unit mod n is
    refused, since its orbit need not return to i.
    """
    if math.gcd(multiplier, n) != 1:
        raise ValueError(f"multiplier {multiplier} is not a unit mod n = {n}; "
                         "its orbits are not cyclotomic cosets")
    orbit, x = [i % n], i * multiplier % n
    while x != orbit[0]:
        orbit.append(x)
        x = x * multiplier % n
    return ResidueSet.of(n, orbit)


def all_cosets(n: int, multiplier: int) -> list[ResidueSet]:
    """The cyclotomic cosets partitioning [0, n), ordered by least member."""
    seen, out = set(), []
    for i in range(n):
        if i not in seen:
            out.append(cyclotomic_coset(n, multiplier, i))
            seen.update(out[-1].members)
    return out


def verify_checks_reference(spec, fault_delta: int = 0) -> dict:
    """The eight checks of ``families.verify_family``, then ``z1_size`` and
    ``z2_size``, computed on length-n masks.

    Z is the interval [s + 1 - delta, s + delta] with delta shifted by
    ``fault_delta``; Z1 = Z n (-qZ) is Z and the scattered image of Z.  T1
    and case 1's T1' come from ``build_T1`` and ``build_T1_prime``; in
    cases 2-4 T1' is Z1 of the unshifted Z, as ``build_T1_prime`` defines
    it there.  Each -q law is checked against a scattered image.
    """
    cf = closed_form(spec)
    n, q, s = spec.n, spec.q, spec.s

    def interval(delta):
        mask = np.zeros(n, dtype=np.bool_)
        mask[s + 1 - delta:s + delta + 1] = True
        return mask

    def image(mask):
        return image_mask(n, -q, np.flatnonzero(mask))

    delta = cf.delta + fault_delta
    z = interval(delta)
    z1 = z & image(z)
    t1 = build_T1(spec).mask
    if spec.case == 1:
        t1p = build_T1_prime(spec).mask
    elif fault_delta:
        unshifted = interval(cf.delta)
        t1p = unshifted & image(unshifted)
    else:
        t1p = z1
    members = np.flatnonzero(z)
    size, z1_size = int(z.sum()), int(z1.sum())
    ea = assemble_ea_params(n, n - size, 2 * delta + 1, cf.c)
    return {
        "defining_set_size": size == 2 * cf.delta,
        "consecutive_run": bool(size) and int(members[-1] - members[0]) + 1 == size,
        "entanglement_closed_form": z1_size == cf.c,
        "t1_disjoint": not (t1 & image(t1)).any(),
        "t1_prime_stable": np.array_equal(image(t1p), t1p),
        "t1_partition": np.array_equal(t1 | t1p, z) and not (t1 & t1p).any(),
        "quantum_dim_formula": ea.kq == theorem_quantum_dim(spec)
        and ea.kq == cf.quantum_dim,
        "ea_singleton_equality": ea.ea_singleton_equality,
        "z1_size": z1_size,
        "z2_size": size - z1_size,
    }


def t1_laws(n: int, q: int, z, t1, t1p) -> dict:
    """The T1 / T1' checks of ``verify_family`` on Python sets of residues."""
    z, t1, t1p = set(z), set(t1), set(t1p)

    def image(members):
        return {(-q * x) % n for x in members}

    return {
        "t1_disjoint": not t1 & image(t1),
        "t1_prime_stable": image(t1p) == t1p,
        "t1_partition": t1 | t1p == z and not t1 & t1p,
    }
