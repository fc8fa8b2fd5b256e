"""The four EAQMDS code families of length n = (q^2+1)/(m^2+1).

Each family fixes a linear form q(k) and, for 1 <= alpha <= k, a defining
set Z = C_{s+1} u ... u C_{s+delta} built from consecutive cyclotomic
cosets.  The module provides the admissible-parameter enumeration, the
closed forms for the run half-length delta, the entanglement count c and
the quantum dimension, the explicit T1 / T1' coset unions whose
disjointness properties drive those closed forms, and a per-instance
verification report.

Family shapes (a = m^2 + 1, m odd): each case fixes (b, delta0), and
q = 2ak + b, delta = alpha*q + bk + delta0 and
c = 4*alpha*(a*alpha + b) + 2*delta0.

  case 1:  b = m          delta0 = 0
  case 2:  b = a + m      delta0 = a/2 + m
  case 3:  b = a - m      delta0 = a/2 - m
  case 4:  b = 2a - m     delta0 = 2(a - m)

The printed k_q and the T1 thresholds keep their own per-case forms, so
the checks against them stay independent of this table.

T1 and T1' are unions of (u, v) rectangles x = v0 + uq + j.  The coset
identity -qC_{uq+v} = C_{vq-u} takes a rectangle to a rectangle with its
rows and columns swapped, so ``verify_family`` paints the images of T1
and T1' forward into its check window, and counts |Z1| by floor sums; it
forms no preimage of the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import prime_power_base
from .cosets import (ResidueSet, _check_int64_products, decompose, is_coset_closed,
                     run_defining_set, z1_count)

CASES = (1, 2, 3, 4)
DEFAULT_M_MAX, DEFAULT_Q_MAX = 5, 250  # the default sweep's bounds


def is_odd_prime_power(q: int) -> bool:
    return q % 2 == 1 and prime_power_base(q) is not None


def _shape(case: int, m: int) -> tuple[int, int]:
    """(b, delta0) of a case: q = 2ak + b, delta = alpha*q + bk + delta0."""
    a = m * m + 1
    if case == 1:
        return m, 0
    if case == 2:
        return a + m, a // 2 + m
    if case == 3:
        return a - m, a // 2 - m
    if case == 4:
        return 2 * a - m, 2 * (a - m)
    raise ValueError(f"unknown case {case}; expected 1..4")


def q_for(case: int, m: int, k: int) -> int:
    """The family's prescribed field size for parameters (m, k)."""
    return 2 * (m * m + 1) * k + _shape(case, m)[0]


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Admissible parameter set (case, m, k, alpha); q, a = m^2 + 1, n and s
    are derived once, on construction."""

    case: int
    m: int
    k: int
    alpha: int
    q: int = field(init=False, compare=False, repr=False)
    a: int = field(init=False, compare=False, repr=False)
    n: int = field(init=False, compare=False, repr=False)
    s: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):  # an unknown case is refused by q_for
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError(f"m must be odd and >= 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 1 <= self.alpha <= self.k:
            raise ValueError(
                f"alpha must satisfy 1 <= alpha <= k = {self.k}, got {self.alpha}")
        q = q_for(self.case, self.m, self.k)
        if not is_odd_prime_power(q):
            raise ValueError(
                f"q = {q} (case {self.case}, m = {self.m}, k = {self.k}) "
                "is not an odd prime power")
        a = self.m * self.m + 1
        if (q * q + 1) % a:
            raise AssertionError("a does not divide q^2 + 1")  # cannot happen
        n = (q * q + 1) // a
        for name, value in (("q", q), ("a", a), ("n", n), ("s", (n - 1) // 2)):
            object.__setattr__(self, name, value)  # past the frozen setattr


def spec_from_q(case: int, m: int, q: int, alpha: int) -> FamilySpec:
    """Build a spec from an explicit q, inverting the case's linear form."""
    a = m * m + 1
    offset = _shape(case, m)[0]
    num = q - offset
    if num <= 0 or num % (2 * a):
        raise ValueError(
            f"q = {q} is not of the case-{case} form 2ak + {offset} with k >= 1")
    return FamilySpec(case, m, num // (2 * a), alpha)


def enumerate_admissible(case: int, m: int, *, q_max: int) -> list[FamilySpec]:
    """All admissible specs with q <= q_max and alpha in [1, k]."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 1, got {m}")
    out = []
    k = 1
    while (q := q_for(case, m, k)) <= q_max:
        if is_odd_prime_power(q):
            out.extend(FamilySpec(case, m, k, alpha) for alpha in range(1, k + 1))
        k += 1
    return out


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form parameters of one family instance."""

    delta: int          # run half-length; the defining set has 2*delta residues
    c: int              # entanglement count |Z1|
    classical_dim: int  # n - 2*delta
    quantum_dim: int    # 2*classical_dim - n + c
    d: int              # 2*delta + 1


def closed_form(spec: FamilySpec) -> ClosedForm:
    alpha, a, q, n = spec.alpha, spec.a, spec.q, spec.n
    b, delta0 = _shape(spec.case, spec.m)
    delta = alpha * q + b * spec.k + delta0
    dim = n - 2 * delta
    c = 4 * alpha * (a * alpha + b) + 2 * delta0
    return ClosedForm(delta=delta, c=c, classical_dim=dim,
                      quantum_dim=2 * dim - n + c, d=2 * delta + 1)


def theorem_quantum_dim(spec: FamilySpec) -> int:
    """Quantum dimension as printed in each family's parameter statement."""
    case, m, k, alpha = spec.case, spec.m, spec.k, spec.alpha
    a, q, n = spec.a, spec.q, spec.n
    if case == 1:
        return n - 4 * alpha * (q - m - a * alpha) - 4 * m * k
    if case == 2:
        return n - 4 * alpha * (q - a - m - a * alpha) - 4 * (a + m) * k - (a + 2 * m)
    if case == 3:
        return n - 4 * alpha * (q - a + m - a * alpha) - 4 * (a - m) * k - (a - 2 * m)
    return n - 4 * alpha * (q - (2 * a - m) - a * alpha) - 4 * (2 * a - m) * k \
        - 4 * (a - m)


# ---------------------------------------------------------------------------
# defining sets and EA parameters


@dataclass(frozen=True)
class EAParams:
    """[[n, kq, d; c]] with the two bound flags."""

    n: int
    kq: int
    d: int
    c: int
    ea_singleton_equality: bool
    d_within_half: bool

    def label(self, q: int) -> str:
        return f"[[{self.n},{self.kq},{self.d};{self.c}]]_{q}"


def build_defining_set(spec: FamilySpec) -> ResidueSet:
    """The defining set Z = C_{s+1} u ... u C_{s+delta} of the instance."""
    cf = closed_form(spec)
    if cf.delta > spec.s:
        raise AssertionError("delta exceeds s; alpha <= k should prevent this")
    return run_defining_set(spec.n, spec.s, cf.delta)


def assemble_ea_params(n: int, classical_dim: int, d: int, c: int) -> EAParams:
    kq = 2 * classical_dim - n + c
    return EAParams(
        n=n, kq=kq, d=d, c=c,
        ea_singleton_equality=(n + c - kq == 2 * (d - 1)),
        d_within_half=(2 * d <= n + 2),
    )


def ea_params(spec: FamilySpec) -> EAParams:
    cf = closed_form(spec)
    return assemble_ea_params(spec.n, cf.classical_dim, cf.d, cf.c)


# ---------------------------------------------------------------------------
# the T1 / T1' partitions
#
# The t, h, g1, g2, f, g names below are pure iteration variables of the
# piecewise coset unions; they appear nowhere else in the API.


def _rectangles(n: int, q: int, blocks, thresh: int | None = None) -> list:
    """The union of the cosets {x, n - x} of x = uq + v over all blocks, as
    (v0, rows, width) rectangles: x = v0 + uq + j for u < rows, j < width.

    Each block is a triple (lo, hi, umax): v runs over lo..hi, and u over
    0..umax while v <= thresh (every v when thresh is None) and over
    0..umax-1 beyond it.  So a block is at most two rectangles, one each
    side of thresh.  The mirror n - x of a rectangle whose v ends at e is
    the rectangle that starts at n - e - (rows - 1)q, with its rows in
    reverse order.  Empty rectangles are left out.
    """
    rects = []
    for lo, hi, umax in blocks:
        cut = hi if thresh is None else min(hi, thresh)
        for v0, end, rows in ((lo, cut, umax + 1), (max(lo, cut + 1), hi, umax)):
            if v0 <= end and rows > 0:
                width = end - v0 + 1
                rects += [(v0, rows, width), (n - end - (rows - 1) * q, rows, width)]
    return rects


def _ends(n: int, q: int, rect) -> tuple[int, int]:
    """[lo, end): the least window of [0, n) holding a rectangle's residues,
    or all of [0, n) when the rectangle crosses a multiple of n."""
    v0, rows, width = rect
    lo = v0 % n
    end = lo + (rows - 1) * q + width
    return (lo, end) if end <= n else (0, n)


def _paint(window: np.ndarray, lo: int, n: int, q: int, rects) -> None:
    """Set window[x - lo] for every residue x of the rectangles that lies in
    the bool window over [lo, lo + window.size); the others are clipped.

    A rectangle is the integers v0 + u*step + j (u < rows, j < width, step =
    q mod n) taken mod n.  When width >= step its rows touch, so it is one
    run of (rows - 1) * step + width integers: a rectangle of one row.
    Otherwise its rows are disjoint and in order.  The integer line is
    walked a lap [tn, (t+1)n) at a time, and in lap t the window is
    [tn + lo, tn + hi): the rows wholly inside it are one (rows, width) view
    with strides (step, 1), painted with one scalar write and no index, and
    at most one row crosses each edge of it, painted as a slice.
    """
    hi = min(lo + window.size, n)
    for v0, rows, width in rects:
        if rows < 1 or width < 1:
            continue
        v0, step = v0 % n, q % n
        if width >= step:
            rows, width = 1, (rows - 1) * step + width
            if width >= n:
                window[:hi - lo] = True
                continue
            step = width  # one row, and a stride past it, so the row index math holds
        end = v0 + (rows - 1) * step + width
        # the lap walk paints this case too, but without this write
        # verify_family took 15 % longer on the sweep benchmark's specs
        if lo <= v0 and end <= hi:  # in the window, with no wrap: one write
            np.ndarray((rows, width), np.bool_, window, v0 - lo, (step, 1))[...] = True
            continue
        for t in range((v0 - hi) // n + 1, (end - lo - 1) // n + 1):
            a, b = t * n + lo, t * n + hi
            # rows first .. last lie wholly in [a, b); the row before first
            # starts below a, the row after last ends past b
            first, last = -((v0 - a) // step), (b - width - v0) // step
            if first > 0 and v0 + (first - 1) * step + width > a:
                window[:min(v0 + (first - 1) * step + width, b) - a] = True
            first, last = max(first, 0), min(last, rows - 1)
            if first <= last:
                np.ndarray((last - first + 1, width), np.bool_, window,
                           v0 + first * step - a, (step, 1))[...] = True
            start = v0 + (last + 1) * step
            if last + 1 < rows and a <= start < b:
                window[start - a:b - a] = True


def _image(q: int, rect, sign: int = 1) -> tuple[int, int, int]:
    """The rectangle sign * q * R of R = (v0, rows, width), for sign = +-1,
    on a length with q^2 = -1 mod n.

    The coset identity -qC_{uq+v} = C_{vq-u}: q(v0 + uq + j) = q(v0 + j) - u,
    so a rectangle's columns become the rows of its image and its rows the
    columns.  qR is (q*v0 - rows + 1, width, rows), and -qR is
    (-q(v0 + width - 1), width, rows).
    """
    v0, rows, width = rect
    return (q * v0 - rows + 1 if sign > 0 else -q * (v0 + width - 1)), width, rows


def _union(n: int, q: int, rects) -> ResidueSet:
    """The residues of the rectangles, painted into a window over their hull."""
    if not rects:
        return ResidueSet.of(n, ())
    ends = [_ends(n, q, r) for r in rects]
    lo = min(e[0] for e in ends)
    window = np.zeros(max(e[1] for e in ends) - lo, dtype=np.bool_)
    _paint(window, lo, n, q, rects)
    return ResidueSet.from_window(n, lo, window)


def build_T1(spec: FamilySpec) -> ResidueSet:
    """The union of cosets that is disjoint from its own -q image.

    Together with T1' it partitions the defining set Z; its existence is
    what pins the entanglement count to |Z1|.
    """
    return _union(spec.n, spec.q, _t1_rectangles(spec))


def _t1_rectangles(spec: FamilySpec) -> list:
    """T1 as (v0, rows, width) rectangles (``_rectangles``)."""
    case, m, k, alpha = spec.case, spec.m, spec.k, spec.alpha
    a, q, n, s = spec.a, spec.q, spec.n, spec.s
    blocks = []

    if case in (1, 4):
        # odd t from -m to (2m-1)m in blocks of 2m; h steps by block
        kk = k if case == 1 else k + 1
        thresh = s + m * k if case == 1 else s + (2 * a - m) * k + 2 * (a - m)
        for t in range(-m, (2 * m - 1) * m + 1, 2):
            block = 1 if t < 0 else 2 + (t - 1) // (2 * m)
            h = block if case == 1 else 3 - block
            lo = s + (m + t) * kk + h + alpha
            hi = s + (m + t + 2) * kk + (h - 1 if case == 1 else h - 3) - alpha
            blocks.append((lo, hi, alpha))
    else:
        # h from 1 to m; t ranges (h-1)m + g1 .. hm - g2 split around (m+1)/2
        if case == 2:
            thresh = s + (a + m) * k + (a + 2 * m) // 2
        else:
            thresh = s + (a - m) * k + (a - 2 * m) // 2
        for h in range(1, m + 1):
            if h <= (m - 1) // 2:
                g1, g2 = 0, 1
            elif h == (m + 1) // 2:
                g1, g2 = 0, 0
            else:
                g1, g2 = 1, 0
            for t in range((h - 1) * m + g1, h * m - g2 + 1):
                if case == 2:
                    lo = s + t * (2 * k + 1) + (h + 1) + alpha
                    hi = s + (t + 1) * (2 * k + 1) + (h - 1) - alpha
                else:
                    lo = s + t * (2 * k + 1) + (2 - h) + alpha
                    hi = s + t * (2 * k + 1) + 2 * k - (h - 1) - alpha
                blocks.append((lo, hi, alpha))

    return _rectangles(n, q, blocks, thresh)


def _t1_prime_case1(spec: FamilySpec) -> list:
    """Case 1's explicit T1' union as rectangles (elsewhere T1' is obtained
    as Z1)."""
    m, k, alpha = spec.m, spec.k, spec.alpha
    a, q, n, s = spec.a, spec.q, spec.n, spec.s

    blocks = [(s + 1, s + alpha, alpha)]

    for t in range(1, (m - 1) // 2 + 1):
        blocks.append((s + 2 * t * k + 1 - alpha, s + 2 * t * k + alpha, alpha))

    for f in range(1, 2 * m, 2):
        for t in range((f * m + 3) // 2, ((f + 2) * m - 1) // 2 + 1):
            lo = s + 2 * t * k + (f + 3) // 2 - alpha
            hi = s + 2 * t * k + (f + 1) // 2 + alpha
            blocks.append((lo, hi, alpha - 1))

    for t in range(((2 * m - 1) * m + 3) // 2, m * m + 1):
        blocks.append((s + 2 * t * k + m + 1 - alpha, s + 2 * t * k + m + alpha,
                       alpha - 1))

    blocks.append((s + 2 * a * k + m + 1 - alpha, s + q, alpha - 1))

    for g in range(1, 2 * m, 2):
        mid = s + (g * m + 1) * k + (g + 1) // 2
        blocks.append((mid - alpha, mid + alpha, alpha - 1))

    return _rectangles(n, q, blocks)


def build_T1_prime(spec: FamilySpec) -> ResidueSet:
    """The -q-stable part of the defining set; always equals Z n (-qZ).

    Case 1 uses the explicit union; the other cases construct it directly
    as Z1 of the decomposition.
    """
    if spec.case == 1:
        return _union(spec.n, spec.q, _t1_prime_case1(spec))
    return decompose(spec.n, spec.q, build_defining_set(spec))


# ---------------------------------------------------------------------------
# verification


CHECK_NAMES = (
    "defining_set_size",       # |Z| == 2*delta
    "consecutive_run",         # Z is one gap-free interval
    "entanglement_closed_form",  # |Z n (-qZ)| equals the closed-form c
    "t1_disjoint",             # T1 n (-qT1) is empty
    "t1_prime_stable",         # -qT1' == T1'
    "t1_partition",            # T1 u T1' == Z and T1 n T1' == empty
    "quantum_dim_formula",     # assembled kq matches the printed formula
    "ea_singleton_equality",   # n + c - kq == 2(d - 1)
)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail per structural check for one family instance."""

    spec: FamilySpec
    checks: dict[str, bool] = field(compare=False)
    z1_size: int = 0
    z2_size: int = 0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]


def verify_family(spec: FamilySpec, fault_delta: int = 0) -> VerificationReport:
    """Run every structural check for one instance.

    ``fault_delta`` perturbs the run half-length; it exists so the test
    harness can prove the checks actually bite.  Failures are report
    entries; only q*n >= 2^63 raises (``cosets._check_int64_products``'s
    ``ExactnessError``).

    |Z1| = |Z n (-qZ)| is counted by floor sums (``z1_count``).  The T1 /
    T1' laws read masks over W, the least window holding Z, T1 and T1' (Z
    itself unless a set leaves it), into which T1, T1' and the images of
    their rectangles (``_image``) are painted, clipped to W.  As
    q * (-q) = 1, T1 n (-qT1) is empty exactly when qT1 n T1 is, and T1'
    is -q-stable exactly when T1' lies in -qT1', since both have |T1'|
    members.  In cases 2-4 T1' is Z1 of the unperturbed Z; in a clean run
    that is Z1 itself, whose laws are integer tests: -qZ1 = -qZ n -Z
    (q^2 = -1), which is Z1 when Z = -Z, so it is stable when Z's ends sum
    to n (``run_defining_set``'s run always does); and it partitions Z with
    T1 when T1 lies in Z, qT1 misses Z and |T1| + |Z1| = |Z|.
    """
    cf = closed_form(spec)
    n, q, s = spec.n, spec.q, spec.s
    _check_int64_products(q, n)  # refuses q*n >= 2^63 up front
    delta = cf.delta + fault_delta
    z = run_defining_set(n, s, delta)
    zlo, zhi = z.lo, z.lo + z.span.size - 1
    t1 = _t1_rectangles(spec)
    t1p = _t1_prime_case1(spec) if spec.case == 1 else []
    # cases 2-4 build T1' as Z1 of the unperturbed Z, which is z1 when
    # there is no fault
    built = build_T1_prime(spec) if spec.case != 1 and fault_delta else None

    ends = [(x.lo, x.lo + x.span.size) for x in (z, built) if x is not None and x.span.size]
    ends += [_ends(n, q, r) for r in t1 + t1p]
    lo = min(e[0] for e in ends)
    width = max(e[1] for e in ends) - lo
    zw, t1w, image, t1pw = np.zeros((4, width), dtype=np.bool_)  # one buffer
    zw[zlo - lo:zhi + 1 - lo] = True
    _paint(t1w, lo, n, q, t1)
    _paint(image, lo, n, q, [_image(q, r) for r in t1])
    z_size, z1_size = zhi + 1 - zlo, z1_count(n, q, zlo, zhi)
    t1_disjoint = not (t1w & image).any()
    if built is None and spec.case != 1:  # T1' = Z1, read through integer tests
        # -qZ1 = -qZ n -Z, which is Z1 when Z = -Z: when Z's ends sum to n
        stable = zlo + zhi == n
        partition = not (np.greater(t1w, zw).any() or (image & zw).any()) \
            and int(np.count_nonzero(t1w)) + z1_size == z_size
    else:
        if built is None:
            _paint(t1pw, lo, n, q, t1p)
            image[:] = False
            _paint(image, lo, n, q, [_image(q, r, -1) for r in t1p])
            stable = not np.greater(t1pw, image).any()
        else:
            t1pw[built.lo - lo:built.lo - lo + built.span.size] = built.span
            stable = is_coset_closed(n, -q % n, built)
        partition = np.array_equal(t1w | t1pw, zw) and not (t1w & t1pw).any()
    ea = assemble_ea_params(n, n - z_size, 2 * delta + 1, cf.c)

    checks = {
        "defining_set_size": z_size == 2 * cf.delta,
        "consecutive_run": z.is_consecutive_run(),
        "entanglement_closed_form": z1_size == cf.c,
        "t1_disjoint": t1_disjoint,
        "t1_prime_stable": stable,
        "t1_partition": partition,
        "quantum_dim_formula": ea.kq == theorem_quantum_dim(spec) == cf.quantum_dim,
        "ea_singleton_equality": ea.ea_singleton_equality,
    }
    return VerificationReport(spec=spec, checks=checks,
                              z1_size=z1_size, z2_size=z_size - z1_size)


def sweep_specs(m_max: int = DEFAULT_M_MAX, q_max: int = DEFAULT_Q_MAX):
    """All admissible specs over the four cases, odd m <= m_max, q <= q_max."""
    for case in CASES:
        for m in range(1, m_max + 1, 2):
            yield from enumerate_admissible(case, m, q_max=q_max)
