"""Mask kernels against the set-and-loop references, on both sides of
``_times_mod``'s int32 bound, closure under -1, the window offsets against
one multiply per residue, the painted T1 / T1' rectangles and their q and
-q images, the floor-sum count, the member arrays derived from the sets
``ResidueSet.of`` builds, and the int64 guard."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import residue_reference as ref
from eaqmds.cosets import (ResidueSet, _times_mod, _window_offsets, decompose,
                           is_coset_closed, run_defining_set)
from eaqmds import cli, cosets, families
from eaqmds.cyclic import generator_digits
from eaqmds.families import _paint, _rectangles, _union, sweep_specs
from eaqmds.fields import ExactnessError
from eaqmds.rank_oracle import entanglement_rank, generator_parity_orthogonal
from eaqmds.verification import coset_identity_holds
from residue_reference import all_cosets


def _divisors(x: int) -> list[int]:
    small = [d for d in range(1, int(x ** 0.5) + 1) if x % d == 0]
    return sorted(set(small + [x // d for d in small]))


@st.composite
def q_and_length(draw, q_max=300):
    """(q, n) with n > 2 a divisor of q^2 + 1, so q^2 = -1 mod n."""
    q = draw(st.integers(2, q_max))
    n = draw(st.sampled_from([d for d in _divisors(q * q + 1) if d > 2]))
    return q, n


@st.composite
def closed_union(draw):
    """(q, n, members) with members a random union of cosets {i, n - i}."""
    q, n = draw(q_and_length())
    reps = draw(st.sets(st.integers(0, n // 2)))
    return q, n, sorted({x for i in reps for x in (i, (n - i) % n)})


@given(closed_union())
def test_decompose_matches_reference(case):
    q, n, members = case
    z = ResidueSet.of(n, members)
    z1 = decompose(n, q, z)
    assert z1.members == ref.decompose(n, q, members)
    assert is_coset_closed(n, (q * q) % n, z)
    # the gather agrees with the image form Z n (-qZ)
    assert np.array_equal(z1.mask, z.mask & ref.image_mask(n, -q, members))


@given(st.integers(1, 200), st.integers(2, 60), st.data())
def test_decompose_matches_reference_off_the_family_lengths(n, q, data):
    # q^2 = -1 mod n is not assumed: Z is any union of q^2-cyclotomic
    # cosets, and (-q)^-1 mod n need not be q
    assume(math.gcd(q, n) == 1)
    cosets = all_cosets(n, (q * q) % n)
    chosen = data.draw(st.sets(st.integers(0, len(cosets) - 1)))
    members = sorted(x for i in chosen for x in cosets[i].members)
    z = ResidueSet.of(n, members)
    assert decompose(n, q, z).members == ref.decompose(n, q, members)


@given(closed_union(), st.data())
def test_decompose_rejects_non_closed_like_reference(case, data):
    q, n, members = case
    # toggle one half of a two-element coset {x, n - x}
    x = data.draw(st.integers(1, n - 1).filter(lambda x: 2 * x != n))
    broken = sorted(set(members) ^ {x})
    z = ResidueSet.of(n, broken)
    assert not is_coset_closed(n, (q * q) % n, z)
    assert not ref.is_coset_closed(n, (q * q) % n, broken)
    with pytest.raises(ValueError):
        decompose(n, q, z)
    with pytest.raises(ValueError):
        ref.decompose(n, q, broken)


@given(st.integers(1, 400), st.integers(-1000, 1000), st.data())
def test_closure_and_image_match_reference_on_any_set(n, factor, data):
    members = data.draw(st.sets(st.integers(0, n - 1)))
    s = ResidueSet.of(n, members)
    assert is_coset_closed(n, factor, s) == ref.is_coset_closed(n, factor, members)
    image = ref.neg_q_image(n, factor, members)
    assert set(_times_mod(s.array, -factor, n).tolist()) == set(image)
    assert np.flatnonzero(ref.image_mask(n, -factor, s.array)).tolist() == \
        sorted(set(image))


def test_minus_one_closure_matches_reference_exhaustively_small():
    # every subset of [0, n) for n <= 8, n = 1 and n = 2 among them (where
    # -1 = 0 and -1 = 1), so sets holding 0 and sets of one element are in
    for n in range(1, 9):
        for bits in range(2 ** n):
            members = [x for x in range(n) if bits >> x & 1]
            s = ResidueSet.of(n, members)
            for mult in (n - 1, -1, 2 * n - 1):
                assert is_coset_closed(n, mult, s) == \
                    ref.is_coset_closed(n, mult, members), (n, mult, members)


@given(st.integers(1, 3000), st.data())
def test_minus_one_closure_matches_reference(n, data):
    # x -> -x closed unions of {i, n - i}, some with one member toggled,
    # and arbitrary sets
    reps = data.draw(st.sets(st.integers(0, n // 2)))
    closed = {x for i in reps for x in (i, (n - i) % n)}
    members = data.draw(st.one_of(
        st.just(closed),
        st.integers(0, n - 1).map(lambda x: closed ^ {x}),
        st.sets(st.integers(0, n - 1))))
    s = ResidueSet.of(n, members)
    for mult in (n - 1, -1, 2 * n - 1):
        assert is_coset_closed(n, mult, s) == \
            ref.is_coset_closed(n, mult, members), mult


@st.composite
def sorted_members(draw):
    """(n, sorted distinct members in [0, n)): runs, the whole range, or any."""
    n = draw(st.integers(1, 400))
    lo = draw(st.integers(0, n - 1))
    run = list(range(lo, draw(st.integers(lo, n))))
    return n, draw(st.one_of(st.just(run), st.just(list(range(n))),
                             st.sets(st.integers(0, n - 1)).map(sorted)))


def _assert_members_kept(z: ResidueSet):
    assert z.array.dtype == np.int64 and not z.array.flags.writeable
    assert np.array_equal(z.array, np.flatnonzero(z.mask))
    same = ResidueSet.of(z.n, z.array.tolist())
    assert z == same and hash(z) == hash(same)


@given(sorted_members())
def test_of_keeps_its_members_as_the_array(case):
    n, members = case
    z = ResidueSet.of(n, np.array(members, dtype=np.int64))
    _assert_members_kept(z)
    assert z.members == tuple(members)
    assert ResidueSet.of(n, members) == z  # a list works too


@given(closed_union(), st.data())
def test_run_defining_set_and_decompose_keep_their_members(case, data):
    q, n, members = case
    _assert_members_kept(decompose(n, q, ResidueSet.of(n, members)))
    s = (n - 1) // 2
    if n % 2 and s:  # the run is a union of cosets {i, n - i} for odd n
        z = run_defining_set(n, s, data.draw(st.integers(1, s)))
        _assert_members_kept(z)
        _assert_members_kept(decompose(n, q, z))


@settings(max_examples=60)
@given(st.integers(2, 90), st.data())
def test_coset_identity_matches_loop(q, data):
    n = data.draw(st.one_of(
        st.sampled_from([d for d in _divisors(q * q + 1) if d > 1]),
        st.integers(1, q * q + 2)))
    got = coset_identity_holds(q, n)
    assert got == ref.coset_identity_holds(q, n)
    if n > 2 * q:  # then the identity holds exactly when q^2 = -1 mod n
        assert got == ((q * q + 1) % n == 0)


def test_coset_identity_matches_loop_exhaustively_small():
    # every n <= q^2 + 2 for q <= 12; (2, 3) and (3, 4) hinge on the i = 0 skip
    for q in range(2, 13):
        for n in range(1, q * q + 3):
            assert coset_identity_holds(q, n) == ref.coset_identity_holds(q, n), (q, n)


def test_coset_identity_matches_loop_where_the_small_n_case_decides():
    # every n <= 2q + 2 for 13 <= q <= 60: the case 3 <= n <= 2q of the
    # proof in coset_identity_holds, and the first lengths past it
    for q in range(13, 61):
        for n in range(1, 2 * q + 3):
            assert coset_identity_holds(q, n) == ref.coset_identity_holds(q, n), (q, n)


def test_coset_identity_fails_off_the_family_lengths():
    # q^2 = 1 mod n (n = 24, q = 5) and a generic n: both forms say no
    for q, n in ((5, 24), (13, 86), (13, 84)):
        assert not coset_identity_holds(q, n)
        assert not ref.coset_identity_holds(q, n)


# (n, q) with q * n on both sides of 2^31, where _times_mod leaves int32:
# 2^31 - 1 is prime, so n = 1 is its only (n, q) with a small mask
INT32_EDGE = (
    (1, 2 ** 31 - 1),      # 2^31 - 1: int32
    (65534, 32769),        # 2^31 - 2: int32
    (65536, 32768),        # 2^31: int64
    (3, 715827883),        # 2^31 + 1: int64
)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("n, q", INT32_EDGE)
def test_closure_and_image_match_reference_at_the_int32_bound(n, q, sign):
    factor = sign * q
    rng = np.random.default_rng(n)
    members = {x for x in (0, 1, 2, n // 2, n - 2, n - 1) if 0 <= x < n}
    members |= set(rng.integers(0, n, 300).tolist())
    s = ResidueSet.of(n, members)
    assert set(_times_mod(s.array, -factor, n).tolist()) == \
        set(ref.neg_q_image(n, factor, members))
    assert is_coset_closed(n, factor, s) == ref.is_coset_closed(n, factor, members)
    full = ResidueSet.of(n, range(n))  # closed under any factor
    assert is_coset_closed(n, factor, full)


def test_times_mod_at_the_largest_int32_modulus():
    # n = 2^31 - 1 takes int32 for factor +-1 and int64 for +-2; the
    # members reach n - 1, so the products reach the edge of each dtype
    n = 2 ** 31 - 1
    arr = np.array([0, 1, 2, n // 2, n - 2, n - 1], dtype=np.int64)
    for factor in (1, -1, 2, -2):
        got = _times_mod(arr, factor, n)
        assert got.tolist() == [(x * factor) % n for x in arr.tolist()]
        assert got.dtype == np.intp


@pytest.mark.parametrize("n", (2 ** 30 - 1, 2 ** 30 + 1, 2 ** 31 + 11))
def test_coset_identity_matches_loop_at_large_n(n):
    # the grid sums reach 2n, past 2^31 for the last two n.  With q <= 12
    # only the u = 0 row holds here, so both sides answer False: this pins
    # the answer at large n, not the arithmetic of every grid cell
    for q in range(2, 13):
        assert coset_identity_holds(q, n) == ref.coset_identity_holds(q, n), q


@st.composite
def offset_windows(draw):
    """(n, factor, lo, width): any n >= 1 and window [lo, lo + width) of
    [0, n], with factors that are negative, not units, = -1 mod n, or whose
    |factor| * n is past 2^31 or 2^63."""
    n = draw(st.one_of(st.integers(1, 300), st.integers(1, 30_000)))
    factor = draw(st.one_of(
        st.integers(-3 * n, 3 * n),
        st.integers(-5, 5).map(lambda t: t * n - 1),              # = -1 mod n
        st.sampled_from(_divisors(n)).flatmap(                    # not a unit
            lambda d: st.integers(-50, 50).map(lambda t: t * d)),
        st.integers(2 ** 31 // n + 1, 2 ** 40).flatmap(
            lambda f: st.sampled_from((f, -f))),
        st.integers(2 ** 63 // n, 2 ** 64)))
    lo = draw(st.integers(0, n))
    width = draw(st.one_of(st.just(n - lo), st.just(0), st.integers(0, n - lo)))
    lo, width = draw(st.one_of(st.just((lo, width)), st.just((0, n))))
    return n, factor, lo, width


@given(offset_windows())
def test_window_offsets_match_reference(case):
    n, factor, lo, width = case
    if abs(factor) * n >= 2 ** 63:
        for kernel in (_window_offsets, ref.window_offsets):
            with pytest.raises(ExactnessError):
                kernel(n, factor, lo, width)
        return
    expected = ref.window_offsets(n, factor, lo, width)
    got = _window_offsets(n, factor, lo, width)
    assert got.dtype == expected.dtype == np.intp
    assert np.array_equal(got, expected)


def test_window_offsets_match_reference_on_the_default_sweep():
    # every spec's Z window, and all of [0, n) for each (q, n) pair, for
    # the -q preimage (-q)^-1 = q and the closure multiplier q^2 = -1
    windows = set()
    for spec in sweep_specs():
        z = families.build_defining_set(spec)
        windows |= {(spec.q, spec.n, z.lo, z.span.size), (spec.q, spec.n, 0, spec.n)}
    # 1 799 distinct Z windows, as cases can share (q, n, delta)
    assert len({w[:2] for w in windows}) == 92 and len(windows) == 1799 + 92
    for q, n, lo, width in sorted(windows):
        for factor in (pow(-q, -1, n), q * q % n):
            assert np.array_equal(_window_offsets(n, factor, lo, width),
                                  ref.window_offsets(n, factor, lo, width)), (q, n, lo)


@st.composite
def mark_blocks(draw):
    """(n, q, blocks, thresh): random (lo, hi, umax) blocks, some near n."""
    n = draw(st.integers(2, 400))
    q = draw(st.integers(1, 3 * n))
    block = st.tuples(st.integers(0, 2 * n), st.integers(-2, 12),
                      st.integers(0, 4))
    near_end = st.tuples(st.integers(n - 6, n - 1), st.integers(0, 5),
                         st.integers(0, 4))
    blocks = [(lo, lo + width, umax) for lo, width, umax in
              draw(st.lists(st.one_of(block, near_end), min_size=1, max_size=6))]
    thresh = draw(st.one_of(st.none(), st.integers(-1, 3 * n)))
    return n, q, blocks, thresh


def _painted(n, q, blocks, thresh=None) -> ResidueSet:
    """The union of the blocks' cosets, painted into its own hull."""
    return _union(n, q, _rectangles(n, q, blocks, thresh))


@given(mark_blocks())
def test_mark_matches_reference(case):
    n, q, blocks, thresh = case
    expected = ref.mark(n, q, blocks, thresh)
    assert _painted(n, q, blocks, thresh) == ResidueSet.of(n, expected)
    # painted into [0, n) and one slot past it, as verify_family's windows
    window = np.zeros(n + 1, dtype=np.bool_)
    _paint(window, 0, n, q, _rectangles(n, q, blocks, thresh))
    assert np.flatnonzero(window).tolist() == sorted(expected)


def test_mark_edges_match_reference():
    # umax = 0, thresh below, inside and above the blocks, blocks ending at
    # n - 1 and running past n, and an empty block (hi < lo)
    n, q = 97, 22
    blocks = [(0, 3, 0), (90, 96, 2), (95, 101, 1), (40, 39, 3), (10, 30, 0)]
    for thresh in (None, -1, 0, 20, 95, 96, 200):
        assert _painted(n, q, blocks, thresh) == \
            ResidueSet.of(n, ref.mark(n, q, blocks, thresh)), thresh
    # no blocks, and blocks whose rectangles thresh empties all (umax = 0
    # beyond it, or hi < lo)
    for n, q, blocks, thresh in ((97, 22, [], None), (97, 22, [], 5),
                                 (97, 22, [(10, 20, 0), (30, 40, 0), (50, 49, 2)], 5)):
        assert _rectangles(n, q, blocks, thresh) == []
        assert _painted(n, q, blocks, thresh) == ResidueSet.of(n, ()) == \
            ResidueSet.of(n, ref.mark(n, q, blocks, thresh))
    cases = [
        (97, 5, [(10, 30, 3), (33, 34, 1)]),   # |v| = 25 > q: rows overlap
        (11, 30, [(2, 4, 3), (25, 26, 1)]),    # q > n: rows past n, 2n, ...
        (53, 30, [(40, 45, 1), (60, 61, 0)]),  # v past n
        (61, 11, [(20, 30, 2)]),               # |v| = q, inside [0, n)
        (61, 11, [(50, 58, 2)]),               # row 1 crosses n, row 2 is past it
        (61, 11, [(1, 3, 1)]),                 # the mirror of row 1 crosses 0
        (61, 4, [(5, 20, 4)]),                 # 16 > q: rows overlap, and cross n
        (7, 3, [(2, 12, 2)]),                  # each row longer than n
        (61, 61, [(55, 60, 3)]),               # q = 0 mod n: every row the same
    ]
    for n, q, blocks in cases:
        lo, hi = blocks[0][:2]
        # thresh at a block's lo, inside it, at its hi, below and above
        for thresh in (None, lo - 1, lo, (lo + hi) // 2, hi, hi + 1):
            assert _painted(n, q, blocks, thresh) == \
                ResidueSet.of(n, ref.mark(n, q, blocks, thresh)), (n, q, thresh)


def test_painter_splits_rectangles_at_multiples_of_n():
    # one rectangle each: across n, across n in a middle row, wider than q
    # and across n, a mirror across 0, and one whose v starts past 2n
    n, q = 61, 11
    for v0, rows, width in ((55, 1, 10), (30, 4, 5), (40, 3, 15),
                            (-7, 2, 4), (130, 3, 2)):
        window = np.zeros(n + 1, dtype=np.bool_)
        _paint(window, 0, n, q, [(v0, rows, width)])
        expected = {(v0 + u * q + j) % n for u in range(rows) for j in range(width)}
        assert np.flatnonzero(window).tolist() == sorted(expected), (v0, rows, width)


def _residues(n, q, rect) -> set[int]:
    v0, rows, width = rect
    return {(v0 + u * q + j) % n for u in range(rows) for j in range(width)}


@st.composite
def paint_cases(draw):
    """(n, q, rect, lo, size): a rectangle anywhere on the integer line, some
    wrapping n several times, some with width > q or q = 0 mod n, and a
    window [lo, lo + size) that may run past n."""
    n = draw(st.integers(1, 200))
    q = draw(st.one_of(st.integers(0, 3 * n), st.integers(0, 3).map(lambda t: t * n)))
    rect = (draw(st.integers(-3 * n, 3 * n)), draw(st.integers(-1, 3 * n // max(q % n, 1) + 3)),
            draw(st.one_of(st.integers(-1, 12), st.integers(0, 2 * n))))
    lo = draw(st.integers(0, n))
    size = draw(st.one_of(st.integers(0, n - lo + 1), st.just(n - lo)))
    return n, q, rect, lo, size


@given(paint_cases())
def test_painter_clips_to_its_window_like_the_reference(case):
    # rows cut by either edge of the window, rows wholly outside it and
    # laps past n that miss it, against the residues one at a time
    n, q, rect, lo, size = case
    window = np.zeros(size, dtype=np.bool_)
    wrote = _paint(window, lo, n, q, [rect])
    expected = sorted(x for x in _residues(n, q, rect) if lo <= x < lo + size)
    assert (np.flatnonzero(window) + lo).tolist() == expected
    assert type(wrote) is bool and wrote == window.any()  # whether it set a slot


def test_painter_edges_match_the_reference():
    n, q = 61, 11
    cases = [
        (5, 20, 3),     # wraps n three times, rows 11 apart
        (-7, 30, 2),    # starts below 0
        (40, 6, 4),     # rows cut by both edges of [20, 45)
        (50, 2, 30),    # width > q: one run of 41, across n
        (3, 4, 70),     # width > n: every residue
        (200, 9, 1),    # v0 past 3n
        (20, 2, 8),     # a row that starts at lo = 20 and outruns the window
    ]
    for rect in cases:
        for lo, size in ((0, n), (20, 25), (20, 5), (0, 1), (60, 1), (25, 0), (33, 40)):
            window = np.zeros(size, dtype=np.bool_)
            wrote = _paint(window, lo, n, q, [rect])
            expected = sorted(x for x in _residues(n, q, rect) if lo <= x < lo + size)
            assert (np.flatnonzero(window) + lo).tolist() == expected, (rect, lo, size)
            assert wrote is bool(window.any()), (rect, lo, size)
    # q = 0 mod n: every row is the same
    window = np.zeros(13, dtype=np.bool_)
    assert _paint(window, 0, 13, 26, [(11, 5, 3)]) is True
    assert np.flatnonzero(window).tolist() == [0, 11, 12]


def test_images_match_reference_on_the_default_sweep():
    # qR and -qR of every T1 and case-1 T1' rectangle of the default sweep,
    # painted into [0, n), against the reference image of the union's members
    checked = 0
    for spec in sweep_specs():
        n, q = spec.n, spec.q
        rects = families._t1_rectangles(spec)
        if spec.case == 1:
            rects += families._t1_prime_case1(spec)
        if not rects:
            continue
        members = np.flatnonzero(families._union(n, q, rects).mask)
        for sign in (1, -1):
            window = np.zeros(n, dtype=np.bool_)
            _paint(window, 0, n, q, [families._image(q, r, sign) for r in rects])
            assert np.array_equal(window, ref.image_mask(n, sign * q, members)), (spec, sign)
        checked += 1
    # at alpha = k T1 has no rectangle, and cases 2-4 then paint nothing
    assert checked == 3438 - 113
    # and one union's images against the set form of the map
    spec = families.FamilySpec(1, 1, 3, 1)  # [[85,33,33;12]]_13
    t1 = families._t1_rectangles(spec)
    image = families._union(spec.n, spec.q, [families._image(spec.q, r, -1) for r in t1])
    assert image.members == tuple(sorted(set(ref.neg_q_image(spec.n, spec.q,
                                                               families.build_T1(spec)))))


@given(q_and_length(q_max=60), st.data())
def test_z1_count_matches_the_loop(case, data):
    q, n = case
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    neg_q_z = {x for x in range(n) if lo <= (q * x) % n <= hi}  # (-q)^-1 = q
    assert cosets.z1_count(n, q, lo, hi) == len(neg_q_z & set(range(lo, hi + 1)))


def test_z1_count_refuses_what_it_cannot_count():
    for args in ((86, 13, 10, 20), (85, 13, 20, 10), (85, 13, -1, 10), (85, 13, 10, 85)):
        with pytest.raises(ValueError, match="q\\^2 = -1"):
            cosets.z1_count(*args)


def test_verify_family_forms_no_preimage_and_no_decomposition(monkeypatch):
    # a clean run reads Z1 by floor sums and the -q laws by painted images
    def refuse(*args, **kwargs):
        raise AssertionError("a preimage window or a decomposition was formed")

    for module in (cosets, families):
        monkeypatch.setattr(module, "decompose", refuse)
    monkeypatch.setattr(cosets, "_window_offsets", refuse)
    specs = list(sweep_specs())
    for case in families.CASES:
        spec = next(s for s in specs if s.case == case and s.alpha < s.k)
        report = families.verify_family(spec)
        assert report.passed and report.z1_size == families.closed_form(spec).c, spec


def test_empty_t1_at_alpha_equal_k():
    # case 1, m = 1, alpha = k: every T1 block has hi - lo = 2k - 1 - 2 alpha
    # < 0, so T1 has no rectangle; T1' is all of Z and the checks still hold
    for k in (1, 2, 3, 4, 6):
        spec = families.FamilySpec(1, 1, k, k)
        assert families._t1_rectangles(spec) == []
        assert len(families.build_T1(spec)) == 0
        assert families.build_T1_prime(spec) == families.build_defining_set(spec)
        report = families.verify_family(spec)
        assert report.passed, report.failed_checks()
        assert {**report.checks, "z1_size": report.z1_size, "z2_size": report.z2_size} \
            == ref.verify_checks_reference(spec)


def test_mark_matches_reference_on_sweep_unions_past_q_or_n(monkeypatch):
    # the default sweep's T1 and case-1 T1' unions whose v range is wider
    # than q (rows overlap) or whose (umax + 1) rows of v reach past n,
    # against the set-and-loop reference
    calls = []

    def recorded(n, q, blocks, thresh=None):
        calls.append((n, q, blocks, thresh))
        return _rectangles(n, q, blocks, thresh)

    monkeypatch.setattr(families, "_rectangles", recorded)
    for spec in sweep_specs():
        families.build_T1(spec)
        if spec.case == 1:
            families.build_T1_prime(spec)
    monkeypatch.undo()
    overlap, folded = [], []
    for n, q, blocks, thresh in calls:
        lo, hi, umax = np.array(blocks).T
        vmin, width = int(lo.min()), int(hi.max() - lo.min() + 1)
        if width > q:
            overlap.append((n, q, blocks, thresh))
        elif vmin % n + int(umax.max()) * q + width > n:
            folded.append((n, q, blocks, thresh))
    assert len(calls) == 4302 and len(overlap) == 45 and folded
    for n, q, blocks, thresh in overlap + folded:
        assert _painted(n, q, blocks, thresh) == \
            ResidueSet.of(n, ref.mark(n, q, blocks, thresh)), (n, q, thresh)


def test_int64_guard_refuses_overflowing_products():
    s = ResidueSet.of(5, [1, 4])
    big = 2 ** 62  # 5 * 2^62 >= 2^63
    with pytest.raises(ExactnessError, match=r"int64.*\|factor\|\*n < 2\^63"):
        _times_mod(s.array, -big, 5)
    # 2^62 = -1 mod 5: is_coset_closed refuses what _times_mod refuses, for
    # a multiplier = -1 mod n too
    with pytest.raises(ExactnessError, match=r"int64.*\|factor\|\*n < 2\^63"):
        is_coset_closed(5, big, s)
    # decompose multiplies by (-q)^-1 reduced mod n, so a huge q is fine
    assert decompose(5, big, s).members == ref.decompose(5, big, [1, 4])
    assert _times_mod(s.array, -2 ** 60, 5).tolist() == [4, 1]  # 5 * 2^60 < 2^63


def test_residue_set_views_and_identity():
    a = ResidueSet.of(12, [11, 3, -1, 15])
    assert a.members == (3, 11)
    assert a.array.tolist() == [3, 11] and a.array.dtype.name == "int64"
    assert len(a) == 2 and 15 in a and 4 not in a and list(a) == [3, 11]
    assert not a.mask.flags.writeable and not a.array.flags.writeable
    b = ResidueSet.from_mask(12, a.mask.copy())
    assert b.array.tolist() == [3, 11] and not b.array.flags.writeable
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ResidueSet.of(13, [3, 11])
    # the constructor takes the least member and the bool span from it to
    # the greatest, and checks its dtype, shape and ends, and that it fits
    assert (a.lo, a.span.tolist()) == (3, [True] + [False] * 7 + [True])
    assert ResidueSet(12, 3, a.span) == a and not a.span.flags.writeable
    assert ResidueSet(12, 0, np.zeros(0, dtype=np.bool_)) == ResidueSet.of(12, [])
    for lo, span in [(3, (True, False, True)),  # a tuple is not a span
                     (3, a.span.astype(np.int8)),
                     (3, a.span[None, :]),
                     (4, a.span),               # past n = 12
                     (-1, a.span),
                     (3, np.array([True, False])),   # ends on a non-member
                     (3, np.array([False, True])),
                     (3, a.span[:0])]:              # empty, but not at 0
        with pytest.raises(ValueError):
            ResidueSet(12, lo, span)
    with pytest.raises(ValueError):
        ResidueSet.from_mask(12, [True] * 11)


@st.composite
def residue_sets(draw):
    """(n, members): empty sets, sets holding 0 or n - 1, runs and any."""
    n = draw(st.integers(1, 300))
    members = draw(st.one_of(
        st.just(set()), st.just({0}), st.just(set(range(n))),
        st.integers(0, n - 1).flatmap(
            lambda lo: st.integers(lo, n).map(lambda hi: set(range(lo, hi)))),
        st.sets(st.integers(0, n - 1)).map(lambda s: s | {0}),
        st.sets(st.integers(0, n - 1)).map(lambda s: s | {n - 1}),
        st.sets(st.integers(0, n - 1))))
    return n, members


@given(residue_sets(), residue_sets())
def test_constructors_round_trip_like_python_sets(case, other):
    n, members = case
    listed = sorted(members)
    mask = np.zeros(n, dtype=np.bool_)
    mask[listed] = True
    made = [ResidueSet.of(n, listed[::-1] + [x + n for x in listed]),
            ResidueSet.of(n, np.array(listed, dtype=np.int64)),
            ResidueSet.from_mask(n, mask)]
    for s in made:
        assert s.array.tolist() == listed and s.array.dtype == np.int64
        assert np.array_equal(s.mask, mask) and s.mask.dtype == np.bool_
        assert not s.array.flags.writeable and not s.mask.flags.writeable
        assert len(s) == len(members) and s.members == tuple(listed)
        assert all((x in s) == (x % n in members) for x in range(-1, n + 1))
        assert s.is_consecutive_run() == bool(
            listed and listed[-1] - listed[0] + 1 == len(listed))
        assert s == made[0] and hash(s) == hash(made[0])
    m, others = other
    same = (n, members) == (m, others)
    assert (made[0] == ResidueSet.of(m, others)) == same
    assert made[0].complement().members == tuple(sorted(set(range(n)) - members))


def test_no_src_path_reads_a_derived_view(monkeypatch, capsys):
    # the span is the one stored form: with the member array and the
    # length-n mask refused, the structural checks, the rank oracle,
    # decompose and the table command still run
    def refuse(self):
        raise AssertionError("a derived view of a ResidueSet was read")

    monkeypatch.setattr(ResidueSet, "array", property(refuse))
    monkeypatch.setattr(ResidueSet, "mask", property(refuse))
    generator_digits.cache_clear()  # memoized g and h would skip their build
    specs = list(sweep_specs())
    for case in families.CASES:
        spec = next(s for s in specs
                    if s.case == case and families.closed_form(s).delta < s.s)
        assert families.verify_family(spec).passed, spec
        assert not families.verify_family(spec, fault_delta=1).passed, spec
    oracle = [s for s in specs if s.n <= 150]
    assert len(oracle) == 29
    for spec in oracle:
        assert entanglement_rank(spec).match, spec
        assert generator_parity_orthogonal(spec), spec
    assert decompose(85, 13, run_defining_set(85, 42, 32)) == \
        ResidueSet.of(85, ref.decompose(85, 13, range(11, 75)))
    for case in families.CASES:
        assert cli.main(["table", "--case", str(case)]) == 0
        assert '"all_match": true' in capsys.readouterr().out
