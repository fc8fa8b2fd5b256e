"""The float64 BLAS kernels of ``_gflinalg`` against the int64 reference.

Products and ranks must agree exactly with ``linalg_reference`` over
GF(p), GF(p^2) and GF(3^6) (q = 27 gives e = 6), on random matrices, on
all-(p - 1) matrices, on low-rank products, with zero columns, at the
panel width +- 1, and for tall and wide shapes.  The blocked elimination
must also leave the same remaining rows, in the same order, after every
panel as the column-by-column loop, which pins the pivot rule; banded,
sparse-banded and zero-suffix matrices, and the oracle's Gram matrices,
check that trimming each panel to its nonzero rows and columns changes
nothing; GF(239^2) and GF(251), the largest p of the sweep, carry the
largest unreduced digits inside a panel, and the elimination is exact at
the largest p its int64 guard admits.  A zero candidate row with a
nonzero row below it, after zero columns, exercises the swap, and the
elimination of a published n = 421 Gram matrix stops one panel after its
last pivot.  Panels of more than ``_TALL`` rows, eliminated on a window
of rows, must leave the same states on low-rank, banded and zero-suffix
matrices, when a column is zero on the whole window and a row past it is
brought in and swapped up, and at the largest p the window's GEMMs
admit, and the rows past the window are brought in by one GEMM, at the
first such column or else at the end; at the largest p of the int64 guard a tall panel keeps the full
update and still ranks without a GEMM.  The float64 reduction ``_mod`` must agree with Python's %
up to the largest sum a Schur update can form.  The table of pivot
inverse maps must agree with the reference ``FieldElement.inverse`` on
every unit, and one wrong entry in it must break the panel states, of a
tall Gram matrix too, and flip the oracle.  A tower field is refused at entry.  The product under
test is ``_gemm``'s float64 sums reduced mod p.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import linalg_reference as ref
from linalg_reference import parity_check_digits
from eaqmds import _gflinalg as gfa
from eaqmds.families import FamilySpec, build_defining_set, spec_from_q, sweep_specs
from eaqmds.fields import GF, mul_tensor, quadratic_extension
from eaqmds.rank_oracle import code_context, entanglement_rank, gram_digits
from eaqmds.cyclic import generator_digits
from field_reference import object_field

# fields as (p, e), built when a test draws or takes them, so that a fault
# in the field constructors fails tests instead of this module's collection
FIELDS = [(2, 1), (13, 1), (83, 1), (251, 1), (3, 2), (13, 2), (29, 2),
          (83, 2), (239, 2), (3, 6)]
PANEL = gfa._PANEL

fields = st.sampled_from(FIELDS).map(lambda pe: GF(*pe))
seeds = st.integers(0, 2**32 - 1)
dims = st.integers(0, 40)


def random_digits(field, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, field.p, (*shape, field.degree), dtype=np.int64)


def low_rank(field, rows, cols, t, seed):
    a = random_digits(field, (rows, t), seed)
    b = random_digits(field, (t, cols), seed + 1)
    return ref.matmul_digits(a, b, field)


def blas_product(a, b, field):
    """The float64 BLAS product of reduced digit matrices, reduced mod p,
    as int64 digits."""
    return gfa._gemm(a, b, field).astype(np.int64) % field.p


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


# ---------------------------------------------------------------------------
# products


@settings(deadline=None)
@given(fields, st.integers(0, 24), st.integers(0, 24), st.integers(0, 24), seeds)
def test_product_matches_reference(field, rows, inner, cols, seed):
    a = random_digits(field, (rows, inner), seed)
    b = random_digits(field, (inner, cols), seed + 1)
    sums = gfa._gemm(a, b, field)
    # the unreduced sums: float64 integers in [0, inner*e*(p-1)^2]
    assert sums.dtype == np.float64 and (sums == np.floor(sums)).all()
    assert sums.min(initial=0) >= 0
    assert sums.max(initial=0) <= inner * field.degree * (field.p - 1) ** 2
    assert np.array_equal(blas_product(a, b, field), ref.matmul_digits(a, b, field))


@settings(deadline=None)
@given(fields, st.integers(1, 24), st.integers(1, 60), st.integers(1, 24))
def test_product_of_all_max_digits(field, rows, inner, cols):
    a = np.full((rows, inner, field.degree), field.p - 1, dtype=np.int64)
    b = np.full((inner, cols, field.degree), field.p - 1, dtype=np.int64)
    assert np.array_equal(blas_product(a, b, field),
                          ref.matmul_digits(a, b, field))


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 64), st.integers(1, 5), st.integers(1, 5))
def test_product_exact_at_the_float64_edge(inner, rows, cols):
    # the largest prime p with inner * (p - 1)^2 < 2^53: every partial sum
    # of the all-(p - 1) product reaches the bound, and each entry is
    # inner * (p - 1)^2 = inner mod p
    p = int((2**53 / inner) ** 0.5) + 2
    while inner * (p - 1) ** 2 >= 2**53 or not is_prime(p):
        p -= 1
    field = GF(p)
    a = np.full((rows, inner, 1), p - 1, dtype=np.int64)
    b = np.full((inner, cols, 1), p - 1, dtype=np.int64)
    out = blas_product(a, b, field)
    assert (out == inner % p).all()
    assert np.array_equal(out, ref.matmul_digits(a, b, field))
    with pytest.raises(ValueError, match=r"2\^53"):
        blas_product(np.concatenate([a, a[:, :1]], axis=1),
                          np.concatenate([b, b[:1]], axis=0), field)


def test_exactness_guard_names_the_float64_bound():
    field = GF(134217757, 1)
    one = np.ones((1, 1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match=r"float64.*2\^53"):
        blas_product(one, one, field)


# 23726561 is the largest prime p with PANEL*(p - 1)^2 < 2^53, the p of
# test_panels_exact_at_the_largest_p_the_schur_gemm_admits
@pytest.mark.parametrize("p", [2, 3, 29, 239, 23726561])
def test_float_reduction_matches_python_mod(p):
    # the largest sum a Schur update forms under _gemm's guard: m*(p-1)^2
    # from the GEMM, m = k*e for k <= PANEL pivots and a degree e below
    # 2^20 (past any field whose tables fit in memory), plus a row digit
    # p - 1; and the top of _mod's range, 2^53 - 1
    assert is_prime(p)
    m = min((2**53 - 1) // (p - 1) ** 2, PANEL << 20)
    schur = m * (p - 1) ** 2 + p - 1
    assert schur < 2**53
    values = {0, schur, 2**53 - 1}
    for k in (1, 2, 3, schur // p, (2**53 - 1) // p):
        values |= {k * p - 1, k * p, k * p + 1}
    values = sorted(v for v in values if 0 <= v < 2**53)
    x = np.array(values, dtype=np.float64)
    assert x.astype(np.int64).tolist() == values
    expected = [v % p for v in values]
    digits = np.empty(len(x), dtype=np.int64)
    assert gfa._mod(x, p, digits) is digits and digits.tolist() == expected
    assert gfa._mod(x, p, x) is x and x.tolist() == expected


def test_product_reduces_digits_outside_the_range():
    field = GF(13, 2)
    a = random_digits(field, (5, 6), 1)
    b = random_digits(field, (6, 4), 2)
    shifted = blas_product(gfa._reduced(a - 13, 13), gfa._reduced(b + 26, 13), field)
    assert np.array_equal(shifted, ref.matmul_digits(a, b, field))
    assert gfa._reduced(a, 13) is a


def test_product_rejects_incompatible_shapes():
    field = GF(13, 2)
    with pytest.raises(ValueError, match="incompatible"):
        blas_product(random_digits(field, (2, 3), 0),
                          random_digits(field, (4, 2), 0), field)


def test_rank_refuses_a_tower_field():
    # a tower level over GF(13^2) has 4 digits an element but degree 2: the
    # rank must refuse it at entry, not size its panel from the degree
    tower = quadratic_extension(GF(13, 2))
    a = random_digits(GF(13, 4), (5, 5), 0)
    with pytest.raises(ValueError, match="single-level"):
        gfa.rank_digits(a, tower)


# ---------------------------------------------------------------------------
# rank


@settings(deadline=None)
@given(fields, dims, dims, seeds)
def test_rank_matches_reference(field, rows, cols, seed):
    a = random_digits(field, (rows, cols), seed)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


@settings(deadline=None)
@given(fields, st.integers(1, 40), st.integers(1, 40), st.integers(0, 6), seeds)
def test_rank_of_low_rank_product(field, rows, cols, t, seed):
    a = low_rank(field, rows, cols, t, seed)
    rank = gfa.rank_digits(a, field)
    assert rank == ref.rank_digits(a, field)
    assert rank <= t


@settings(deadline=None)
@given(fields, st.integers(1, 40), st.integers(1, 40), st.integers(0, 8), seeds,
       st.data())
def test_rank_with_zero_columns(field, rows, cols, t, seed, data):
    a = low_rank(field, rows, cols, t, seed)
    zero = data.draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    a[:, zero] = 0
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


@settings(deadline=None)
@given(fields, st.sampled_from([PANEL - 1, PANEL, PANEL + 1, 2 * PANEL - 1,
                                2 * PANEL, 2 * PANEL + 1]),
       st.integers(1, 40), st.integers(0, 40), seeds)
def test_rank_at_panel_width(field, cols, rows, t, seed):
    a = low_rank(field, rows, cols, t, seed)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


@settings(deadline=None)
@given(fields, st.integers(1, 30), st.integers(1, 30), st.booleans(),
       st.integers(0, 12), seeds)
def test_rank_tall_and_wide(field, small, extra, tall, t, seed):
    rows, cols = (small + extra, small) if tall else (small, small + extra)
    a = low_rank(field, rows, cols, t, seed)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


def assert_panel_states_match(a, field):
    """After each panel, the remaining rows equal the column loop's state."""
    states = ref.elimination_states(a, field)
    col = -1
    for _, remaining in gfa._panels(a, field):
        col = min(col + PANEL, a.shape[1] - 1)
        if col < len(states):
            expected = states[col][1]
        else:   # the loop stopped once every row held a pivot
            expected = np.zeros((0, a.shape[1] - col - 1, field.degree))
        assert remaining.shape == expected.shape
        assert np.array_equal(remaining, expected)


@settings(deadline=None)
@given(fields, st.integers(1, 40), st.integers(1, 50), st.integers(0, 40), seeds,
       st.data())
def test_panels_leave_the_column_loop_state(field, rows, cols, t, seed, data):
    a = low_rank(field, rows, cols, t, seed)
    zero = data.draw(st.lists(st.integers(0, cols - 1), max_size=4))
    a[:, zero] = 0
    assert_panel_states_match(a, field)


@settings(deadline=None)
@given(fields, st.integers(2, 40), st.integers(2, 50), st.integers(0, 40), seeds,
       st.data())
def test_panels_swap_a_zero_candidate_after_zero_columns(field, rows, cols, t, seed,
                                                          data):
    # the first columns are zero, so the scan passes them with no pivot;
    # in the next column the candidate row 0 (and the rows down to ``lead``)
    # is zero and a later row is not, so that row is swapped up, and the
    # pivot's inverse is read from the swapped row
    a = low_rank(field, rows, cols, t, seed)
    skip = data.draw(st.integers(0, cols - 1))
    lead = data.draw(st.integers(1, rows - 1))
    below = data.draw(st.integers(lead, rows - 1))
    a[:, :skip] = 0
    a[:lead, skip] = 0
    a[below, skip, 0] = data.draw(st.integers(1, field.p - 1))
    zero = data.draw(st.lists(st.integers(skip + 1, cols), max_size=4))
    a[:, [c for c in zero if c < cols]] = 0
    assert_panel_states_match(a, field)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


def banded(field, rows, cols, lower, upper, density, seed):
    """Random digits on the band -lower <= j - i <= upper, each kept with
    probability ``density``; zero elsewhere."""
    a = random_digits(field, (rows, cols), seed)
    i, j = np.ogrid[:rows, :cols]
    keep = (j - i <= upper) & (i - j <= lower)
    keep &= np.random.default_rng(seed + 2).random((rows, cols)) < density
    return a * keep[..., None]


@settings(deadline=None)
@given(fields, st.integers(1, 60), st.integers(1, 60), st.integers(0, 40),
       st.integers(0, 20), st.integers(0, 20), seeds)
def test_panels_on_banded_rank_deficient_matrices(field, rows, cols, t, lower, upper,
                                                  seed):
    # a product through t < min(rows, cols) columns has rank <= t; banded
    # factors keep it banded, and rows past t + lower are zero
    a = ref.matmul_digits(banded(field, rows, t, lower, upper, 1.0, seed),
                          banded(field, t, cols, lower, upper, 1.0, seed + 1), field)
    assert_panel_states_match(a, field)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


@settings(deadline=None)
@given(fields, st.integers(1, 60), st.integers(1, 60), st.integers(0, 30),
       st.integers(0, 30), st.floats(0.05, 1.0), seeds)
def test_panels_on_sparse_banded_matrices(field, rows, cols, lower, upper, density,
                                          seed):
    a = banded(field, rows, cols, lower, upper, density, seed)
    assert_panel_states_match(a, field)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


@settings(deadline=None)
@given(fields, st.integers(1, 40), st.integers(1, 50), st.integers(0, 40),
       st.integers(1, 30), seeds)
def test_panels_with_zero_suffix_rows(field, rows, cols, t, zero_rows, seed):
    a = low_rank(field, rows, cols, t, seed)
    a = np.concatenate([a, np.zeros((zero_rows, cols, field.degree), dtype=np.int64)])
    assert_panel_states_match(a, field)


# tall panels: more than gfa._TALL live rows, eliminated on a window of rows

tall_rows = st.integers(gfa._TALL + 1, 150)


def assert_tall_panel_states_match(a, field):
    """``assert_panel_states_match``, checking too that the first panel ran
    on a window exactly when it has more than ``_TALL`` rows up to its last
    live one (every field of FIELDS passes the window's 2^53 rule)."""
    windows = []
    eliminate = gfa._eliminate_panel

    def spy(source, f, window):
        windows.append(window)
        return eliminate(source, f, window)

    live = np.flatnonzero(a[:, :PANEL].any(axis=(1, 2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfa, "_eliminate_panel", spy)
        assert_panel_states_match(a, field)
    assert windows[:1] == ([live[-1] >= gfa._TALL] if live.size else [False])


@settings(deadline=None, max_examples=40)
@given(fields, tall_rows, st.integers(1, 50), st.integers(0, 40), seeds, st.data())
def test_tall_panels_leave_the_column_loop_state(field, rows, cols, t, seed, data):
    a = low_rank(field, rows, cols, t, seed)
    zero = data.draw(st.lists(st.integers(0, cols - 1), max_size=4))
    a[:, zero] = 0
    assert_tall_panel_states_match(a, field)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


@settings(deadline=None, max_examples=40)
@given(fields, tall_rows, st.integers(1, 60), st.integers(0, 40),
       st.integers(0, 150), st.integers(0, 20), seeds)
def test_tall_panels_on_banded_rank_deficient_matrices(field, rows, cols, t, lower,
                                                       upper, seed):
    a = ref.matmul_digits(banded(field, rows, t, lower, upper, 1.0, seed),
                          banded(field, t, cols, lower, upper, 1.0, seed + 1), field)
    assert_tall_panel_states_match(a, field)


@settings(deadline=None, max_examples=40)
@given(fields, tall_rows, st.integers(1, 50), st.integers(0, 40), st.integers(1, 80),
       seeds)
def test_tall_panels_with_zero_suffix_rows(field, rows, cols, t, zero_rows, seed):
    a = low_rank(field, rows, cols, t, seed)
    a = np.concatenate([a, np.zeros((zero_rows, cols, field.degree), dtype=np.int64)])
    assert_tall_panel_states_match(a, field)


@settings(deadline=None, max_examples=40)
@given(fields, tall_rows, st.integers(2, 50), st.integers(0, 40), seeds, st.data())
def test_tall_panel_brings_in_a_row_past_the_window(field, rows, cols, t, seed, data):
    # the first ``lead`` rows, the whole first window and maybe more, are
    # zero in column ``skip`` (after ``skip`` zero columns) or span only
    # ``t`` dimensions, so some column is zero on every window row while a
    # row past the window is not: that row is brought up to date, swapped
    # up and made the pivot
    a = random_digits(field, (rows, cols), seed)
    lead = data.draw(st.integers(PANEL, rows - 1))
    a[:lead] = low_rank(field, lead, cols, t, seed + 2)
    skip = data.draw(st.integers(0, cols - 1))
    a[:, :skip] = 0
    a[:lead, skip] = 0
    a[data.draw(st.integers(lead, rows - 1)), skip, 0] = data.draw(
        st.integers(1, field.p - 1))
    assert_tall_panel_states_match(a, field)
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field)


def test_tall_panel_swaps_up_the_row_past_the_window():
    # column 0 is zero on the first 70 rows, so on the whole window; row 70
    # is the pivot, swapped with row 0, and the rank is full
    field = GF(13, 2)
    a = random_digits(field, (90, 20), 5)
    a[:70, 0] = 0
    a[70, 0] = [3, 1]
    assert_tall_panel_states_match(a, field)
    k, panel, order = gfa._eliminate_panel(
        a[:, :PANEL].astype(np.float64), field, True)
    assert k == PANEL and order[0] == 70 and order[70] == 0


def test_tall_panel_brings_the_rows_past_the_window_in_once(monkeypatch):
    # a windowed panel calls _brought_in once: at its first column zero on
    # the window, where every row past the window comes up to date from
    # that column on, or else at the end for their records alone
    field = GF(13, 2)
    calls = []
    brought_in = gfa._brought_in

    def spy(source, pivots, piv, start, stop, f, out):
        calls.append((len(source), start, stop))
        return brought_in(source, pivots, piv, start, stop, f, out)

    monkeypatch.setattr(gfa, "_brought_in", spy)
    missed = random_digits(field, (90, 20), 5)
    missed[:70, 0] = 0
    missed[70, 0] = [3, 1]
    full = random_digits(field, (90, 20), 6)
    for a, call in ((missed, (90 - PANEL, 0, PANEL)),
                    (full, (90 - PANEL, PANEL, 2 * PANEL))):
        calls.clear()
        k, _, _ = gfa._eliminate_panel(a[:, :PANEL].astype(np.float64), field, True)
        assert k == PANEL and calls == [call]
        assert_tall_panel_states_match(a, field)


def test_rank_leaves_its_input_unchanged():
    field = GF(13, 2)
    a = low_rank(field, 40, 40, 20, 3)
    before = a.copy()
    assert gfa.rank_digits(a, field) == 20
    assert np.array_equal(a, before)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from([(239, 2), (3, 6)]), st.integers(500, 2000),
       st.integers(1, 16), st.integers(1, 300), seeds)
@example((239, 2), 2000, 16, 300, 1)
def test_product_with_many_rows_and_small_inner(pe, rows, inner, cols, seed):
    # the Schur updates' shape: rows >> inner
    field = GF(*pe)
    a = random_digits(field, (rows, inner), seed)
    b = random_digits(field, (inner, cols), seed + 1)
    assert np.array_equal(blas_product(a, b, field),
                          ref.matmul_digits(a, b, field))


def assert_inverse_maps(field):
    """Each unit c's entry is the map x -> x c^-1, row u the digits of
    x^u c^-1 by reference ``FieldElement`` arithmetic; entry 0 is zero."""
    table = gfa.inverse_table(field)
    index = field.p ** np.arange(field.degree)
    objects = object_field(field)
    basis = [objects.from_index(field.p**u) if field.degree > 1 else objects.one
             for u in range(field.degree)]
    assert not table[0].any()
    for i in range(1, field.order):
        x = objects.from_index(i)
        inv = x.inverse()
        entry = table[int(np.asarray(x.coeffs, dtype=np.int64) @ index)]
        assert tuple(entry[0].tolist()) == inv.coeffs
        assert entry.tolist() == [list((inv * xu).coeffs) for xu in basis]


def field_id(value):
    """The test id GF(p^e) of a (p, e) parameter; None keeps pytest's own."""
    return f"GF({value[0] ** value[1]})" if isinstance(value, tuple) else None


@pytest.mark.parametrize("pe", [(2, 3), (3, 2), (13, 2), (7, 1), (29, 2), (2, 1)],
                         ids=field_id)
def test_digit_inverse_matches_field_inverse(pe):
    assert_inverse_maps(GF(*pe))


def test_digit_inverse_over_gf_3_6_and_of_zero():
    assert_inverse_maps(GF(3, 6))


@pytest.mark.parametrize("pe, q", [((2, 1), 2), ((3, 2), 3), ((13, 2), 13),
                                   ((239, 2), 239), ((3, 6), 27), ((2, 3), 2)],
                         ids=field_id)
def test_frobenius_matrix_matches_element_power(pe, q):
    field = GF(*pe)
    # the matrix comes from powers of multiplication maps; check it on
    # every element (at most 512) or 512 spread ones against FieldElement ** q
    frob = gfa.frobenius_matrix(field, q)
    for i in range(0, field.order, max(1, field.order // 512)):
        x = object_field(field).from_index(i)
        image = np.asarray(x.coeffs, dtype=np.int64) @ frob.T % field.p
        assert tuple(image.tolist()) == (x ** q).coeffs


# the cached tables of GF(13^2), with their shapes: a write into one would
# corrupt each later use over that field
CACHED_TABLES = {
    "inverse_table": (gfa.inverse_table, (), (169, 2, 2)),
    "mul_tensor": (mul_tensor, (), (2, 2, 2)),
    "frobenius_matrix": (gfa.frobenius_matrix, (13,), (2, 2)),
}


@pytest.mark.parametrize("name", CACHED_TABLES)
def test_cached_table_is_read_only_and_built_once(name):
    build, args, shape = CACHED_TABLES[name]
    field = GF(13, 2)
    build.cache_clear()
    table = build(field, *args)
    assert build(field, *args) is table
    info = build.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert table.shape == shape
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[(1,) + (0,) * (len(shape) - 1)] = 0


class PowerInverses:
    """Inverse maps of GF(p) by Fermat, for a p too large for the table."""

    def __init__(self, p):
        self.p = p

    def __getitem__(self, c):
        return np.array([[pow(int(c), self.p - 2, self.p)]], dtype=np.int64)


def edge_matrix(p, rows):
    """rows x PANEL digits whose elimination has every multiplier and every
    normalized pivot-row digit equal to -1: a[r, c] = c - 1 for c <= r and
    r + 1 for c > r, mod p, with the rows past PANEL repeating the last.
    Each pivot then subtracts (p - 1)^2 from every later digit of the rows
    below, so the last column takes PANEL - 1 such updates before it is
    scanned."""
    r = np.minimum(np.arange(rows)[:, None], PANEL - 1)
    c = np.arange(PANEL)
    return (np.where(c <= r, c - 1, r + 1) % p)[..., None].astype(np.int64)


@pytest.mark.parametrize("t", [12, 40])
def test_panels_exact_at_the_largest_p_the_schur_gemm_admits(monkeypatch, t):
    # PANEL*(p - 1)^2 just below 2^53: an unreduced coefficient record would
    # make the Schur GEMM inexact, and an unreduced pivot row would overflow
    # int64 when it is normalized
    p = int((2**53 / PANEL) ** 0.5) + 2
    while PANEL * (p - 1) ** 2 >= 2**53 or not is_prime(p):
        p -= 1
    field = GF(p)
    monkeypatch.setattr(gfa, "inverse_table", lambda f: PowerInverses(f.p))
    assert_panel_states_match(low_rank(field, 40, 3 * PANEL, t, t), field)


def test_elimination_guard_names_the_int64_bound(monkeypatch):
    # the largest prime p with PANEL*(p - 1)^2 < 2^63 is exact; the first
    # prime past the bound is refused before any table is built
    p = int((2**63 / PANEL) ** 0.5) + 2
    while PANEL * (p - 1) ** 2 >= 2**63 or not is_prime(p):
        p -= 1
    field = GF(p)
    monkeypatch.setattr(gfa, "inverse_table", lambda f: PowerInverses(f.p))
    a = edge_matrix(p, PANEL + 4)
    assert gfa.rank_digits(a, field) == PANEL
    assert_panel_states_match(a, field)
    refused = p + 1
    while not is_prime(refused):
        refused += 1
    assert PANEL * (refused - 1) ** 2 >= 2**63
    monkeypatch.setattr(gfa, "inverse_table", None)
    with pytest.raises(ValueError, match=r"int64.*2\^63"):
        gfa.rank_digits(edge_matrix(refused, PANEL + 4), GF(refused))


def test_tall_panels_exact_at_the_largest_p_the_schur_gemm_admits(monkeypatch):
    # the window's own products (rows brought in, the records of the rows
    # never brought in) are float64 GEMMs too, at the edge of their guard
    p = int((2**53 / PANEL) ** 0.5) + 2
    while PANEL * (p - 1) ** 2 >= 2**53 or not is_prime(p):
        p -= 1
    field = GF(p)
    monkeypatch.setattr(gfa, "inverse_table", lambda f: PowerInverses(f.p))
    for t, rows in ((12, 100), (40, 100), (3 * PANEL, 5 * PANEL)):
        a = low_rank(field, rows, 3 * PANEL, t, t)
        a[:PANEL + 4, 1] = 0       # a column zero on the whole first window
        assert_tall_panel_states_match(a, field)


def test_tall_elimination_at_the_int64_guard_needs_no_gemm(monkeypatch):
    # at the largest p of the int64 guard, PANEL*(p - 1)^2 >= 2^53: a tall
    # panel keeps the full per-pivot update, whose GEMM-free single panel
    # ranks this 80 x 16 matrix with a column zero on its first 16 rows
    p = int((2**63 / PANEL) ** 0.5) + 2
    while PANEL * (p - 1) ** 2 >= 2**63 or not is_prime(p):
        p -= 1
    assert p == 759250111 and PANEL * (p - 1) ** 2 >= 2**53
    field = GF(p)
    monkeypatch.setattr(gfa, "inverse_table", lambda f: PowerInverses(f.p))
    a = edge_matrix(p, 5 * PANEL)
    a[:PANEL, 3] = 0
    a[PANEL:, 3] = np.arange(1, 4 * PANEL + 1)[:, None]
    assert gfa.rank_digits(a, field) == ref.rank_digits(a, field) == PANEL
    assert_panel_states_match(a, field)


# ---------------------------------------------------------------------------
# the oracle's own matrices: H H-dagger of the benchmark specs


ORACLE_SPECS = [s for s in sweep_specs(5, 250) if s.n <= 150]
PUBLISHED_421 = spec_from_q(3, 1, 29, 3)   # [[421,129,189;84]]_29


def hh_dagger(spec):
    subfield, tower, lam = code_context(spec.q, spec.n)
    hd = parity_check_digits(
        generator_digits(tower, lam, build_defining_set(spec).complement()), spec.n)
    hdag = ref.conjugate_transpose_digits(hd, subfield, spec.q)
    return hd, hdag, subfield


def test_oracle_products_and_ranks_match_reference():
    for spec in ORACLE_SPECS + [PUBLISHED_421]:
        hd, hdag, f = hh_dagger(spec)
        product = blas_product(hd, hdag, f)
        assert np.array_equal(product, ref.matmul_digits(hd, hdag, f)), spec
        assert gfa.rank_digits(product, f) == ref.rank_digits(product, f), spec


def test_oracle_panels_leave_the_column_loop_state():
    spec = ORACLE_SPECS[0]
    hd, hdag, f = hh_dagger(spec)
    assert_panel_states_match(blas_product(hd, hdag, f), f)


def test_elimination_stops_after_the_last_pivot():
    # H H-dagger of [[421,129,189;84]]_29 has 188 rows and rank 84: the
    # pivots fill six panels, and the seventh, with no live row, ends the
    # elimination; the five panels of columns past it are never formed
    subfield, tower, lam = code_context(PUBLISHED_421.q, PUBLISHED_421.n)
    h = generator_digits(tower, lam, build_defining_set(PUBLISHED_421).complement())
    a = gram_digits(h, subfield, PUBLISHED_421.q, PUBLISHED_421.n)
    assert a.shape[:2] == (188, 188)
    assert_panel_states_match(a, subfield)
    ranks = [k for k, _ in gfa._panels(a, subfield)]
    assert sum(ranks) == gfa.rank_digits(a, subfield) == 84
    assert len(ranks) <= 7 and ranks[-1] == 0


def test_oracle_gram_panels_leave_the_column_loop_state():
    # the banded Hermitian Toeplitz matrices the oracle eliminates
    for spec in ORACLE_SPECS:
        subfield, tower, lam = code_context(spec.q, spec.n)
        h = generator_digits(tower, lam, build_defining_set(spec).complement())
        assert_panel_states_match(gram_digits(h, subfield, spec.q, spec.n), subfield)


# ---------------------------------------------------------------------------
# fault reach: a wrong entry of the inverse table must be seen


def corrupt_inverse(monkeypatch, field, index, replacement):
    """Serve a copy of field's inverse table whose entry at ``index`` is the
    entry at ``replacement``."""
    bad = gfa.inverse_table(field).copy()
    bad[index] = bad[replacement]
    table = gfa.inverse_table
    monkeypatch.setattr(gfa, "inverse_table",
                        lambda f: bad if f == field else table(f))


def test_fault_wrong_pivot_inverse_breaks_panel_states(monkeypatch):
    spec = FamilySpec(1, 1, 3, 1)   # [[85,33,33;12]]_13
    subfield, tower, lam = code_context(spec.q, spec.n)
    h = generator_digits(tower, lam, build_defining_set(spec).complement())
    a = gram_digits(h, subfield, spec.q, spec.n)
    assert_panel_states_match(a, subfield)
    # the first pivot is the diagonal entry 10 of GF(13) in GF(169); the
    # map of its inverse 4 is served as the map of 1, the identity
    assert a[0, 0].tolist() == [10, 0]
    corrupt_inverse(monkeypatch, subfield, 10, 1)
    with pytest.raises(AssertionError):
        assert_panel_states_match(a, subfield)


def test_fault_wrong_pivot_inverse_breaks_tall_panel_states(monkeypatch):
    spec = FamilySpec(1, 1, 4, 2)   # n = 145 over GF(17^2): H H-dagger is 76 x 76
    subfield, tower, lam = code_context(spec.q, spec.n)
    h = generator_digits(tower, lam, build_defining_set(spec).complement())
    a = gram_digits(h, subfield, spec.q, spec.n)
    assert a.shape[0] > gfa._TALL
    assert_tall_panel_states_match(a, subfield)
    # the first pivot is 16; the map of its inverse is served as the identity
    assert a[0, 0].tolist() == [16, 0]
    corrupt_inverse(monkeypatch, subfield, 16, 1)
    with pytest.raises(AssertionError):
        assert_panel_states_match(a, subfield)


def test_fault_wrong_pivot_inverse_flips_match(monkeypatch):
    spec = FamilySpec(1, 1, 3, 1)
    assert entanglement_rank(spec).match
    subfield, _, _ = code_context(spec.q, spec.n)
    corrupt_inverse(monkeypatch, subfield, 10, 1)
    report = entanglement_rank(spec)
    assert not report.match
    assert report.rank_hh_dagger == 14
