"""The closed-form run products of ``cyclic`` against the coset product.

``generator_digits`` builds each maximal cyclic run of a defining set by
the q-binomial theorem from one cached table of lam-factorials per
(tower, lam, n); ``cyclic_reference.coset_product_digits`` multiplies one
coset quadratic at a time.  The two must agree digit for digit on g and h
of the sweep specs, on random runs and on random unions of cosets, over
GF(q^2) with e = 2, 4 and 6.  Mutants of the formula must be caught: by
the subfield check, the root check, G H^T = 0 or rank(H H†), or, for a
mutant those cannot see, by the reference.  A root of unity that is not
primitive must be refused, and one table must serve a whole (q, n) pair.
The batched tower products are exact on all-(p - 1) digits, and refused
past their float64 bound.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclic_reference as cref
from eaqmds import cyclic
from eaqmds.cosets import ResidueSet, is_coset_closed, run_defining_set
from eaqmds.cyclic import generator_digits
from eaqmds.families import build_defining_set, sweep_specs
from eaqmds.fields import GF, _powers, _times_matrix, is_prime, mul_tensor, \
    quadratic_extension
from eaqmds.rank_oracle import code_context, entanglement_rank, \
    generator_parity_orthogonal

SPECS_300 = [s for s in sweep_specs(5, 250) if s.n <= 300]
ORACLE_SPECS = [s for s in sweep_specs(5, 250) if s.n <= 150]


def matches_reference(tower, lam, z):
    return generator_digits(tower, lam, z).tobytes() == \
        cref.coset_product_digits(tower, lam, z).tobytes()


def test_g_and_h_match_the_coset_product_on_sweep_specs():
    assert len(SPECS_300) == 55
    for spec in SPECS_300:
        _, tower, lam = code_context(spec.q, spec.n)
        z = build_defining_set(spec)
        assert matches_reference(tower, lam, z), spec
        assert matches_reference(tower, lam, z.complement()), spec


# (q, n) with n | q^2 + 1: GF(q^2) has e = 2 (q = 3, 13), 4 (q = 9) and 6 (q = 27)
CONTEXTS = [(3, 5), (3, 10), (13, 85), (9, 41), (27, 73)]


@st.composite
def defining_sets(draw):
    """(q, n, members): a cyclic run, coset-closed or not, or a union of cosets."""
    q, n = draw(st.sampled_from(CONTEXTS))
    if draw(st.booleans()):
        start, m = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
        return q, n, tuple(range(start, start + m))
    reps = draw(st.sets(st.integers(0, n // 2)))
    return q, n, tuple(x for i in reps for x in (i, n - i))


@settings(deadline=None, max_examples=80)
@given(defining_sets())
@example((13, 85, ()))                      # m = 0: g = 1
@example((13, 85, (0,)))                    # m = 1: x - 1
@example((3, 10, (5,)))                     # m = 1: x + 1
@example((13, 85, tuple(range(1, 85))))     # m = n - 1: (x^n - 1) / (x - 1)
@example((3, 10, tuple(range(-4, 5))))      # m = n - 1 without n/2
@example((27, 73, tuple(range(73))))        # m = n: x^n - 1
@example((9, 41, (20, 21)))                 # the family run [s, s + 1], delta = 1
def test_closed_form_matches_coset_product(case):
    q, n, members = case
    _, tower, lam = code_context(q, n)
    z = ResidueSet.of(n, members)
    if is_coset_closed(n, q * q % n, z):
        assert matches_reference(tower, lam, z)
    else:
        with pytest.raises(ValueError, match="cyclotomic cosets"):
            generator_digits(tower, lam, z)


def test_non_primitive_root_is_refused():
    # lam^5 has order 17: it passes lam^85 = 1, but 1 - lam^(5j) = 0 at j = 17,
    # so the lam-factorial P_84 is 0, not 85
    _, tower, lam = code_context(13, 85)
    lam5 = tuple(_powers(_times_matrix(lam, tower), [5], tower.p)[0].tolist())
    z = run_defining_set(85, 42, 16)
    for s in (z, z.complement()):           # runs of 32 and 53 exponents
        with pytest.raises(ValueError, match="not a primitive"):
            generator_digits(tower, lam5, s)


def test_non_primitive_root_is_refused_on_a_run_without_a_zero_factor():
    # on the run 38 ... 47 no 5j is a multiple of 85, so no factor 1 - lam^(5j)
    # of its own q-binomial is zero; P_84 of the (q, n) pair's table still is
    _, tower, lam = code_context(13, 85)
    lam5 = tuple(_powers(_times_matrix(lam, tower), [5], tower.p)[0].tolist())
    z = run_defining_set(85, 42, 5)
    assert list(z) == list(range(38, 48))
    with pytest.raises(ValueError, match="not a primitive"):
        generator_digits(tower, lam5, z)


def test_batched_products_span_row_blocks():
    # the tower over GF(13^2) has dim 4, so a block holds 2^20 // 16 = 65 536 rows
    _, tower, _ = code_context(13, 85)
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 13, size=(2, 65_536 + 3, 4))
    by_map = (a[:, None, :] @ _times_matrix(b, tower))[:, 0] % 13
    assert np.array_equal(cyclic._times(a, b, tower), by_map)


def python_int_times(a, b, field):
    """a_i b_i by ``mul_tensor`` on Python ints, reduced once."""
    t = mul_tensor(field).astype(object)
    outer = a.astype(object)[:, :, None, None] * b.astype(object)[:, None, :, None]
    return ((outer * t).sum(axis=(1, 2)) % field.p).astype(np.int64)


@pytest.mark.parametrize("p, e", [(239, 2), (3, 6)])
def test_batched_products_exact_on_all_max_digits(p, e):
    # the towers over GF(239^2) and GF(3^6): dim 4 and 12, so the float64
    # sums reach 16*238^3 and 144*2^3; random rows ride along
    tower = quadratic_extension(GF(p, e))
    dim = len(mul_tensor(tower))
    top = np.full((3, dim), p - 1)
    rng = np.random.default_rng(p)
    a, b = np.vstack([top, rng.integers(0, p, (5, dim))]), \
        np.vstack([top, rng.integers(0, p, (5, dim))])
    out = cyclic._times(a, b, tower)
    assert out.dtype == np.int64
    assert np.array_equal(out, python_int_times(a, b, tower))


def test_batched_products_guard_names_the_float64_bound():
    # the largest prime p with dim^2*(p - 1)^3 < 2^53 over the tower of
    # GF(p) (dim 2) is exact on all-(p - 1) digits; the next prime is refused
    p = int((2**53 / 4) ** (1 / 3)) + 2
    while 4 * (p - 1) ** 3 >= 2**53 or not is_prime(p):
        p -= 1
    tower = quadratic_extension(GF(p))
    a = np.full((3, 2), p - 1)
    assert np.array_equal(cyclic._times(a, a, tower), python_int_times(a, a, tower))
    refused = p + 1
    while not is_prime(refused):
        refused += 1
    assert 4 * (refused - 1) ** 3 >= 2**53
    with pytest.raises(ValueError, match=r"float64.*2\^53"):
        cyclic._times(a, a, quadratic_extension(GF(refused)))


def test_one_table_serves_every_alpha_and_both_polynomials():
    specs = [s for s in sweep_specs(5, 250) if (s.q, s.n) == (17, 145)]
    assert len(specs) == 8
    generator_digits.cache_clear()
    cyclic._root_table.cache_clear()
    for spec in specs:
        _, tower, lam = code_context(spec.q, spec.n)
        z = build_defining_set(spec)
        assert matches_reference(tower, lam, z), spec
        assert matches_reference(tower, lam, z.complement()), spec
    assert cyclic._root_table.cache_info().misses == 1


# ---------------------------------------------------------------------------
# mutants of the formula, each a source edit of cyclic._run_product


MUTANTS = {
    "start_off_by_one": [("start * k", "(start + 1) * k")],
    "k_k_plus_1": [("k * (k - 1) -", "k * (k + 1) -")],
    "reflection_shifted": [("(n - 1 - k) * (n - k)", "(n - k) * (n + 1 - k)")],
    "n_inverse_once": [("pow(n, -2, p)", "pow(n, -1, p)")],
    "p_m_left_out": [("fact[m] * pow(n, -2, p) % p", "fact[0] * pow(n, -2, p) % p")],
    "sign_dropped": [("c[(m + 1) % 2::2] *= -1", "c *= (-1) ** m")],
}


@pytest.fixture
def mutate(monkeypatch):
    """Serve ``cyclic._run_product`` with the given source edits made; g and
    h are memoized, so they are rebuilt under the mutant and after it."""
    def apply(edits):
        source = inspect.getsource(cyclic._run_product)
        for old, new in edits:
            assert old in source, old
            source = source.replace(old, new)
        namespace = dict(vars(cyclic))
        exec(source, namespace)
        monkeypatch.setattr(cyclic, "_run_product", namespace["_run_product"])
        generator_digits.cache_clear()

    yield apply
    generator_digits.cache_clear()


def oracle_catches(spec, check="does not vanish"):
    """Whether rank(H H†), G H^T = 0 or the given check of ``generator_digits``
    (the root check by default) sees the fault."""
    try:
        return not (entanglement_rank(spec).match and generator_parity_orthogonal(spec))
    except ValueError as err:
        assert check in str(err)
        return True


def reference_catches(spec):
    """Whether g or h differs from the coset product, or is refused."""
    _, tower, lam = code_context(spec.q, spec.n)
    z = build_defining_set(spec)
    try:
        return not (matches_reference(tower, lam, z)
                    and matches_reference(tower, lam, z.complement()))
    except ValueError:
        return True


def caught(name, by_oracle, check="does not vanish", by_reference=29):
    return pytest.param(name, by_oracle, check, by_reference, id=f"{name}-{by_oracle}")


@pytest.mark.parametrize("name, caught_by_oracle, check, caught_by_reference", [
    caught("start_off_by_one", 29), caught("k_k_plus_1", 29),
    caught("reflection_shifted", 29),
    # without P_m every run product is scaled by P_m^-1, which keeps its roots
    # but leaves GF(q^2)
    caught("p_m_left_out", 29, check="escapes the subfield"),
    # n^-1 for n^-2 scales every run product by n, a unit of GF(p): the same
    # code, with the same roots, G H^T = 0 and rank(H H†), so the oracle
    # cannot see it.  At (q, n) = (27, 73), n = 1 mod 3 and the edit is exact.
    caught("n_inverse_once", 0, by_reference=28),
    # with (-1)^k dropped the run product is prod (x + lam^j); n is odd, so
    # -lam^L is not a root of x^n - 1 and the root check refuses it
    caught("sign_dropped", 29)])
def test_formula_mutant_is_caught(mutate, name, caught_by_oracle, check,
                                  caught_by_reference):
    assert len(ORACLE_SPECS) == 29
    assert not any(oracle_catches(spec) for spec in ORACLE_SPECS)
    mutate(MUTANTS[name])
    assert sum(oracle_catches(spec, check) for spec in ORACLE_SPECS) == caught_by_oracle
    assert sum(reference_catches(spec) for spec in ORACLE_SPECS) == caught_by_reference
