"""The closed-form run products of ``cyclic`` against the coset product.

``generator_digits`` builds each maximal cyclic run of a defining set by
the q-binomial theorem; ``cyclic_reference.coset_product_digits``
multiplies one coset quadratic at a time.  The two must agree digit for
digit on g and h of the sweep specs, on random runs and on random unions
of cosets, over GF(q^2) with e = 2, 4 and 6.  Mutants of the formula must
be caught: by the subfield check, by G H^T = 0 or rank(H H†), or, for a
mutant those cannot see, by the reference.  A root of unity that is not
primitive must be refused.
"""

import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

import cyclic_reference as cref
from eaqmds import cyclic
from eaqmds.cosets import ResidueSet, is_coset_closed, run_defining_set
from eaqmds.cyclic import generator_digits
from eaqmds.families import build_defining_set, sweep_specs
from eaqmds.fields import _powers, _times_matrix
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
    # lam^5 has order 17: it passes lam^85 = 1, but 1 - lam^(5j) = 0 at j = 17
    _, tower, lam = code_context(13, 85)
    lam5 = tuple(_powers(_times_matrix(lam, tower), [5], tower.p)[0].tolist())
    z = run_defining_set(85, 42, 16)
    for s in (z, z.complement()):           # runs of 32 and 53 exponents
        with pytest.raises(ValueError, match="not a primitive"):
            generator_digits(tower, lam5, s)


# ---------------------------------------------------------------------------
# mutants of the formula, each a source edit of cyclic._run_product


MUTANTS = {
    "start_off_by_one": [("start * k", "(start + 1) * k")],
    "k_k_plus_1": [("k * (k - 1) - m", "k * (k + 1) - m")],
    "sign_dropped": [("c[(m + 1) % 2::2] *= -1", "c *= (-1) ** m")],
    "s1_inverse_left_out": [("(k * (k - 1) - m * (m + 1)) // 2", "k * (k - 1) // 2"),
                            ("c[(m + 1) % 2::2] *= -1", "c[1::2] *= -1"),
                            ("return (c @ _times_matrix(s[0], tower) % p)[::-1]",
                             "return c[::-1]")],
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


def oracle_catches(spec):
    """Whether the subfield check, rank(H H†) or G H^T = 0 sees the fault."""
    try:
        return not (entanglement_rank(spec).match and generator_parity_orthogonal(spec))
    except ValueError as err:
        assert "escapes the subfield" in str(err)
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


@pytest.mark.parametrize("name, caught_by_oracle", [
    ("start_off_by_one", 29), ("k_k_plus_1", 29), ("s1_inverse_left_out", 29),
    # with (-1)^k dropped the run product is prod (x + lam^j): the code of the
    # roots -lam^j, the image of C under c_i -> (-1)^i c_i, which keeps
    # G H^T = 0 and rank(H H†).  So only the reference sees it.
    ("sign_dropped", 0)])
def test_formula_mutant_is_caught(mutate, name, caught_by_oracle):
    assert len(ORACLE_SPECS) == 29
    assert not any(oracle_catches(spec) for spec in ORACLE_SPECS)
    mutate(MUTANTS[name])
    assert sum(oracle_catches(spec) for spec in ORACLE_SPECS) == caught_by_oracle
    assert all(reference_catches(spec) for spec in ORACLE_SPECS)
