"""The field context on multiplication maps, against independent references.

``fields`` finds the tower modulus, the primitive element and the root of
unity with GF(p)-linear maps on digits.  These tests pin every choice the
default sweep makes to the object-level searches in ``field_reference``,
check the canonical GF(p, 2j) moduli with sympy's irreducibility test,
and check the field axioms of the tower GF(q^4) with Hypothesis.  The
two power routines, ``_powers`` and ``_power_table``, are checked
against repeated multiplication, and one SHA-256 pins every canonical
choice of the oracle up to n = 1000.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from eaqmds import _gflinalg as gfa
from eaqmds.cyclic import generator_digits
from eaqmds.families import build_defining_set, sweep_specs
from eaqmds.fields import GF, ExactnessError, _index_digits, _power_table, _powers, \
    _times_matrix, find_primitive_element, is_prime, mul_tensor, nth_root_of_unity, \
    prime_power_base, quadratic_extension
from eaqmds.rank_oracle import code_context

from field_reference import embed, full_scan_primitive, object_field, \
    quadratic_modulus_reference

SWEEP = list(sweep_specs(5, 250))
SWEEP_QS = sorted({s.q for s in SWEEP})
SWEEP_PAIRS = sorted({(s.q, s.n) for s in SWEEP if s.n <= 1000})


def subfield_of(q: int):
    """GF(q^2) as the oracle builds it: GF(p, 2j) for q = p^j."""
    p = prime_power_base(q)
    j = 0
    while p**j < q:
        j += 1
    assert p**j == q
    return GF(p, 2 * j)


def test_sweep_coverage():
    assert len(SWEEP_QS) == 60 and max(SWEEP_QS) <= 250
    assert len(SWEEP_PAIRS) == 30


@pytest.mark.parametrize("q", SWEEP_QS)
def test_tower_modulus_and_primitive_element_match_object_scan(q):
    sub = subfield_of(q)
    tower = quadratic_extension(sub)
    assert tower.modulus == quadratic_modulus_reference(sub)
    assert find_primitive_element(tower) == full_scan_primitive(tower, sub.order).digits


@pytest.mark.parametrize("q,n", SWEEP_PAIRS, ids=lambda v: str(v))
def test_root_of_unity_matches_object_power(q, n):
    tower = object_field(quadratic_extension(subfield_of(q)))
    g = tower.from_digits(find_primitive_element(tower.field))
    lam = tower.from_digits(nth_root_of_unity(tower.field, n))
    assert lam == g ** ((tower.order - 1) // n)
    assert lam ** n == tower.one


# Every canonical choice the oracle makes up to n = 1000: both moduli,
# both primitive elements, lam, the Frobenius and the inverse table of
# each (q, n) pair, then g and h of every spec with n <= 150.
CANONICAL_SHA256 = "cd5e61fb77b88a78eb1cfb8321a49e786b8a74b154fc00a5d063e768edf1a1ee"


def test_canonical_choices_digest():
    digest = hashlib.sha256()
    for q, n in SWEEP_PAIRS:
        sub, tower, lam = code_context(q, n)
        digest.update(repr((q, n, sub.modulus, tower.modulus, find_primitive_element(sub),
                            find_primitive_element(tower), lam)).encode())
        for table in (gfa.frobenius_matrix(sub, q), gfa.inverse_table(sub)):
            digest.update(table.tobytes())
    small = [s for s in SWEEP if s.n <= 150]
    assert len(small) == 29
    for spec in small:
        _, tower, lam = code_context(spec.q, spec.n)
        z = build_defining_set(spec)
        for part in (z, z.complement()):
            digest.update(generator_digits(tower, lam, part).tobytes())
    assert digest.hexdigest() == CANONICAL_SHA256


# the largest prime p with (p - 1)^2 < 2^63, and the first prime past it
INT64_EDGE_PRIME, INT64_REFUSED_PRIME = 3037000493, 3037000507


@pytest.mark.parametrize("p", [5, 13, INT64_EDGE_PRIME])
def test_prime_field_scan_matches_object_scan(p):
    # at the edge prime a product of two digits is just below 2^63
    f = GF(p)
    assert mul_tensor(f).dtype == np.int64
    assert find_primitive_element(f) == full_scan_primitive(f).digits


@pytest.mark.parametrize("p", [INT64_REFUSED_PRIME, 4294967311])
def test_multiplication_maps_refuse_past_the_int64_bound(p):
    assert is_prime(INT64_EDGE_PRIME) and is_prime(INT64_REFUSED_PRIME)
    assert all(not is_prime(x) for x in range(INT64_EDGE_PRIME + 1, INT64_REFUSED_PRIME))
    assert (INT64_EDGE_PRIME - 1) ** 2 < 2**63 <= (p - 1) ** 2
    for build in (lambda: mul_tensor(GF(p)), lambda: find_primitive_element(GF(p)),
                  lambda: GF(p, 2)):
        with pytest.raises(ExactnessError, match=r"int64.*p = %d\) < 2\^63" % p):
            build()


# The power tables below are built inside the tests, not at import: the
# fields' moduli and elements come from ``_powers`` itself, so a fault in
# it must fail these tests, not the collection of the module.


def tower_13():
    return quadratic_extension(GF(13, 2))


POWER_BASES = {           # the primitive elements, and lam of the [[85, ...]]_13 codes
    "GF(13^2)": lambda: (GF(13, 2), find_primitive_element(GF(13, 2))),
    "GF(3^6)": lambda: (GF(3, 6), find_primitive_element(GF(3, 6))),
    "GF(13^4)": lambda: (tower_13(), find_primitive_element(tower_13())),
    "GF(13^4)-lam85": lambda: (tower_13(), nth_root_of_unity(tower_13(), 85)),
}


def repeated_products(maps, exp, p):
    """Row 0 of maps^exp by exp steps of row <- row M, from the unit row."""
    row = np.zeros(maps.shape[:-1], dtype=maps.dtype)
    row[..., 0] = 1
    for _ in range(exp):
        row = (row[..., None, :] @ maps)[..., 0, :] % p
    return row


@pytest.mark.parametrize("count", [1, 2, 7, 85])
@pytest.mark.parametrize("name", POWER_BASES)
def test_power_table_matches_matrix_powers(name, count):
    # the doubling table behind inverse_table and generator_digits: row k
    # against k steps of row <- row M on a's map M, block boundaries included
    f, a = POWER_BASES[name]()
    table = _power_table(a, f, count)
    assert table.shape == (count, len(mul_tensor(f))) and table.dtype == np.int64
    step, row = _times_matrix(a, f), np.eye(len(table[0]), dtype=np.int64)[0]
    for k in range(count):
        assert np.array_equal(table[k], row), k
        row = row @ step % f.p


def companion_stack(p, e, count):
    """Companion matrices of the first ``count`` monic degree-e f, as
    ``fields._irreducible`` builds them: row 0 of C^k holds X^k mod f."""
    low = _index_digits(range(count), p, e)
    comp = np.zeros((count, e, e), dtype=np.int64)
    comp[:, :-1, 1:] = np.eye(e - 1, dtype=np.int64)
    comp[:, -1] = -low % p
    return comp


def element_maps(field, shape):
    """A ``shape`` stack of the maps of the elements of index 0, 37, 74, ..."""
    count = int(np.prod(shape))
    digits = _index_digits(range(0, count * 37, 37), field.p, len(mul_tensor(field)))
    return _times_matrix(digits.reshape(shape + (-1,)), field)


POWER_STACKS = {          # (p, a stack of maps)
    "GF(13^2)": lambda: (13, element_maps(GF(13, 2), (5,))),
    "GF(3^6)": lambda: (3, element_maps(GF(3, 6), (2, 3))),
    "GF(13^4)": lambda: (13, element_maps(tower_13(), (4,))),
    "companion-3^6": lambda: (3, companion_stack(3, 6, 6)),
    # mul_tensor refuses so large a p; the 1 x 1 maps of GF(p) are its
    # elements, here Python ints, whose products overflow int64
    "GF(4294967311)": lambda: (4294967311,
                               np.arange(0, 4 * 37, 37).astype(object).reshape(4, 1, 1)),
}


@pytest.mark.parametrize("exps", [[0], [1], [2], [5, 0, 13, 5, 1, 130, 64]],
                         ids=str)
@pytest.mark.parametrize("name", POWER_STACKS)
def test_powers_match_repeated_multiplication(name, exps):
    # every exponent against its own chain of products; 130 and 64 need
    # every bit of max(exps), and the odd ones the unsquared maps
    p, maps = POWER_STACKS[name]()
    got = _powers(maps, exps, p)
    assert got.shape == (len(exps),) + maps.shape[:-1]
    assert got.dtype == maps.dtype == (object if p > 2**32 else np.int64)
    for power, e in zip(got, exps):
        assert np.array_equal(power, repeated_products(maps, e, p)), e


# (p, e) the sweep never builds: one prime r | e (e = 3, 5, where the
# search once used root absence), a repeated prime (e = 9), two primes
# (e = 12), and characteristic 2
MODULUS_PE = [(2, 3), (2, 5), (2, 12), (3, 3), (7, 3), (3, 5), (3, 9), (3, 12)]


def modulus_id(q):
    return "p{}-e{}".format(*q) if isinstance(q, tuple) else str(q)


@pytest.mark.parametrize("q", SWEEP_QS + MODULUS_PE, ids=modulus_id)
def test_canonical_subfield_modulus_is_first_irreducible(q):
    sub = GF(*q) if isinstance(q, tuple) else subfield_of(q)
    p, e = sub.p, sub.degree
    mod = sub.modulus
    assert len(mod) == e + 1 and mod[-1] == 1
    assert gf_irreducible_p(list(reversed(mod)), p, ZZ)
    first = sum(c * p**k for k, c in enumerate(mod[:-1]))
    for v in range(first):
        low = [v // p**k % p for k in range(e)]
        assert not gf_irreducible_p([1] + low[::-1], p, ZZ), (q, v)


# ---------------------------------------------------------------------------
# field axioms in the tower GF(q^4), and the maps against object products

TOWER_QS = [3, 5, 9, 13, 25, 27, 81, 243]


@st.composite
def tower_elements(draw, count):
    sub = subfield_of(draw(st.sampled_from(TOWER_QS)))
    tower = object_field(quadratic_extension(sub))
    idx = st.integers(0, tower.order - 1)
    return tower, [tower.from_index(draw(idx)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(tower_elements(3))
def test_tower_field_axioms(drawn):
    f, (a, b, c) = drawn
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a and a * f.one == a and a * f.zero == f.zero
    assert a - a == f.zero and a + (-a) == f.zero
    if not a.is_zero():
        assert a * a.inverse() == f.one
        assert a ** (f.order - 1) == f.one


@settings(max_examples=80, deadline=None)
@given(tower_elements(2))
def test_multiplication_map_matches_object_product(drawn):
    f, (a, b) = drawn
    p = f.p
    assert tuple((np.array(b.digits) @ _times_matrix(a.digits, f.field) % p).tolist()) \
        == (a * b).digits
    sub = f.base
    x, y = a.coeffs[0], b.coeffs[0]
    assert tuple((np.array(y.digits) @ _times_matrix(x.digits, sub.field) % p).tolist()) \
        == (x * y).digits
    dim = len(mul_tensor(sub.field))
    assert embed(x, f).digits == x.digits + (0,) * dim
