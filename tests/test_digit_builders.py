"""Digit builders of the rank oracle against the object-level reference.

The oracle builds g and h on digit arrays and finds its root of unity
with a primitive-element scan that skips the subfield.  These tests pin
both to ``cyclic_reference`` (the tower-root product and long division on
``FieldElement`` lists) and to a full scan, byte for byte, and show that
faults on the digit path flip or stop the oracle.
"""

import numpy as np
import pytest

import cyclic_reference as cref
from eaqmds import _gflinalg as gfa
from eaqmds import cyclic, rank_oracle
from eaqmds.cosets import ResidueSet
from eaqmds.cyclic import check_digits, generator_digits
from eaqmds.families import FamilySpec, build_defining_set, spec_from_q, sweep_specs
from eaqmds.fields import GF, find_primitive_element, is_prime, prime_factors, \
    quadratic_extension
from eaqmds.rank_oracle import code_context, entanglement_rank

from field_reference import full_scan_primitive

ORACLE_SPECS = [s for s in sweep_specs(5, 250) if s.n <= 150]
PUBLISHED_421 = spec_from_q(3, 1, 29, 3)   # [[421,129,189;84]]_29


def spec_id(spec):
    return f"case{spec.case}-m{spec.m}-k{spec.k}-a{spec.alpha}-n{spec.n}"


@pytest.mark.parametrize("spec", ORACLE_SPECS + [PUBLISHED_421], ids=spec_id)
def test_digit_builders_match_object_path(spec):
    n = spec.n
    subfield, _, lam = code_context(spec.q, n)
    z = build_defining_set(spec).defining_set
    g = cref.generator(lam, z)
    gd = generator_digits(lam, z)
    assert gd.dtype == np.int64
    assert gd.tobytes() == cref.digits(g).tobytes()
    hd = check_digits(gd, subfield, n)
    assert hd.tobytes() == cref.digits(cref.check(g, n)).tobytes()


def test_oracle_specs_are_the_benchmark_subset():
    assert len(ORACLE_SPECS) == 29
    assert PUBLISHED_421.n == 421


def test_generator_digits_rejects_open_set():
    _, _, lam = code_context(13, 85)
    with pytest.raises(ValueError, match="cyclotomic cosets"):
        generator_digits(lam, ResidueSet.of(85, [1]))


def test_generator_digits_rejects_wrong_root():
    # 17 | 13^2 + 1, and {8, 9} is a coset mod 17, but lam has order 85
    _, _, lam = code_context(13, 85)
    with pytest.raises(ValueError, match="root of unity"):
        generator_digits(lam, ResidueSet.of(17, [8, 9]))


def test_generator_digits_rejects_length_without_pair_cosets():
    # 13^2 = 1 mod 7, so the cosets mod 7 are singletons, not {i, n - i}
    _, _, lam = code_context(13, 85)
    with pytest.raises(ValueError, match="not -1"):
        generator_digits(lam, ResidueSet.of(7, [1]))


def test_generator_digits_is_memoized_read_only_and_bounded():
    _, _, lam = code_context(13, 85)
    z = ResidueSet.of(85, [42, 43])
    gd = generator_digits(lam, z)
    assert generator_digits(lam, ResidueSet.of(85, [43, 42])) is gd
    assert not gd.flags.writeable
    assert generator_digits.cache_info().maxsize == 16


def test_code_digits_built_once_per_spec_and_read_only():
    spec = FamilySpec(1, 1, 3, 1)
    rank_oracle._code_digits.cache_clear()
    assert entanglement_rank(spec).match
    assert rank_oracle.generator_parity_orthogonal(spec)
    info = rank_oracle._code_digits.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    _, z, g, h = rank_oracle._code_digits(spec)
    assert z == build_defining_set(spec).defining_set
    assert not g.flags.writeable and not h.flags.writeable


def test_check_digits_rejects_non_divisor():
    subfield, _, lam = code_context(13, 85)
    gd = generator_digits(lam, ResidueSet.of(85, [42, 43]))
    bad = gd.copy()
    bad[0, 0] = (bad[0, 0] + 1) % subfield.p
    with pytest.raises(ValueError, match="does not divide"):
        check_digits(bad, subfield, 85)


def test_check_digits_rejects_each_corrupted_coefficient():
    # one wrong digit anywhere below the leading term of a real g, and the
    # unreduced remainder must still be seen to be nonzero
    spec = FamilySpec(1, 1, 3, 1)       # [[85,33,33;12]]_13, deg g = 32
    subfield, _, lam = code_context(spec.q, spec.n)
    g = generator_digits(lam, build_defining_set(spec).defining_set)
    for j in range(len(g) - 1):
        for u in range(subfield.degree):
            bad = g.copy()
            bad[j, u] = (bad[j, u] + 1 + j % (subfield.p - 1)) % subfield.p
            with pytest.raises(ValueError, match="does not divide"):
                check_digits(bad, subfield, spec.n)


def test_check_digits_guard_names_the_int64_bound():
    # x^3 - 1 = (x - w)(x^2 + w x + w^2), w a cube root of unity: each
    # remainder digit takes min(len g, n - deg g + 1) = 2 subtractions, so
    # p = 2^31 - 1, the largest prime with 2(p - 1)^2 < 2^63, is exact and
    # the next prime is refused
    p = 2**31 - 1
    w = next(r for r in (pow(a, (p - 1) // 3, p) for a in range(2, 50)) if r != 1)
    g = np.array([[p - w], [1]], dtype=np.int64)
    assert check_digits(g, GF(p), 3).tolist() == [[w * w % p], [w], [1]]
    refused = next(r for r in range(p + 1, p + 100) if is_prime(r))
    assert 2 * (refused - 1) ** 2 >= 2**63
    with pytest.raises(ValueError, match=r"int64.*2\^63"):
        check_digits(np.array([[refused - 1], [1]], dtype=np.int64), GF(refused), 3)


def test_singleton_coset_gives_linear_factor():
    # 0 is its own coset {0}; its minimal polynomial is x - 1
    _, _, lam = code_context(13, 85)
    z = ResidueSet.of(85, [0, 42, 43])
    gd = generator_digits(lam, z)
    assert gd.tobytes() == cref.digits(cref.generator(lam, z)).tobytes()


# ---------------------------------------------------------------------------
# primitive-element scan: the subfield skip keeps the canonical element


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
def test_primitive_scan_skip_matches_full_scan(q):
    p = prime_factors(q)[0]
    j = 1
    while p**j < q:
        j += 1
    assert p**j == q
    tower = quadratic_extension(GF(p, 2 * j))
    assert find_primitive_element(tower) == full_scan_primitive(tower)


# ---------------------------------------------------------------------------
# fault reach: each fault on the digit path must flip or stop the oracle


def test_fault_conjugate_with_exponent_one_flips_match(monkeypatch):
    spec = FamilySpec(1, 1, 3, 1)   # [[85,33,33;12]]_13
    assert entanglement_rank(spec).match
    plain = gfa.conjugate_transpose_digits
    monkeypatch.setattr(gfa, "conjugate_transpose_digits",
                        lambda a, field, q: plain(a, field, 1))
    report = entanglement_rank(spec)
    assert not report.match
    assert report.rank_hh_dagger == 32


def test_fault_dropped_row_of_h_flips_match(monkeypatch):
    spec = FamilySpec(2, 1, 2, 2)   # [[61,1,61;60]]_11: H H† has full rank
    assert entanglement_rank(spec).match
    build = rank_oracle.gram_digits
    # H without its first row gives H[1:] H[1:]†: the Gram matrix without
    # its first row and column
    monkeypatch.setattr(rank_oracle, "gram_digits",
                        lambda *args: build(*args)[1:, 1:])
    report = entanglement_rank(spec)
    assert not report.match
    assert report.rank_hh_dagger == 59


@pytest.mark.parametrize("pos", [0, 1, 26, 52, 53])
def test_fault_corrupted_check_coefficient_breaks_orthogonality(monkeypatch, pos):
    spec = FamilySpec(1, 1, 3, 1)   # [[85,33,33;12]]_13: deg h = 53
    assert rank_oracle.generator_parity_orthogonal(spec)
    build = rank_oracle._code_digits

    def corrupted(s):
        field, z, g, h = build(s)
        h = h.copy()
        h[pos, 0] = (h[pos, 0] + 1) % field.p
        return field, z, g, h

    monkeypatch.setattr(rank_oracle, "_code_digits", corrupted)
    assert not rank_oracle.generator_parity_orthogonal(spec)


def test_fault_corrupted_trace_escapes_subfield(monkeypatch):
    spec = FamilySpec(1, 1, 3, 1)
    walk = cyclic._root_pairs
    cyclic.generator_digits.cache_clear()    # g is memoized; rebuild it under the fault
    rank_oracle._code_digits.cache_clear()
    monkeypatch.setattr(cyclic, "_root_pairs",
                        lambda *args: ((up, up) for up, _ in walk(*args)))
    with pytest.raises(ValueError, match="escapes the subfield"):
        entanglement_rank(spec)
