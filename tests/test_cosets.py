"""Cyclotomic cosets, the -q map, run defining sets, and decompositions."""

import random

import numpy as np
import pytest

import residue_reference as ref
from eaqmds.cosets import (
    ResidueSet,
    _times_mod,
    decompose,
    is_coset_closed,
    run_defining_set,
)
from residue_reference import all_cosets, cyclotomic_coset
from eaqmds.families import sweep_specs
from eaqmds.verification import coset_identity_holds


def test_cyclotomic_coset_values():
    assert cyclotomic_coset(85, 84, 1).members == (1, 84)
    assert cyclotomic_coset(85, 84, 0).members == (0,)
    assert cyclotomic_coset(85, 84, 42).members == (42, 43)
    assert cyclotomic_coset(85, 84, 1).members[0] == 1


def test_all_cosets_n85():
    cosets = all_cosets(85, 84)
    assert len(cosets) == 43
    sizes = sorted(len(c) for c in cosets)
    assert sizes == [1] + [2] * 42
    union = sorted(x for c in cosets for x in c.members)
    assert union == list(range(85))
    for c in cosets:
        assert cyclotomic_coset(85, 84, min(c.members)).members == c.members


def test_coset_shape_exhaustive_for_admissible_lengths():
    # every admissible n <= 2500: all cosets are {i, n-i}, sizes <= 2
    seen = set()
    for spec in sweep_specs(5, 250):
        n = spec.n
        if n > 2500 or n in seen:
            continue
        seen.add(n)
        qsq = (spec.q * spec.q) % n
        assert qsq == n - 1
        for c in all_cosets(n, qsq):
            assert len(c) <= 2
            i = c.members[0]
            assert c == ResidueSet.of(n, [i, -i])
    assert seen, "sweep produced no admissible lengths"


def neg_q_image(n, q, s):
    """-qS, scattered by the test reference rather than gathered."""
    return ResidueSet.from_mask(n, ref.image_mask(n, -q, s.array))


def test_neg_q_image_values():
    assert _times_mod(ResidueSet.of(85, [1]).array, -13, 85).tolist() == [72]
    assert _times_mod(ResidueSet.of(85, [0]).array, -13, 85).tolist() == [0]
    r = ResidueSet.of(85, range(10, 20))
    assert len(set(_times_mod(r.array, -13, 85).tolist())) == len(r)


def test_neg_q_image_is_involution_on_coset_closed_sets():
    # oracle: single cosets, runs, and seeded random coset unions for n = 85
    n, q = 85, 13
    cosets = all_cosets(n, (q * q) % n)
    pools = [ResidueSet.of(n, c.members) for c in cosets]
    pools += [run_defining_set(n, 42, d) for d in range(1, 43)]
    rng = random.Random(85)
    for _ in range(50):
        chosen = rng.sample(cosets, rng.randrange(1, 20))
        pools.append(ResidueSet.of(n, [x for c in chosen for x in c.members]))
    inverse = pow(-q, -1, n)
    for s in pools:
        image = neg_q_image(n, q, s)
        assert neg_q_image(n, q, image).members == s.members
        # the gather src/ uses: x lies in -qS exactly when (-q)^-1 x lies in S
        assert np.array_equal(image.mask, s.mask[_times_mod(np.arange(n), inverse, n)])


def neg_q_pair(n, q, u, v):
    """(-q C_{uq+v}, C_{vq-u}) from the coset machinery."""
    qsq = (q * q) % n
    return (neg_q_image(n, q, cyclotomic_coset(n, qsq, u * q + v)),
            cyclotomic_coset(n, qsq, v * q - u))


def test_neg_q_coset_map_is_involution_on_cosets():
    n, q = 85, 13
    cosets = all_cosets(n, 84)
    images = set()
    for c in cosets:
        image = neg_q_image(n, q, c)
        assert image == cyclotomic_coset(n, 84, image.members[0])  # again a coset
        images.add(image)
        assert neg_q_image(n, q, image) == c
    assert len(images) == len(cosets)  # bijection


def test_coset_neg_q_identity_values():
    left, right = neg_q_pair(85, 13, 0, 1)
    assert left.members == right.members == (13, 72)
    left, right = neg_q_pair(85, 13, 1, 0)
    assert left.members == right.members == (1, 84)  # -qC_q = C_{-1} = C_1


def test_coset_neg_q_identity_exhaustive_q13():
    n, q = 85, 13
    for u in range(q):
        for v in range(q):
            if (u * q + v) % n == 0:
                continue
            left, right = neg_q_pair(n, q, u, v)
            assert left.members == right.members, (u, v)
    assert coset_identity_holds(q, n)


def test_cyclotomic_coset_rejects_non_unit_multiplier():
    # 2 is not a unit mod 10: the orbit of 1 is 1, 2, 4, 8, 6, 2, ... and
    # never returns to 1
    with pytest.raises(ValueError, match="multiplier 2 .* n = 10"):
        cyclotomic_coset(10, 2, 1)
    with pytest.raises(ValueError, match="multiplier 5 .* n = 10"):
        all_cosets(10, 5)
    assert cyclotomic_coset(10, 3, 1).members == (1, 3, 7, 9)


def test_run_defining_set_values():
    z = run_defining_set(85, 42, 16)
    assert z.members == tuple(range(27, 59))
    assert len(z) == 32 and z.is_consecutive_run()
    assert run_defining_set(85, 42, 1).members == (42, 43)
    for d in range(1, 43):
        assert len(run_defining_set(85, 42, d)) == 2 * d
    with pytest.raises(ValueError):
        run_defining_set(85, 42, 0)
    with pytest.raises(ValueError):
        run_defining_set(85, 42, 43)


def test_run_defining_set_is_union_of_cosets():
    z = run_defining_set(85, 42, 16)
    assert is_coset_closed(85, 84, z)
    expected = np.zeros(85, dtype=np.bool_)
    for j in range(1, 17):
        expected |= cyclotomic_coset(85, 84, 42 + j).mask
    assert np.array_equal(z.mask, expected)


def test_decompose_table_anchors():
    z = run_defining_set(85, 42, 16)
    z1 = decompose(85, 13, z)
    assert len(z1) == 12
    assert np.array_equal(z1.mask, z.mask & neg_q_image(85, 13, z).mask)

    z145 = run_defining_set(145, 72, 21)
    assert len(decompose(145, 17, z145)) == 12


def test_decompose_empty_set():
    assert decompose(85, 13, ResidueSet.of(85, [])).members == ()


def test_decompose_rejects_non_coset_closed():
    with pytest.raises(ValueError):
        decompose(85, 13, ResidueSet.of(85, [1]))  # misses 84


def test_decompose_rejects_q_that_is_not_a_unit():
    # gcd(17, 85) = 17: -q is not a permutation of the residues mod 85
    with pytest.raises(ValueError, match=r"q = 17 is not a unit mod n = 85"):
        decompose(85, 17, run_defining_set(85, 42, 16))


def test_decompose_rejects_a_set_of_another_modulus():
    with pytest.raises(ValueError, match="modulus mismatch: 85 vs 61"):
        decompose(61, 11, run_defining_set(85, 42, 16))


def test_decompose_z1_is_coset_closed_and_stable():
    z = run_defining_set(85, 42, 16)
    z1 = decompose(85, 13, z)
    assert is_coset_closed(85, 84, z1)
    assert is_coset_closed(85, -13, z1)
    assert neg_q_image(85, 13, z1).members == z1.members


def test_residue_set_operations():
    a = ResidueSet.of(10, [1, 2, 3])
    assert a.complement().members == (0, 4, 5, 6, 7, 8, 9)
    assert a.complement().complement() == a
    assert ResidueSet.of(10, [12, 2]).members == (2,)  # normalized, deduplicated
    with pytest.raises(ValueError):
        ResidueSet.from_mask(11, a.mask)  # a mask mod 10 is not a set mod 11


def test_residue_set_equality_repr_and_empty_run():
    a = ResidueSet.of(10, [3, 1])
    assert a.__eq__(5) is NotImplemented
    assert (a == 5) is False and a != 5
    assert repr(a) == "ResidueSet(n=10, members=(1, 3))"
    assert not ResidueSet.of(10, []).is_consecutive_run()
    assert ResidueSet.of(10, [4, 2, 3]).is_consecutive_run()


def test_coset_container_protocol():
    c = ResidueSet.of(85, (1, 84))
    assert 84 in c and 1 in c and 2 not in c
    assert len(c) == 2
