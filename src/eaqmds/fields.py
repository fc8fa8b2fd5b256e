"""Exact arithmetic in GF(p^e) with a canonical quadratic tower, on digits.

A field is GF(p), a direct extension GF(p^e) of it by a monic irreducible
modulus, or a quadratic tower level over another field; the tower
realizes GF(q^4) as a degree-2 extension of GF(q^2).  An element is its
digit tuple: its GF(p) coefficients in the polynomial basis, low first
through every tower level, which are exactly the base-p digits of its
index in the canonical counting order.  A base-field element lies in the
tower level above it as its digits followed by zeros, so subfield
membership is a zero-top-half test and projection is exact.

On digit row vectors the map x -> x a is a GF(p)-linear matrix
(``_times_matrix``, read off the multiplication tensor ``mul_tensor``),
so a product is a vector-matrix product and a^k is row 0 of that matrix
to the k-th power.  ``_powers`` is the one power routine: it raises any
stack of maps (field elements, companion matrices, the basis maps behind
the Frobenius) to a list of exponents by square-and-multiply on row 0.
A run of consecutive powers a^0 ... a^(count-1) is instead one table
built by doubling (``_power_table``).  Every search here runs on such maps.

Moduli and primitive elements are chosen canonically (smallest candidate
in the counting order where the constant coefficient is the least
significant digit), so repeated construction yields identical fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ExactnessError(ValueError):
    """A size refusal: a sum of digit products could leave exact integers."""


def _exact(bound: int, what: str, dtype=np.float64) -> None:
    """Refuse sums reaching ``bound`` (``what``): 2^53 in float64, 2^63 in int64."""
    bits = 53 if dtype is np.float64 else 63
    if bound >> bits:
        raise ExactnessError(
            f"exact {dtype.__name__} sums need {what} < 2^{bits}; got {bound}")


def prime_factors(x: int) -> tuple[int, ...]:
    """Distinct prime factors of x, ascending; () for x < 2."""
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        out.append(x)
    return tuple(out)


def is_prime(x: int) -> bool:
    return prime_factors(x) == (x,)


def prime_power_base(x: int) -> int | None:
    """Return p if x = p^j for a prime p and j >= 1, else None."""
    factors = prime_factors(x)
    return factors[0] if len(factors) == 1 else None


@dataclass(frozen=True)
class Field:
    """Finite field GF(p^e) in a polynomial basis, compared by value.

    ``base`` is None over GF(p) and the level below for a tower level.
    ``modulus`` is monic and low first, of length degree + 1: GF(p) ints
    for a direct extension, element indices of ``base`` for a tower
    level, and None for GF(p) itself.
    """

    p: int
    degree: int
    base: Field | None = None
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):    # every cached map is looked up by field
        object.__setattr__(self, "_hash", hash((self.p, self.degree, self.base,
                                                self.modulus)))

    def __hash__(self):
        return self._hash

    @property
    def order(self) -> int:
        return (self.p if self.base is None else self.base.order) ** self.degree

    def __repr__(self):
        return f"GF({self.order})"


# ---------------------------------------------------------------------------
# digits and multiplication maps


def _index_digits(indices, p: int, dim: int) -> np.ndarray:
    """(len(indices), dim) digits of the elements at ``indices``."""
    x = np.array(indices, dtype=object)
    out = np.zeros((len(x), dim), dtype=np.int64)
    for k in range(dim):
        out[:, k] = x % p
        x = x // p
    return out


@lru_cache(maxsize=None)
def mul_tensor(field: Field) -> np.ndarray:
    """T with T[k] the matrix of x -> x b_k, b_k the element of index p^k.

    So T[k, l] holds the digits of b_k b_l, and sum_k a_k T[k] is the map
    x -> x a of the element with digits a.  Built from the moduli alone:
    over a level with base maps S (S = [1] over GF(p)) and modulus
    y^t + sum_j m_j y^j, b_(i*d + k) = s_k y^i maps as
    (I_t (x) S[k]) Y^i, with Y the block companion matrix of y.  Entries
    are int64 digits in [0, p), and the field is refused (``ExactnessError``)
    unless dim * (p-1)^2 < 2^63, so every product of two maps is exact.
    Cached and read-only.
    """
    p, t = field.p, field.degree
    base = np.ones((1, 1, 1), dtype=np.int64)
    if field.base is not None:
        base = mul_tensor(field.base)
    d = len(base)
    _exact(t * d * (p - 1) ** 2, f"dim*(p-1)^2 (dim = {t * d}, p = {p})", np.int64)
    if field.base is None and t == 1:
        maps = base
    else:
        y = np.zeros((t * d, t * d), dtype=np.int64)
        y[:-d, d:] = np.eye((t - 1) * d, dtype=np.int64)
        for j, digits in enumerate(_index_digits(field.modulus[:t], p, d)):
            y[-d:, j * d:(j + 1) * d] = -np.tensordot(digits, base, 1) % p
        lifted = [np.kron(np.eye(t, dtype=np.int64), s) for s in base]
        maps, y_i = [], np.eye(t * d, dtype=np.int64)
        for _ in range(t):
            maps.extend(s @ y_i % p for s in lifted)
            y_i = y_i @ y % p
        maps = np.stack(maps)
    maps.flags.writeable = False
    return maps


def _times_matrix(a, field: Field) -> np.ndarray:
    """The map x -> x a on digits, as a right factor: (x @ M) = x a.

    ``a`` holds digits in its last axis, so a (..., dim) stack of
    elements gives a (..., dim, dim) stack of maps.
    """
    t, a = mul_tensor(field), np.asarray(a)
    return (a @ t.reshape(len(t), -1) % field.p).reshape(a.shape + (len(t),))


def _power_table(a, field: Field, count: int) -> np.ndarray:
    """(count, dim) digits of a^0 ... a^(count-1), count >= 1, by doubling
    on a's map M: the block a^[m, 2m) is the block a^[0, m) times M^m."""
    p, step = field.p, _times_matrix(a, field)
    out = np.zeros((count, len(step)), dtype=np.int64)
    out[0, 0] = 1
    done = 1
    while done < count:
        span = min(done, count - done)
        out[done:done + span] = out[:span] @ step % p
        step = step @ step % p
        done += span
    return out


def _powers(maps: np.ndarray, exps, p: int) -> np.ndarray:
    """Row 0 of M^E for every map M of a (..., d, d) stack and every E >= 0
    in ``exps``: the digits of a^E when M is the map of a.

    Starts from the unit row e_0 and squares the maps once per bit of
    max(exps); every exponent reads its power off the same squares.  The
    result has shape (len(exps), ..., d) and the dtype of ``maps``.
    """
    out = np.zeros((len(exps),) + maps.shape[:-1], dtype=maps.dtype)
    out[..., 0] = 1
    for j in range(max(exps).bit_length()):
        if j:
            maps = maps @ maps % p
        for i, e in enumerate(exps):
            if e >> j & 1:
                out[i] = (out[i][..., None, :] @ maps)[..., 0, :] % p
    return out


def _first_index(start: int, stop: int, p: int, dim: int, accept) -> int:
    """First index in [start, stop) whose digits pass ``accept``.

    ``accept`` maps a (K, dim) block of candidate digits to K bools; the
    blocks double in size, so an early hit costs little and a late one
    takes few calls.
    """
    size = 8
    while start < stop:
        hi = min(start + size, stop)
        hits = np.flatnonzero(accept(_index_digits(range(start, hi), p, dim)))
        if len(hits):
            return start + int(hits[0])
        start, size = hi, 2 * size
    raise AssertionError("no candidate passes")  # cannot happen


# ---------------------------------------------------------------------------
# constructors


def _irreducible(low: np.ndarray, p: int) -> np.ndarray:
    """Which monic f = X^e + sum_j low_j X^j, one per row, are irreducible.

    Rabin's test (SIAM J. Comput. 9, 1980) on the companion matrix C of
    each f, the map x -> x X of GF(p)[X]/(f), whose powers C^k have the
    digits of X^k in row 0; one ``_powers`` call reads every X^(p^j).
    f is irreducible iff X^(p^e) = X and, for each prime r | e, the
    element a = X^(p^(e/r)) - X is a unit.  Once the first holds,
    GF(p)[X]/(f) is a product of fields GF(p^d) with d | e, so a is a
    unit iff a^(p^e - 1) = 1, decided on a's map sum_k a_k C^k.  Refuses
    e*(p-1)^2 >= 2^63, as ``mul_tensor`` does.
    """
    k, e = low.shape
    _exact(e * (p - 1) ** 2, f"e*(p-1)^2 (e = {e}, p = {p})", np.int64)
    comp = np.zeros((k, e, e), dtype=np.int64)
    comp[:, :-1, 1:] = np.eye(e - 1, dtype=np.int64)
    comp[:, -1] = -low % p
    x = comp[0, 0]                                  # the digits of X
    frobenius = _powers(comp, [p**j for j in range(e + 1)], p)  # X^(p^j)
    ok = (frobenius[e] == x).all(1)
    basis = [np.broadcast_to(np.eye(e, dtype=np.int64), comp.shape)]
    for _ in range(e - 1):                          # the maps of X^j, j < e
        basis.append(basis[-1] @ comp % p)
    basis, one = np.stack(basis, axis=1), basis[0][0, 0]
    for r in prime_factors(e):
        a = (frobenius[e // r][ok] - x) % p
        a_map = (a[:, :, None, None] * basis[ok]).sum(1) % p
        ok[ok] = (_powers(a_map, [p**e - 1], p)[0] == one).all(1)
    return ok


@lru_cache(maxsize=None)
def GF(p: int, e: int = 1) -> Field:
    """Construct GF(p^e) with the canonical modulus.

    The modulus is the first monic irreducible of degree e in counting
    order (constant coefficient as least significant digit), found by a
    scan that tests a block of candidates at a time, so the construction
    is deterministic.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        return Field(p, 1)
    v = _first_index(0, p**e, p, e, lambda low: _irreducible(low, p))
    return Field(p, e, None, tuple(_index_digits([v], p, e)[0].tolist()) + (1,))


@lru_cache(maxsize=None)
def quadratic_extension(base: Field) -> Field:
    """Degree-2 tower level over ``base`` with the canonical modulus.

    Realizes GF(q^4) over GF(q^2): a base element with digits c lies in
    the tower as the digits c followed by zeros.  The modulus y^2 + b y +
    c is the first irreducible in counting order; irreducibility is
    decided by the discriminant non-square test (odd characteristic
    only): Euler's criterion disc^((Q-1)/2) != 1, on the multiplication
    map of disc.
    """
    if base.p == 2:
        raise ValueError("quadratic tower requires odd characteristic")
    p, one = base.p, mul_tensor(base)[0, 0]
    dim, exp = len(one), (base.order - 1) // 2

    def irreducible(digits):    # digits of v = c + b Q: c low, b high
        c, b = digits[:, :dim], digits[:, dim:]
        b_sq = (b[:, None, :] @ _times_matrix(b, base))[:, 0]
        disc = (b_sq - 4 * c) % p
        euler = _powers(_times_matrix(disc, base), [exp], p)[0]
        return disc.any(1) & (euler != one).any(1)

    v = _first_index(0, base.order ** 2, p, 2 * dim, irreducible)
    return Field(base.p, 2, base, (v % base.order, v // base.order, 1))


@lru_cache(maxsize=None)
def find_primitive_element(field: Field) -> tuple[int, ...]:
    """Digits of the smallest element (canonical counting order) that
    generates the unit group.

    Order is certified by g^((N-1)/r) != 1 for every prime r | N-1,
    where N is the field order.  The checks run on the candidates'
    multiplication maps, a block of candidates at a time (``_powers``).

    On a tower level the scan starts at index ``field.base.order``: every
    lower index has top coefficient zero, so it is an element of the base
    field GF(Q), whose order divides Q - 1 < N - 1.  None of those can be
    primitive, so skipping them returns the same canonical element as a
    scan from index 2.  GF(2) has no index 2; its unit group is {1}, so
    its primitive element is 1.
    """
    if field.order == 2:
        return (1,)
    n = field.order - 1
    checks = [(n // r) for r in prime_factors(n)]
    one = mul_tensor(field)[0, 0]
    start = 2 if field.base is None else field.base.order

    def primitive(digits):
        powers = _powers(_times_matrix(digits, field), checks, field.p)
        return (powers != one).any(2).all(0)

    i = _first_index(start, field.order, field.p, len(one), primitive)
    return tuple(_index_digits([i], field.p, len(one))[0].tolist())


def nth_root_of_unity(field: Field, n: int) -> tuple[int, ...]:
    """Digits of the canonical primitive n-th root of unity g^((N-1)/n).

    Requires n to divide the multiplicative group order N-1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    group = field.order - 1
    if group % n:
        raise ValueError(f"{n} does not divide the group order {group}")
    g_map = _times_matrix(find_primitive_element(field), field)
    return tuple(_powers(g_map, [group // n], field.p)[0].tolist())
