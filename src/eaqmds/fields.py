"""Exact arithmetic in GF(p^e) with a canonical quadratic tower.

Fields are built in a polynomial basis over their base field: a prime
field GF(p), a direct extension GF(p^e) with integer coefficients mod p,
or a quadratic tower level whose coefficients are elements of the level
below.  The tower construction realizes GF(q^4) as a degree-2 extension
of GF(q^2), so subfield membership is a zero-top-coefficient test and
projection back to GF(q^2) is exact.

Moduli and primitive elements are chosen canonically (smallest candidate
in the counting order where the constant coefficient is the least
significant digit), so repeated construction yields identical fields.
The tower-modulus, primitive-element and root-of-unity searches run their
exponentiations on GF(p)-linear multiplication maps of digit vectors
(``mul_tensor``), not on FieldElement objects.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x % 2 == 0:
        return x == 2
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def prime_factors(x: int) -> tuple[int, ...]:
    """Distinct prime factors of x, ascending."""
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


def prime_power_base(x: int) -> int | None:
    """Return p if x = p^j for a prime p and j >= 1, else None."""
    if x < 2:
        return None
    f = 2
    while f * f <= x:
        if x % f == 0:
            y = x
            while y % f == 0:
                y //= f
            return f if y == 1 else None
        f += 1 if f == 2 else 2
    return x  # x itself is prime


# ---------------------------------------------------------------------------
# integer-level polynomial helpers over GF(p), used only for modulus search


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by monic f
    df = len(f) - 1
    for i in range(len(prod) - 1, df - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(df):
                prod[i - df + j] = (prod[i - df + j] - c * f[j]) % p
    return _poly_trim(prod)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = a[:]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _poly_trim(out)


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = _poly_trim(a[:])
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = (a[-1] * inv) % p
        shift = len(a) - len(b)
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        _poly_trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible_mod_p(coeffs: list[int], p: int) -> bool:
    """Irreducibility over GF(p) of a monic polynomial given low-first.

    Degrees 2 and 3 use root absence; higher degrees use the distinct-degree
    criterion x^(p^e) == x mod f together with gcd(x^(p^(e/r)) - x, f) = 1
    for every prime r dividing e.
    """
    e = len(coeffs) - 1
    if e == 1:
        return True
    if e in (2, 3):
        return all(
            sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p != 0
            for x in range(p)
        )
    x = [0, 1]
    xq = _poly_powmod(x, p**e, coeffs, p)
    if _poly_sub(xq, x, p):
        return False
    for r in prime_factors(e):
        xr = _poly_powmod(x, p ** (e // r), coeffs, p)
        if len(_poly_gcd(_poly_sub(xr, x, p), coeffs, p)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


class Field:
    """Finite field GF(p^e) in a polynomial basis.

    Three shapes, distinguished by ``base``:
      * prime field: base is None, degree 1, elements are single ints mod p;
      * direct extension of GF(p): base is None, degree e >= 2, elements are
        int coefficient tuples reduced by a monic irreducible modulus;
      * tower level: base is another Field, coefficients are its elements.

    Instances are immutable; all element operations are pure functions, so
    fields and elements are safe to share across threads.
    """

    __slots__ = ("p", "degree", "base", "modulus", "order", "_sig", "_hash",
                 "_zero", "_one")

    def __init__(self, p: int, degree: int, base: "Field | None",
                 modulus: tuple | None):
        self.p = p
        self.degree = degree
        self.base = base
        self.modulus = modulus  # monic, low-first, length degree+1; None for degree 1
        base_order = base.order if base is not None else p
        self.order = base_order ** degree if degree > 1 else base_order
        mod_sig = None
        if modulus is not None:
            mod_sig = tuple(
                c.index if isinstance(c, FieldElement) else c for c in modulus)
        self._sig = (p, degree, base._sig if base is not None else None, mod_sig)
        self._hash = hash(self._sig)
        if base is None:
            self._zero = FieldElement(self, (0,) * degree)
            self._one = FieldElement(self, (1,) + (0,) * (degree - 1))
        else:
            self._zero = FieldElement(self, (base.zero,) * degree)
            self._one = FieldElement(self, (base.one,) +
                                     (base.zero,) * (degree - 1))

    def __eq__(self, other):
        return isinstance(other, Field) and self._sig == other._sig

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.order})"

    # -- element construction ----------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def element(self, coeffs) -> "FieldElement":
        """Element from a coefficient sequence (constant term first).

        Prime-level coefficients are ints (reduced mod p); tower-level
        coefficients are elements of the base field.  A bare int is accepted
        as shorthand for a prime-subfield constant.
        """
        if isinstance(coeffs, FieldElement):
            if coeffs.field != self:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            if self.base is None:
                c = (coeffs % self.p,) + (0,) * (self.degree - 1)
            else:
                c = (self.base.element(coeffs),) + \
                    (self.base.zero,) * (self.degree - 1)
            return FieldElement(self, c)
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        if self.base is None:
            c = [int(x) % self.p for x in coeffs]
            c += [0] * (self.degree - len(c))
        else:
            c = [self.base.element(x) for x in coeffs]
            c += [self.base.zero] * (self.degree - len(c))
        return FieldElement(self, tuple(c))

    def from_index(self, i: int) -> "FieldElement":
        """The i-th element in the canonical counting order, 0 <= i < order.

        Digits of i in base |base field| become the coefficients, constant
        term least significant.  This is the order used for modulus and
        primitive-element searches.
        """
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} outside [0, {self.order})")
        if self.base is None:
            digits = []
            for _ in range(self.degree):
                digits.append(i % self.p)
                i //= self.p
            return FieldElement(self, tuple(digits))
        digits = []
        for _ in range(self.degree):
            digits.append(self.base.from_index(i % self.base.order))
            i //= self.base.order
        return FieldElement(self, tuple(digits))

    def elements(self):
        """Iterate over all elements in canonical counting order."""
        for i in range(self.order):
            yield self.from_index(i)

    # -- coefficient arithmetic (int or base-field element) -----------------

    def _cadd(self, x, y):
        return (x + y) % self.p if self.base is None else x + y

    def _csub(self, x, y):
        return (x - y) % self.p if self.base is None else x - y

    def _cmul(self, x, y):
        return (x * y) % self.p if self.base is None else x * y

    def _cneg(self, x):
        return (-x) % self.p if self.base is None else -x

    def _czero(self):
        return 0 if self.base is None else self.base.zero

    def _ciszero(self, x) -> bool:
        return x == 0 if self.base is None else x.is_zero()


class FieldElement:
    """Immutable element of a Field, held as a coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.index))

    def __repr__(self):
        return f"{self.field!r}:{self.index}"

    @property
    def index(self) -> int:
        """Position in the field's canonical counting order."""
        f = self.field
        if f.base is None:
            v = 0
            for c in reversed(self.coeffs):
                v = v * f.p + c
            return v
        v = 0
        for c in reversed(self.coeffs):
            v = v * f.base.order + c.index
        return v

    def is_zero(self) -> bool:
        f = self.field
        return all(f._ciszero(c) for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.field != self.field:
            raise ValueError(
                f"field mismatch: {self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, tuple(f._cadd(a, b)
                                     for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, tuple(f._csub(a, b)
                                     for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        f = self.field
        return FieldElement(f, tuple(f._cneg(a) for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        e = f.degree
        if e == 1:
            return FieldElement(f, (f._cmul(self.coeffs[0], other.coeffs[0]),))
        a, b = self.coeffs, other.coeffs
        prod = [f._czero()] * (2 * e - 1)
        for i, ai in enumerate(a):
            if not f._ciszero(ai):
                for j, bj in enumerate(b):
                    prod[i + j] = f._cadd(prod[i + j], f._cmul(ai, bj))
        mod = f.modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if not f._ciszero(c):
                for j in range(e):
                    prod[i - e + j] = f._csub(prod[i - e + j], f._cmul(c, mod[j]))
        return FieldElement(f, tuple(prod[:e]))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via a ^ (order - 2)."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        f = self.field
        if f.base is None and f.degree == 1:
            return FieldElement(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        return self ** (f.order - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()


# ---------------------------------------------------------------------------
# digits and multiplication maps
#
# The digits of an element are its GF(p) coefficients, low first through
# every tower level: exactly the base-p digits of its index.  On digit row
# vectors the map x -> x a is a dim x dim matrix over GF(p), so a^k is the
# first row of that matrix to the k-th power.  The field-context searches
# run their exponentiations here instead of on FieldElement objects.


def _index_digits(indices, p: int, dim: int) -> np.ndarray:
    """(len(indices), dim) digits of the elements at ``indices``."""
    x = np.array(indices, dtype=object)
    out = np.zeros((len(x), dim), dtype=np.int64)
    for k in range(dim):
        out[:, k] = x % p
        x = x // p
    return out


def element_digits(x: FieldElement) -> np.ndarray:
    """Digits of x over GF(p), low first through every tower level."""
    return _index_digits([x.index], x.field.p, len(mul_tensor(x.field)))[0]


def _from_digits(field: Field, digits: np.ndarray) -> FieldElement:
    return field.from_index(sum(int(d) * field.p**k for k, d in enumerate(digits)))


@lru_cache(maxsize=None)
def mul_tensor(field: Field) -> np.ndarray:
    """T with T[k] the matrix of x -> x b_k, b_k the element of index p^k.

    So T[k, l] holds the digits of b_k b_l, and sum_k a_k T[k] is the map
    x -> x a of the element with digits a.  Built from the moduli alone:
    over a level with base maps S (S = [1] over GF(p)) and modulus
    y^t + sum_j m_j y^j, b_(i*d + k) = s_k y^i maps as
    (I_t (x) S[k]) Y^i, with Y the block companion matrix of y.  Entries
    lie in [0, p); the dtype is int64 while dim * (p-1)^2 < 2^63, so
    every product of two maps is exact, and Python ints beyond that.
    """
    p, t = field.p, field.degree
    base = np.ones((1, 1, 1), dtype=np.int64)
    if field.base is not None:
        base = mul_tensor(field.base)
    d = len(base)
    dtype = np.int64 if t * d * (p - 1) ** 2 < 2**63 else object
    if field.base is None and t == 1:
        return base.astype(dtype)
    y = np.zeros((t * d, t * d), dtype=dtype)
    y[:-d, d:] = np.eye((t - 1) * d, dtype=dtype)
    for j, c in enumerate(field.modulus[:t]):
        digits = element_digits(c) if field.base is not None else [c]
        y[-d:, j * d:(j + 1) * d] = -np.tensordot(digits, base, 1) % p
    lifted = [np.kron(np.eye(t, dtype=dtype), s) for s in base]
    maps, y_i = [], np.eye(t * d, dtype=dtype)
    for _ in range(t):
        maps.extend(s @ y_i % p for s in lifted)
        y_i = y_i @ y % p
    return np.stack(maps)


def _times_matrix(a: FieldElement) -> np.ndarray:
    """The GF(p)-linear map x -> x a on digits, as a right factor."""
    return np.tensordot(element_digits(a), mul_tensor(a.field), 1) % a.field.p


def _matrix_power(m: np.ndarray, k: int, p: int) -> np.ndarray:
    """m^k mod p by repeated squaring, for k >= 0."""
    out = np.eye(len(m), dtype=m.dtype)
    while k:
        if k & 1:
            out = out @ m % p
        m = m @ m % p
        k >>= 1
    return out


def _powers(digits: np.ndarray, maps: np.ndarray, exps, p: int) -> np.ndarray:
    """Digits of a^E for every row a of ``digits`` and every E in ``exps``.

    Each a's map M is built once and squared once per bit of max(exps);
    every exponent reads its power off the same squares.  The result has
    shape (len(exps), len(digits), dim).
    """
    squares = np.tensordot(digits, maps, 1) % p
    out = np.tile(maps[0, 0], (len(exps), len(digits), 1))
    for j in range(max(exps).bit_length()):
        if j:
            squares = squares @ squares % p
        for i, e in enumerate(exps):
            if e >> j & 1:
                out[i] = (out[i][:, None, :] @ squares)[:, 0] % p
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


@lru_cache(maxsize=None)
def GF(p: int, e: int = 1) -> Field:
    """Construct GF(p^e) with the canonical modulus.

    The modulus is the first monic irreducible of degree e in counting
    order (constant coefficient as least significant digit), found by
    exhaustive scan, so the construction is deterministic.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        return Field(p, 1, None, None)
    for v in range(p**e):
        coeffs = []
        x = v
        for _ in range(e):
            coeffs.append(x % p)
            x //= p
        coeffs.append(1)  # monic
        if _is_irreducible_mod_p(coeffs, p):
            return Field(p, e, None, tuple(coeffs))
    raise AssertionError("no irreducible modulus found")  # cannot happen


@lru_cache(maxsize=None)
def quadratic_extension(base: Field) -> Field:
    """Degree-2 tower level over ``base`` with the canonical modulus.

    Realizes GF(q^4) over GF(q^2): base elements embed as the tower
    elements with zero top coefficient.  The modulus y^2 + b y + c is the
    first irreducible in counting order; irreducibility is decided by the
    discriminant non-square test (odd characteristic only): Euler's
    criterion disc^((Q-1)/2) != 1, on the multiplication map of disc.
    """
    if base.p == 2:
        raise ValueError("quadratic tower requires odd characteristic")
    p, maps = base.p, mul_tensor(base)
    dim, exp = len(maps), (base.order - 1) // 2

    def irreducible(digits):    # digits of v = c + b Q: c low, b high
        c, b = digits[:, :dim], digits[:, dim:]
        b_sq = (b[:, None, :] @ (np.tensordot(b, maps, 1) % p))[:, 0]
        disc = (b_sq - 4 * c) % p
        return disc.any(1) & (_powers(disc, maps, [exp], p)[0] != maps[0, 0]).any(1)

    v = _first_index(0, base.order ** 2, p, 2 * dim, irreducible)
    return Field(base.p, 2, base, (base.from_index(v % base.order),
                                   base.from_index(v // base.order)))


def embed(a: FieldElement, ext: Field) -> FieldElement:
    """Lift a base-field element into the tower level above it."""
    if ext.base is None or a.field != ext.base:
        raise ValueError("element is not in the base of the extension")
    return FieldElement(ext, (a, ext.base.zero))


def in_subfield(x: FieldElement) -> bool:
    """Whether a tower element lies in the level below (zero top coefficient)."""
    f = x.field
    if f.base is None:
        raise ValueError("field is not a tower level")
    return all(f._ciszero(c) for c in x.coeffs[1:])


def project(x: FieldElement) -> FieldElement:
    """Project a tower element back down; errors if it is not in the subfield."""
    if not in_subfield(x):
        raise ValueError(f"{x!r} does not lie in the subfield")
    return x.coeffs[0]


@lru_cache(maxsize=None)
def find_primitive_element(field: Field) -> FieldElement:
    """Smallest element (canonical counting order) generating the unit group.

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
        return field.one
    n = field.order - 1
    checks = [(n // r) for r in prime_factors(n)]
    maps = mul_tensor(field)
    start = 2 if field.base is None else field.base.order
    i = _first_index(
        start, field.order, field.p, len(maps),
        lambda digits: (_powers(digits, maps, checks, field.p)
                        != maps[0, 0]).any(2).all(0))
    return field.from_index(i)


def nth_root_of_unity(field: Field, n: int) -> FieldElement:
    """The canonical primitive n-th root of unity g^((N-1)/n).

    Requires n to divide the multiplicative group order N-1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    group = field.order - 1
    if group % n:
        raise ValueError(f"{n} does not divide the group order {group}")
    g = find_primitive_element(field)
    lam = _matrix_power(_times_matrix(g), group // n, field.p)[0]
    return _from_digits(field, lam)


def multiplicative_order(a: FieldElement) -> int:
    """Exact order of a nonzero element, via the factored group order."""
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    n = a.field.order - 1
    for r in prime_factors(n):
        while n % r == 0 and a ** (n // r) == a.field.one:
            n //= r
    return n
