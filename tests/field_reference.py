"""Object-level field arithmetic and field-context searches, for tests only.

``eaqmds.fields`` holds an element as its digit tuple and multiplies on
GF(p)-linear multiplication maps.  Here the same fields, read from a
``Field``'s moduli alone, get the recursive tuple-tower arithmetic of
``FieldElement`` objects (schoolbook products reduced by the modulus,
powers by squaring, inverses by Fermat), with no multiplication map of
``fields`` in it.  On those objects sit ``embed``, ``project``,
``in_subfield``, ``multiplicative_order`` and the field-context searches
in the same counting order, so the two paths can be compared element
for element.  ``object_field(GF(13, 2)).element([0, 1])`` is the root x
of the modulus; ``.digits`` of an element is its digit tuple in
``fields``.
"""

from functools import lru_cache

from eaqmds.fields import Field, prime_factors


class ObjectField:
    """A ``Field`` whose elements are ``FieldElement`` objects.

    Prime-level coefficients are ints mod p; tower-level coefficients are
    elements of the level below, and so is the modulus.
    """

    def __init__(self, field: Field):
        self.field = field
        self.p, self.degree, self.order = field.p, field.degree, field.order
        self.base = None if field.base is None else object_field(field.base)
        if field.modulus is None or self.base is None:
            self.modulus = field.modulus
        else:
            self.modulus = tuple(self.base.from_index(c) for c in field.modulus)
        if self.base is None:
            self.zero = FieldElement(self, (0,) * self.degree)
            self.one = FieldElement(self, (1,) + (0,) * (self.degree - 1))
        else:
            self.zero = FieldElement(self, (self.base.zero,) * self.degree)
            self.one = FieldElement(self, (self.base.one,) +
                                    (self.base.zero,) * (self.degree - 1))

    def __eq__(self, other):
        return self is other or (isinstance(other, ObjectField)
                                 and self.field == other.field)

    def __hash__(self):
        return hash(self.field)

    def __repr__(self):
        return repr(self.field)

    # -- element construction ----------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """Element from a coefficient sequence (constant term first).

        Prime-level coefficients are ints (reduced mod p); tower-level
        coefficients are elements of the base field.  A bare int is
        accepted as shorthand for a prime-subfield constant.
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
        term least significant.
        """
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} outside [0, {self.order})")
        size = self.p if self.base is None else self.base.order
        digits = []
        for _ in range(self.degree):
            digits.append(i % size if self.base is None
                          else self.base.from_index(i % size))
            i //= size
        return FieldElement(self, tuple(digits))

    def from_digits(self, digits) -> "FieldElement":
        """The element with the digit tuple ``digits`` of ``fields``."""
        digits = [int(d) for d in digits]
        if self.base is None:
            return FieldElement(self, tuple(digits))
        d = len(digits) // self.degree
        return FieldElement(self, tuple(self.base.from_digits(digits[i:i + d])
                                        for i in range(0, len(digits), d)))

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


@lru_cache(maxsize=None)
def _object_field(field: Field) -> ObjectField:
    return ObjectField(field)


def object_field(field) -> ObjectField:
    """The object view of a ``Field`` (an ``ObjectField`` is its own)."""
    return field if isinstance(field, ObjectField) else _object_field(field)


class FieldElement:
    """Immutable element of an ObjectField, held as a coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ObjectField, coeffs: tuple):
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
        v = 0
        for c in reversed(self.coeffs):
            v = v * f.p + c if f.base is None else v * f.base.order + c.index
        return v

    @property
    def digits(self) -> tuple:
        """GF(p) coefficients, low first through every tower level."""
        if self.field.base is None:
            return self.coeffs
        return tuple(d for c in self.coeffs for d in c.digits)

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
# the tower, element orders, and the field-context searches


def embed(a: FieldElement, ext) -> FieldElement:
    """Lift a base-field element into the tower level above it."""
    ext = object_field(ext)
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


def multiplicative_order(a: FieldElement) -> int:
    """Exact order of a nonzero element, via the factored group order."""
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    n = a.field.order - 1
    for r in prime_factors(n):
        while n % r == 0 and a ** (n // r) == a.field.one:
            n //= r
    return n


def full_scan_primitive(field, start: int = 2) -> FieldElement:
    """The first element from index ``start`` on whose order is |F*|.

    Order is certified by g^((N-1)/r) != 1 for every prime r | N-1.
    """
    field = object_field(field)
    n = field.order - 1
    checks = [n // r for r in prime_factors(n)]
    for i in range(start, field.order):
        g = field.from_index(i)
        if all(g**e != field.one for e in checks):
            return g
    raise AssertionError("no primitive element found")


def quadratic_modulus_reference(base) -> tuple:
    """(c, b, 1), as base-field indices, of the first irreducible
    y^2 + b y + c in counting order.

    Irreducible exactly when the discriminant b^2 - 4c is a non-square,
    decided by Euler's criterion disc^((Q-1)/2) != 1 (odd characteristic).
    """
    base = object_field(base)
    four = base.element(4)
    exp = (base.order - 1) // 2
    for v in range(base.order ** 2):
        c = base.from_index(v % base.order)
        b = base.from_index(v // base.order)
        disc = b * b - four * c
        if not disc.is_zero() and disc**exp != base.one:
            return c.index, b.index, 1
    raise AssertionError("no irreducible quadratic found")
