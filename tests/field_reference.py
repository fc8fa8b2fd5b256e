"""Object-level field-context searches, kept only as test references.

``fields`` certifies the primitive element and the tower modulus on
GF(p)-linear multiplication matrices.  These are the same searches on
``FieldElement`` arithmetic, in the same counting order, so the two paths
can be compared element for element.
"""

from eaqmds.fields import Field, prime_factors


def full_scan_primitive(field: Field, start: int = 2):
    """The first element from index ``start`` on whose order is |F*|.

    Order is certified by g^((N-1)/r) != 1 for every prime r | N-1.
    """
    n = field.order - 1
    checks = [n // r for r in prime_factors(n)]
    for i in range(start, field.order):
        g = field.from_index(i)
        if all(g**e != field.one for e in checks):
            return g
    raise AssertionError("no primitive element found")


def quadratic_modulus_reference(base: Field) -> tuple:
    """(c, b) of the first irreducible y^2 + b y + c in counting order.

    Irreducible exactly when the discriminant b^2 - 4c is a non-square,
    decided by Euler's criterion disc^((Q-1)/2) != 1 (odd characteristic).
    """
    four = base.element(4)
    exp = (base.order - 1) // 2
    for v in range(base.order ** 2):
        c = base.from_index(v % base.order)
        b = base.from_index(v // base.order)
        disc = b * b - four * c
        if not disc.is_zero() and disc**exp != base.one:
            return c, b
    raise AssertionError("no irreducible quadratic found")
