"""Reference cyclic-code polynomials on lists of field elements, for tests only.

Independent of the closed-form construction in ``cyclic``: g is the
plain product of the linear factors x - lam^j, j in Z, in the tower
GF(q^4), projected to GF(q^2) after a subfield check on every
coefficient (the tower products are memoized per lam and extended from
the largest built subset of Z); h = (x^n - 1) / g comes by schoolbook
long division; ``coset_product_digits`` multiplies one coset quadratic
at a time on digit arrays; and the minimum distance of a toy code is a
numpy brute force over all codewords m(x) g(x).  Polynomials are lists
of ``field_reference.FieldElement``, low degree first, except in
``coset_product_digits``.
"""

import numpy as np

from eaqmds import fields
from field_reference import in_subfield, object_field, project
from residue_reference import is_coset_closed


def elements(digits, field):
    """A (length, e) digit array as a list of field elements."""
    field = object_field(field)
    return [field.from_digits(row) for row in digits]


def digits(poly):
    """A list of elements of a single-level field as a (length, e) digit array."""
    return np.asarray([c.coeffs for c in poly], dtype=np.int64)


def poly_mul(a, b):
    out = [a[0].field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_divmod(a, b):
    """Quotient and remainder (deg < deg b, untrimmed) of a by b."""
    if not b or b[-1].is_zero():
        raise ZeroDivisionError("division by a polynomial with a zero leading term")
    db = len(b) - 1
    lead_inv = b[-1].inverse()
    rem = list(a)
    quot = [b[0].field.zero] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        factor = rem[i] * lead_inv
        quot[i - db] = factor
        for j, c in enumerate(b):
            rem[i - db + j] = rem[i - db + j] - factor * c
    return quot, rem[:db]


def x_pow_minus_one(field, n):
    field = object_field(field)
    return [-field.one] + [field.zero] * (n - 1) + [field.one]


_powers = {}     # (lam, n) -> [lam^0, ..., lam^(n-1)], once lam^n = 1 is checked
_products = {}   # lam -> {frozenset(Z): prod_{j in Z} (x - lam^j) in the tower}


def _root_powers(lam, n):
    if (lam, n) not in _powers:
        powers = [lam.field.one]
        for _ in range(n - 1):
            powers.append(powers[-1] * lam)
        if powers[-1] * lam != lam.field.one:
            raise ValueError(f"element is not an n-th root of unity for n = {n}")
        _powers[lam, n] = powers
    return _powers[lam, n]


def generator(tower, lam, z):
    """g = prod_{j in Z} (x - lam^j), computed in the tower, over the subfield.

    ``lam`` is a digit tuple of ``fields``.  The tower products are
    memoized per lam; a new Z extends the largest product already built
    for a subset of Z by the factors it lacks.
    """
    lam = object_field(tower).from_digits(lam)
    powers = _root_powers(lam, z.n)
    built = _products.setdefault(lam, {})
    members = frozenset(z.members)
    g = built.get(members)
    if g is None:
        done = max((s for s in built if s <= members), key=len, default=frozenset())
        g = built.get(done, [lam.field.one])
        for j in sorted(members - done):     # g <- (x - lam^j) g
            root = powers[j]
            g = [-root * g[0]] + [a - root * b for a, b in zip(g, g[1:])] + [g[-1]]
        built[members] = g
    for c in g:
        if not in_subfield(c):
            raise ValueError(f"coefficient {c!r} escapes the subfield")
    return [project(c) for c in g]


def check(g, n):
    """h = (x^n - 1) / g; raises unless g divides x^n - 1."""
    quot, rem = poly_divmod(x_pow_minus_one(g[0].field, n), g)
    if not all(c.is_zero() for c in rem):
        raise ValueError("generator does not divide x^n - 1")
    return quot


def min_distance(g, n, guard=10**5):
    """Minimum Hamming weight of the nonzero codewords m(x) g(x), deg m < n - deg g.

    The codewords are built one message coefficient at a time, as every
    sum of a previous codeword and one of the Q multiples of x^i g(x);
    codeword 0 is the zero message.  Refuses more than ``guard`` codewords.
    """
    field = object_field(g[0].field)
    k = n - (len(g) - 1)
    if k < 1:
        raise ValueError("code has no nonzero codewords")
    if field.order**k > guard:
        raise ValueError(
            f"{field.order}^{k} codewords exceeds the enumeration guard {guard}")
    e, p = field.degree, field.p
    scalars = [field.from_index(i) for i in range(field.order)]
    multiples = np.asarray([[(s * c).coeffs for c in g] for s in scalars],
                           dtype=np.int64)
    words = np.zeros((1, n, e), dtype=np.int64)
    for i in range(k):
        shifted = np.zeros((field.order, n, e), dtype=np.int64)
        shifted[:, i:i + len(g)] = multiples
        words = ((words[:, None] + shifted[None]) % p).reshape(-1, n, e)
    return int(words[1:].any(axis=2).sum(axis=1).min())


def coset_product_digits(tower, lam, z):
    """g over GF(q^2) as (|Z| + 1, e) digits: one coset quadratic at a time.

    The digit-level reference for ``cyclic.generator_digits``.  Each coset
    {i, n - i} of Z contributes x^2 - Tr_i x + 1, Tr_i = lam^i + lam^-i, the
    trace of lam^i down to GF(q^2) (x - lam^i when i = n - i), read off
    one table of lam^0 ... lam^(n-1); every trace is checked to lie in
    GF(q^2) before projection.  Requires q^2 = -1 mod n and lam^n = 1.
    """
    subfield = tower.base
    n = z.n
    qsq = subfield.order % n
    if not is_coset_closed(n, qsq, z.members):
        raise ValueError("defining set is not a union of cyclotomic cosets")
    if (qsq + 1) % n:
        raise ValueError(f"q^2 is not -1 mod {n}; the cosets are not {{i, n - i}}")
    p, e = subfield.p, subfield.degree
    lam_n = fields._powers(fields._times_matrix(lam, tower), [n], p)[0]
    if not np.array_equal(lam_n, np.eye(2 * e, dtype=np.int64)[0]):
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    powers = fields._power_table(lam, tower, n)
    reps = z.array[2 * z.array <= n]
    single = reps == -reps % n
    coeff = (powers[reps] + ~single[:, None] * powers[-reps % n]) % p
    escaped = reps[coeff[:, e:].any(axis=1)]
    if escaped.size:
        i = int(escaped[0])
        raise ValueError(
            f"coefficient of coset {sorted({i, -i % n})} escapes the subfield; "
            "the coset is not closed for this root")
    g = np.zeros((1, e), dtype=np.int64)
    g[0, 0] = 1
    for lone, coeff_map in zip(single, fields._times_matrix(coeff[:, :e], subfield)):
        scaled = g @ coeff_map
        out = np.zeros((len(g) + (1 if lone else 2), e), dtype=np.int64)
        if lone:                         # x - lam^i
            out[1:] += g
            out[:-1] -= scaled
        else:                            # x^2 - Tr_i x + 1
            out[:-2] += g
            out[1:-1] -= scaled
            out[2:] += g
        g = out % p
    return g
