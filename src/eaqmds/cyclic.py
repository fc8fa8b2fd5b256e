"""Cyclic code machinery over GF(q^2).

Minimal polynomials of cyclotomic cosets are computed in the quadratic
tower GF(q^4), where the primitive n-th root of unity lives, then
projected down after an exact subfield check.  From the generator
polynomial g(x) | x^n - 1 the module derives the check polynomial, the
generator and parity-check matrices, and (for toy sizes) a brute-force
minimum distance.

Two paths build g and h.  The object path (``Polynomial``, ``MatrixGF``)
works for any coset structure and also builds the generator and
parity-check matrices; it is the reference.  The digit path
(``generator_digits``, ``check_digits``) is what the rank oracle runs on:
it holds polynomials as (degree + 1, e) int64 arrays of GF(q^2) digits,
as ``_gflinalg`` does, and never forms a matrix.  It relies on
q^2 = -1 mod n, which holds for every family length n | q^2 + 1: then
every coset is {i, n - i}, and its minimal polynomial is the quadratic

    (x - lam^i)(x - lam^-i) = x^2 - Tr_i x + 1,   Tr_i = lam^i + lam^-i,

where Tr_i = lam^i + (lam^i)^(q^2) is the trace of lam^i down to GF(q^2).
So g(x) is a product of |Z|/2 quadratics, one multiply each, and no
tower polynomial is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from . import _gflinalg as gfa
from .fields import Field, FieldElement, _matrix_power, _times_matrix, in_subfield, \
    project
from .cosets import ResidueSet, cyclotomic_coset, is_coset_closed


@dataclass(frozen=True)
class Polynomial:
    """Polynomial over a field; coefficients low-degree first, trimmed."""

    field: Field
    coeffs: tuple[FieldElement, ...]

    @classmethod
    def of(cls, field: Field, coeffs) -> "Polynomial":
        cs = [field.element(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        return cls(field, tuple(cs))

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (field.one,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [(a[i] if i < len(a) else f.zero) + (b[i] if i < len(b) else f.zero)
               for i in range(n)]
        return Polynomial.of(f, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [(a[i] if i < len(a) else f.zero) - (b[i] if i < len(b) else f.zero)
               for i in range(n)]
        return Polynomial.of(f, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(f)
        a, b = self.coeffs, other.coeffs
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Polynomial(f, tuple(out))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact quotient and remainder."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = other.coeffs[-1].inverse()
        quot = [f.zero] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            factor = c * lead_inv
            quot[i - db] = factor
            for j in range(db + 1):
                rem[i - db + j] = rem[i - db + j] - factor * other.coeffs[j]
        return Polynomial.of(f, quot), Polynomial.of(f, rem)

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise ValueError("polynomials over different fields")


def x_pow_minus_one(field: Field, n: int) -> Polynomial:
    coeffs = [-field.one] + [field.zero] * (n - 1) + [field.one]
    return Polynomial(field, tuple(coeffs))


@lru_cache(maxsize=64)
def _root_powers(lam: FieldElement, n: int) -> tuple[FieldElement, ...]:
    """lam^0 .. lam^(n-1), and a primitivity check while we are at it."""
    powers = [lam.field.one]
    for _ in range(n - 1):
        powers.append(powers[-1] * lam)
    if powers[-1] * lam != lam.field.one:
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    return tuple(powers)


def minimal_polynomial(lam: FieldElement, coset: ResidueSet) -> Polynomial:
    """prod_{j in coset} (x - lam^j), projected from GF(q^4) down to GF(q^2).

    lam must live in a tower level; every product coefficient is checked
    to lie in the subfield before projection, so a wrong coset or a broken
    tower fails loudly instead of silently truncating.
    """
    tower = lam.field
    if tower.base is None:
        raise ValueError("root of unity must live in a tower extension")
    powers = _root_powers(lam, coset.n)
    poly = Polynomial.one(tower)
    for j in coset.members:
        root = powers[j % coset.n]
        poly = poly * Polynomial.of(tower, [-root, tower.one])
    projected = []
    for c in poly.coeffs:
        if not in_subfield(c):
            raise ValueError(
                f"coefficient {c!r} escapes the subfield; coset {coset.members} "
                "is not closed for this root")
        projected.append(project(c))
    return Polynomial(tower.base, tuple(projected))


def generator_polynomial(lam: FieldElement, z: ResidueSet) -> Polynomial:
    """Product of the minimal polynomials of the cosets inside Z.

    Z must be coset-closed; the result is monic of degree |Z| and divides
    x^n - 1 exactly.
    """
    tower = lam.field
    if tower.base is None:
        raise ValueError("root of unity must live in a tower extension")
    subfield = tower.base
    n = z.n
    qsq = subfield.order % n
    if not is_coset_closed(n, qsq, z):
        raise ValueError("defining set is not a union of cyclotomic cosets")
    g = Polynomial.one(subfield)
    seen: set[int] = set()
    for i in z.members:
        if i in seen:
            continue
        coset = cyclotomic_coset(n, qsq, i)
        seen.update(coset.members)
        g = g * minimal_polynomial(lam, coset)
    return g


def check_polynomial(g: Polynomial, n: int) -> Polynomial:
    """h(x) = (x^n - 1) / g(x); raises if g does not divide x^n - 1."""
    full = x_pow_minus_one(g.field, n)
    quot, rem = full.divmod(g)
    if not rem.is_zero():
        raise ValueError("generator does not divide x^n - 1")
    return quot


@dataclass(frozen=True)
class MatrixGF:
    """Dense matrix over a field, stored as a tuple of row tuples."""

    field: Field
    entries: tuple[tuple[FieldElement, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return self.entries[i]

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.field, tuple(zip(*self.entries)))


def matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """Plain exact matrix product; fine for small matrices."""
    if a.field != b.field or a.cols != b.rows:
        raise ValueError("incompatible matrices")
    f = a.field
    bt = list(zip(*b.entries))
    out = []
    for arow in a.entries:
        orow = []
        for bcol in bt:
            acc = f.zero
            for x, y in zip(arow, bcol):
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y
            orow.append(acc)
        out.append(tuple(orow))
    return MatrixGF(f, tuple(out))


def is_zero_matrix(m: MatrixGF) -> bool:
    return all(e.is_zero() for row in m.entries for e in row)


def generator_matrix(g: Polynomial, n: int) -> MatrixGF:
    """k x n matrix whose row i holds the coefficients of x^i g(x)."""
    f = g.field
    k = n - g.degree
    if k < 1:
        raise ValueError("generator degree leaves no dimension")
    base = list(g.coeffs) + [f.zero] * (n - len(g.coeffs))
    rows = []
    for i in range(k):
        rows.append(tuple([f.zero] * i + base[: n - i]))
    return MatrixGF(f, tuple(rows))


def parity_check_matrix(g: Polynomial, n: int) -> MatrixGF:
    """(n-k) x n parity-check matrix from the reciprocal check polynomial.

    Row i is the reversed coefficient vector of h(x) shifted i places; any
    full-rank parity matrix works for the entanglement-rank computation,
    and this is the standard cyclic-code choice.
    """
    f = g.field
    h = check_polynomial(g, n)
    k = h.degree
    rev = list(reversed(h.coeffs))  # h_k, ..., h_0
    rows = []
    for i in range(n - k):
        row = [f.zero] * n
        for j, c in enumerate(rev):
            row[i + j] = c
        rows.append(tuple(row))
    return MatrixGF(f, tuple(rows))


def brute_min_distance(gen: MatrixGF, guard: int = 10**6) -> int:
    """Minimum Hamming weight over all nonzero codewords, by enumeration.

    Guarded: refuses instances with more than ``guard`` codewords.  The
    family codes are never brute-forced; this exists to validate the BCH
    machinery on toy examples.
    """
    f = gen.field
    k = gen.rows
    if f.order**k > guard:
        raise ValueError(
            f"{f.order}^{k} codewords exceeds the enumeration guard {guard}")
    best = None
    alphabet = [f.from_index(i) for i in range(f.order)]
    for message in iter_product(alphabet, repeat=k):
        if all(m.is_zero() for m in message):
            continue
        weight = 0
        for col in range(gen.cols):
            acc = f.zero
            for mi, row in zip(message, gen.entries):
                if not mi.is_zero() and not row[col].is_zero():
                    acc = acc + mi * row[col]
            if not acc.is_zero():
                weight += 1
        if best is None or weight < best:
            best = weight
    if best is None:
        raise ValueError("code has no nonzero codewords")
    return best


# ---------------------------------------------------------------------------
# digit path: the rank oracle's builders


def _root_pairs(step: np.ndarray, p: int, n: int, reps):
    """Tower digits of (lam^r, lam^-r) for each r of the ascending ``reps``.

    ``step`` is the matrix of x -> x lam, with lam^n = 1, so that lam^-r =
    lam^(n-r).  Consecutive representatives cost one step each way: a
    multiply of the previous digits by ``step`` or by its inverse
    ``step^(n-1)``.
    """
    one = np.zeros(len(step), dtype=np.int64)
    one[0] = 1
    down_step = _matrix_power(step, n - 1, p)
    prev = None
    for r in reps:
        if prev is not None and r == prev + 1:
            up = up @ step % p
            down = down @ down_step % p
        else:
            up = one @ _matrix_power(step, r, p)
            down = one @ _matrix_power(step, (n - r) % n, p)
        prev = r
        yield up, down


@lru_cache(maxsize=16)
def generator_digits(lam: FieldElement, z: ResidueSet) -> np.ndarray:
    """g(x) as a read-only (|Z| + 1, e) digit array over GF(q^2), low first.

    Equals ``generator_polynomial(lam, z)`` digit for digit.  Each coset
    {i, n - i} of Z contributes x^2 - Tr_i x + 1 (x - lam^i when i = n - i),
    and its coefficient is checked to lie in GF(q^2) before projection, so
    a set that is not coset-closed for this root fails loudly.  Requires
    q^2 = -1 mod n and lam^n = 1.  Memoized on (lam, Z), so the oracle's
    rank and G H^T checks build g once per spec.
    """
    tower = lam.field
    if tower.base is None:
        raise ValueError("root of unity must live in a tower extension")
    subfield = tower.base
    n = z.n
    qsq = subfield.order % n
    if not is_coset_closed(n, qsq, z):
        raise ValueError("defining set is not a union of cyclotomic cosets")
    if (qsq + 1) % n:
        raise ValueError(f"q^2 is not -1 mod {n}; the cosets are not {{i, n - i}}")
    p, e = subfield.p, subfield.degree
    step = _times_matrix(lam)
    if not np.array_equal(_matrix_power(step, n, p), np.eye(2 * e, dtype=np.int64)):
        raise ValueError(f"element is not an n-th root of unity for n = {n}")
    reps = [i for i in z.members if 2 * i <= n]
    g = np.zeros((1, e), dtype=np.int64)
    g[0, 0] = 1
    for i, (up, down) in zip(reps, _root_pairs(step, p, n, reps)):
        single = i == (n - i) % n
        coeff = up if single else (up + down) % p
        if coeff[e:].any():
            coset = {i, (n - i) % n}
            raise ValueError(
                f"coefficient of coset {sorted(coset)} escapes the subfield; "
                "the coset is not closed for this root")
        scaled = g @ gfa.scalar_matrix(coeff[:e], subfield)
        out = np.zeros((len(g) + (1 if single else 2), e), dtype=np.int64)
        if single:                       # x - lam^i
            out[1:] += g
            out[:-1] -= scaled
        else:                            # x^2 - Tr_i x + 1
            out[:-2] += g
            out[1:-1] -= scaled
            out[2:] += g
        g = out % p
    g.setflags(write=False)
    return g


def check_digits(g: np.ndarray, field: Field, n: int) -> np.ndarray:
    """h(x) = (x^n - 1) / g(x) by long division on digits; g must be monic.

    Equals ``check_polynomial`` digit for digit; raises unless the
    remainder is zero.
    """
    p, e = field.p, field.degree
    dg = len(g) - 1
    if not 0 <= dg <= n or g[-1, 0] != 1 or g[-1, 1:].any():
        raise ValueError("generator must be monic of degree at most n")
    rem = np.zeros((n + 1, e), dtype=np.int64)
    rem[0, 0] = p - 1
    rem[n, 0] = 1
    quot = np.zeros((n - dg + 1, e), dtype=np.int64)
    for i in range(n, dg - 1, -1):
        c = rem[i]
        if not c.any():
            continue
        quot[i - dg] = c
        rem[i - dg:i + 1] = (rem[i - dg:i + 1] - g @ gfa.scalar_matrix(c, field)) % p
    if rem[:dg].any():
        raise ValueError("generator does not divide x^n - 1")
    return quot
