"""Q/Z-valued quadratic and bilinear forms on finite-rank lattices.

A level on the lattice Z^r is presented by an integer matrix c together with
a phase zeta in Q/Z; the attached quadratic form is gamma -> zeta * (gamma^T
c gamma) and only the symmetrization of c matters. Values live in Q/Z and are
represented by reduced fractions, so every comparison in this module is
exact.

Forms are built from and printed through their ``Frac1`` values. Each
form also derives, once at construction, one integer matrix of numerators
over one common denominator N, the lcm of its values' denominators; an
evaluation sums integers against that matrix and builds a single ``Frac1``
at the end.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import BadFraction, DimensionMismatch, NonSquareMatrix, _Frozen
from .lattice import IntMatrix

if TYPE_CHECKING:  # forms sits below the topological layer and never imports it
    from .surface import LatticeLocalSystem


_ECHO_LIMIT = 60


def _echo(value: object) -> str:
    """``repr(value)`` for an error message, cut to ``_ECHO_LIMIT`` characters plus its length."""
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


class Frac1(_Frozen):
    """An element of Q/Z as a reduced fraction with 0 <= num < den.

    Construction normalizes mod 1, so ``Frac1(9, 2)`` is ``1/2``. Supports
    addition, negation, subtraction and scaling by integers, which is all the
    arithmetic Q/Z carries.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise BadFraction("zero denominator")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def parse(cls, text: str) -> "Frac1":
        """Strict parser for serialized values: reduced ``num/den``, 0 <= num < den."""
        if not isinstance(text, str) or text.count("/") != 1:
            raise BadFraction(f"expected 'num/den', got {_echo(text)}")
        a, _, b = text.partition("/")
        if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            raise BadFraction(f"expected 'num/den' with bare digits, got {_echo(text)}")
        if (len(a) > 1 and a[0] == "0") or (len(b) > 1 and b[0] == "0"):
            raise BadFraction(f"{_echo(text)} has a leading zero")
        try:
            num, den = int(a), int(b)
        except ValueError:  # more digits than the interpreter converts
            raise BadFraction(f"'num/den' has too many digits ({len(text)} characters)") from None
        if den <= 0:
            raise BadFraction(f"denominator must be positive in {_echo(text)}")
        if not 0 <= num < den:
            raise BadFraction(f"{_echo(text)} is not reduced mod 1 (need 0 <= num < den)")
        if math.gcd(num, den) != 1:
            raise BadFraction(f"{_echo(text)} is not in lowest terms")
        return cls(num, den)

    def __add__(self, other: "Frac1") -> "Frac1":
        return Frac1(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Frac1":
        return Frac1(-self.num, self.den)

    def __sub__(self, other: "Frac1") -> "Frac1":
        return self + (-other)

    def scale(self, n: int) -> "Frac1":
        return Frac1(self.num * n, self.den)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Frac1) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Frac1({self.num}, {self.den})"


ZERO = Frac1(0)
HALF = Frac1(1, 2)


def _over_common_denominator(values: Sequence[Frac1]) -> tuple[int, list[int]]:
    """(N, numerators): each value is its numerator over N, the lcm of the denominators.

    Both are determined by the values, since ``Frac1`` is reduced.
    """
    n = math.lcm(*[x.den for x in values])
    return n, [x.num * (n // x.den) for x in values]


def _bilinear_sum(e: Sequence[int], x: Sequence[int], y: Sequence[int]) -> int:
    """x^T M y over the integers, M given row by row in ``e``; the caller checks the lengths."""
    r = len(y)
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * sum(map(mul, e[i * r : (i + 1) * r], y))
    return total


class BilinearData(_Frozen):
    """Integer matrix plus phase; the raw presentation of a level."""

    __slots__ = ("c", "zeta")

    def __init__(self, c: IntMatrix, zeta: Frac1):
        if not c.is_square():
            raise NonSquareMatrix(f"level matrix must be square, got {c.rows}x{c.cols}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "zeta", zeta)

    @property
    def rank(self) -> int:
        return self.c.rows


class QuadraticForm(_Frozen):
    """Quadratic form on Z^rank, stored by its basis values.

    ``diag[i]`` is the value on the i-th basis vector; ``offdiag`` holds the
    polarization values b(e_i, e_j) for i < j in row-major order. The
    polarization on the diagonal is forced to 2*diag[i], so it is not stored.
    Note the off-diagonal data is the b value itself, not half of it: halving
    is not well defined in Q/Z, and a quadratic form here need not come from
    half a symmetric matrix.

    ``numerators`` is the upper-triangular integer matrix U, derived at
    construction, with Q(x) = x^T U x / ``denominator``: ``diag`` on its
    diagonal, ``offdiag`` above it.
    """

    __slots__ = ("rank", "diag", "offdiag", "denominator", "numerators")

    def __init__(self, rank: int, diag: tuple[Frac1, ...], offdiag: tuple[Frac1, ...]):
        r = rank
        if len(diag) != r:
            raise DimensionMismatch(f"need {r} diagonal values, got {len(diag)}")
        want = r * (r - 1) // 2
        if len(offdiag) != want:
            raise DimensionMismatch(f"need {want} off-diagonal values, got {len(offdiag)}")
        n, nums = _over_common_denominator(diag + offdiag)
        diagonal, above = iter(nums[:r]), iter(nums[r:])  # offdiag is row-major, like u
        u = [
            next(diagonal) if i == j else next(above) if i < j else 0
            for i in range(r)
            for j in range(r)
        ]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        object.__setattr__(self, "denominator", n)
        object.__setattr__(self, "numerators", IntMatrix(r, r, u))

    def b_basis(self, i: int, j: int) -> Frac1:
        """Polarization value on a pair of basis vectors: (U + U^T)[i][j] / N."""
        u, r = self.numerators.entries, self.rank
        return Frac1(u[i * r + j] + u[j * r + i], self.denominator)

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        if self.rank != other.rank:
            raise DimensionMismatch("cannot add forms of different rank")
        return QuadraticForm(
            self.rank,
            tuple(a + b for a, b in zip(self.diag, other.diag)),
            tuple(a + b for a, b in zip(self.offdiag, other.offdiag)),
        )


class SymmetricForm(_Frozen):
    """Symmetric Q/Z-valued bilinear form given by its full value matrix.

    ``numerators`` is the integer matrix B, derived at construction, with
    b(x, y) = x^T B y / ``denominator``.
    """

    __slots__ = ("rank", "entries", "denominator", "numerators")

    def __init__(self, rank: int, entries: tuple[tuple[Frac1, ...], ...]):
        if len(entries) != rank or any(len(r) != rank for r in entries):
            raise DimensionMismatch("entry matrix does not match rank")
        for i in range(rank):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise DimensionMismatch("entry matrix is not symmetric")
        n, nums = _over_common_denominator([x for row in entries for x in row])
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "denominator", n)
        object.__setattr__(self, "numerators", IntMatrix(rank, rank, nums))

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Frac1:
        """b(x, y) = x^T B y / N, summed in integers and reduced once."""
        r = self.rank
        if len(x) != r or len(y) != r:
            raise DimensionMismatch(f"vectors must have length {r}")
        return Frac1(_bilinear_sum(self.numerators.entries, x, y), self.denominator)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)


def quad_from_bilinear(data: BilinearData) -> QuadraticForm:
    """Quadratic form gamma -> zeta * (gamma^T c gamma).

    Only c + c^T enters, matching the fact that the assignment depends on the
    symmetrization of c alone.
    """
    c, zeta = data.c, data.zeta
    r = c.rows
    diag = tuple(zeta.scale(c.entry(i, i)) for i in range(r))
    off = tuple(
        zeta.scale(c.entry(i, j) + c.entry(j, i)) for i in range(r) for j in range(i + 1, r)
    )
    return QuadraticForm(r, diag, off)


def evaluate(q: QuadraticForm, gamma: Sequence[int]) -> Frac1:
    """Value of the form on an arbitrary lattice vector.

    Expands through the basis values: quadratic terms pick up square
    coefficients, cross terms the polarization. The sum runs over the
    integer numerators, gamma^T U gamma, and is reduced mod 1 once.
    """
    r = q.rank
    if len(gamma) != r:
        raise DimensionMismatch(f"vector of length {len(gamma)} against rank {r}")
    return Frac1(_bilinear_sum(q.numerators.entries, gamma, gamma), q.denominator)


def polarize(q: QuadraticForm) -> SymmetricForm:
    """Symmetric form b(x, y) = Q(x+y) - Q(x) - Q(y), as a value matrix."""
    rows = tuple(
        tuple(q.b_basis(i, j) for j in range(q.rank)) for i in range(q.rank)
    )
    return SymmetricForm(q.rank, rows)


def is_linear(q: QuadraticForm) -> bool:
    """True when the form is a homomorphism to Q/Z, i.e. its polarization vanishes.

    Linear forms take values in {0, 1/2}: twice each diagonal value is a
    polarization entry, hence zero.
    """
    return not any(q.offdiag) and not any(x.scale(2) for x in q.diag)


_Probe = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]  # (v, images of v)


def probe_images(mon: Sequence[IntMatrix], r: int) -> list[_Probe]:
    """The form-free half of the invariance test: (probe, its images) pairs.

    The probes are the basis vectors of Z^r and their pairwise sums; the
    images of v are the products a v with each generator a that is not the
    identity. An image equal to v or to -v takes v's value under every
    quadratic form, and a repeat adds nothing, so neither is kept; a probe
    with no image left is dropped. On trivial monodromy no product is
    formed at all.
    """
    identity = IntMatrix.identity(r)
    moving = [a for a in mon if a != identity]
    probes = [tuple(1 if t == i else 0 for t in range(r)) for i in range(r)]
    probes += [
        tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(r))
        for i in range(r)
        for j in range(i + 1, r)
    ]
    out = []
    for v in probes:
        minus_v = tuple(-x for x in v)
        images = tuple(dict.fromkeys(
            w for w in (a.mul_vec(v) for a in moving) if w != v and w != minus_v
        ))
        if images:
            out.append((v, images))
    return out


def preserves(m: Sequence[int], n: int, images: Sequence[_Probe]) -> bool:
    """Whether x -> x^T M x / n mod 1 takes each probe's value at its images.

    ``m`` holds M's entries row by row, as ``IntMatrix.entries`` does, so a
    caller tests a candidate without building a matrix. ``images`` comes
    from :func:`probe_images`. Each probe's v^T M v is summed once, and an
    image w matches it when w^T M w - v^T M v is divisible by n. Integers
    only: no ``Frac1`` is built.
    """
    for v, ws in images:
        value = _bilinear_sum(m, v, v)
        for w in ws:
            if (_bilinear_sum(m, w, w) - value) % n:
                return False
    return True


def invariance_check(q: QuadraticForm, rho: LatticeLocalSystem) -> bool:
    """Whether the form is preserved by every generator's monodromy.

    The local system proved every generator unimodular when it inverted
    each handle's product ba, so only the values are compared. Checking basis vectors and pairwise
    sums suffices: those values determine the form, since
    b(e_i, e_j) = Q(e_i + e_j) - Q(e_i) - Q(e_j).

    This is :func:`preserves` on the integer numerators, Q(x) = x^T U x / N,
    over the images of :func:`probe_images`.
    """
    r = q.rank
    if rho.rank != r:
        raise DimensionMismatch(f"local system rank {rho.rank} != form rank {r}")
    return preserves(q.numerators.entries, q.denominator, probe_images(rho.mon, r))
