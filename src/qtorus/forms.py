"""Q/Z-valued quadratic and bilinear forms on finite-rank lattices.

A level on the lattice Z^r is presented by an integer matrix c together with
a phase zeta in Q/Z; the attached quadratic form is gamma -> zeta * (gamma^T
c gamma) and only the symmetrization of c matters. Values live in Q/Z and are
represented by reduced fractions, so every comparison in this module is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadFraction,
    DimensionMismatch,
    NonInvertibleMonodromy,
    NonSquareMatrix,
)
from .lattice import IntMatrix, is_unimodular


class Frac1:
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

    def __setattr__(self, *_):
        raise AttributeError("Frac1 is immutable")

    @classmethod
    def parse(cls, text: str) -> "Frac1":
        """Strict parser for serialized values: reduced ``num/den``, 0 <= num < den."""
        if not isinstance(text, str) or text.count("/") != 1:
            raise BadFraction(f"expected 'num/den', got {text!r}")
        a, _, b = text.partition("/")
        if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            raise BadFraction(f"expected 'num/den' with bare digits, got {text!r}")
        try:
            num, den = int(a), int(b)
        except ValueError:  # more digits than the interpreter converts
            raise BadFraction(f"'num/den' has too many digits ({len(text)} characters)") from None
        if den <= 0:
            raise BadFraction(f"denominator must be positive in {text!r}")
        if not 0 <= num < den:
            raise BadFraction(f"{text!r} is not reduced mod 1 (need 0 <= num < den)")
        if math.gcd(num, den) != 1:
            raise BadFraction(f"{text!r} is not in lowest terms")
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


@dataclass(frozen=True)
class BilinearData:
    """Integer matrix plus phase; the raw presentation of a level."""

    c: IntMatrix
    zeta: Frac1

    def __post_init__(self):
        if not self.c.is_square():
            raise NonSquareMatrix(f"level matrix must be square, got {self.c.rows}x{self.c.cols}")

    @property
    def rank(self) -> int:
        return self.c.rows


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic form on Z^rank, stored by its basis values.

    ``diag[i]`` is the value on the i-th basis vector; ``offdiag`` holds the
    polarization values b(e_i, e_j) for i < j in row-major order. The
    polarization on the diagonal is forced to 2*diag[i], so it is not stored.
    Note the off-diagonal data is the b value itself, not half of it: halving
    is not well defined in Q/Z, and a quadratic form here need not come from
    half a symmetric matrix.
    """

    rank: int
    diag: tuple[Frac1, ...]
    offdiag: tuple[Frac1, ...]

    def __post_init__(self):
        if len(self.diag) != self.rank:
            raise DimensionMismatch(f"need {self.rank} diagonal values, got {len(self.diag)}")
        want = self.rank * (self.rank - 1) // 2
        if len(self.offdiag) != want:
            raise DimensionMismatch(f"need {want} off-diagonal values, got {len(self.offdiag)}")

    def _off_index(self, i: int, j: int) -> int:
        # i < j assumed; row-major position in the strict upper triangle
        return i * (2 * self.rank - i - 3) // 2 + j - 1

    def b_basis(self, i: int, j: int) -> Frac1:
        """Polarization value on a pair of basis vectors."""
        if i == j:
            return self.diag[i].scale(2)
        if i > j:
            i, j = j, i
        return self.offdiag[self._off_index(i, j)]

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        if self.rank != other.rank:
            raise DimensionMismatch("cannot add forms of different rank")
        return QuadraticForm(
            self.rank,
            tuple(a + b for a, b in zip(self.diag, other.diag)),
            tuple(a + b for a, b in zip(self.offdiag, other.offdiag)),
        )

    @classmethod
    def zero(cls, rank: int) -> "QuadraticForm":
        return cls(rank, (ZERO,) * rank, (ZERO,) * (rank * (rank - 1) // 2))


@dataclass(frozen=True)
class SymmetricForm:
    """Symmetric Q/Z-valued bilinear form given by its full value matrix."""

    rank: int
    entries: tuple[tuple[Frac1, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rank or any(len(r) != self.rank for r in self.entries):
            raise DimensionMismatch("entry matrix does not match rank")
        for i in range(self.rank):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise DimensionMismatch("entry matrix is not symmetric")

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Frac1:
        if len(x) != self.rank or len(y) != self.rank:
            raise DimensionMismatch(f"vectors must have length {self.rank}")
        total = ZERO
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.entries[i]
            for j, yj in enumerate(y):
                if yj:
                    total = total + row[j].scale(xi * yj)
        return total

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
    coefficients, cross terms the polarization.
    """
    if len(gamma) != q.rank:
        raise DimensionMismatch(f"vector of length {len(gamma)} against rank {q.rank}")
    total = ZERO
    for i, xi in enumerate(gamma):
        if xi:
            total = total + q.diag[i].scale(xi * xi)
    for i in range(q.rank):
        xi = gamma[i]
        if not xi:
            continue
        for j in range(i + 1, q.rank):
            xj = gamma[j]
            if xj:
                total = total + q.b_basis(i, j).scale(xi * xj)
    return total


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
    return polarize(q).is_zero()


@dataclass(frozen=True)
class LevelClassReport:
    """Classification data for a level: its form, the structural layer, liftability.

    Levels with the same quadratic form are equivalent; on top of that sits a
    torsor layer isomorphic to Hom(Z^rank, Q/Z), reported only by its rank.
    """

    quadratic_form: QuadraticForm
    pi2_layer_rank: int
    e_infinity: bool


def level_classify(q: QuadraticForm) -> LevelClassReport:
    return LevelClassReport(q, q.rank, is_linear(q))


def invariance_check(q: QuadraticForm, mats: Sequence[IntMatrix]) -> bool:
    """Whether the form is preserved by every given lattice automorphism.

    Checking basis vectors and pairwise sums suffices: those values determine
    the form, since b(e_i, e_j) = Q(e_i + e_j) - Q(e_i) - Q(e_j).
    """
    r = q.rank
    for a in mats:
        if not a.is_square() or a.rows != r:
            raise DimensionMismatch(f"automorphism must be {r}x{r}, got {a.rows}x{a.cols}")
        if not is_unimodular(a):
            raise NonInvertibleMonodromy("matrix is not invertible over the integers")
    probes = [tuple(1 if t == i else 0 for t in range(r)) for i in range(r)]
    probes += [
        tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(r))
        for i in range(r)
        for j in range(i + 1, r)
    ]
    for a in mats:
        for v in probes:
            if evaluate(q, a.mul_vec(v)) != evaluate(q, v):
                return False
    return True
