"""Q/Z-valued quadratic and bilinear forms on finite-rank lattices.

A level on the lattice Z^r is presented by an integer matrix c together with
a phase zeta in Q/Z; the attached quadratic form is gamma -> zeta * (gamma^T
c gamma) and only the symmetrization of c matters.

A form is one integer matrix of numerators over one denominator N, reduced
into [0, N) over the least N, the lcm of its values' reduced denominators;
so forms with equal values hold equal fields, and every comparison is
exact. An evaluation sums integers against the matrix and builds a single
``Frac1``, a reduced fraction in Q/Z, at the end. ``Frac1`` appears only
there and as a level's zeta.

A level must be fixed by the monodromy. The one test of that is
:func:`preserves`, D = A^T M A - M per generator A in integers, on a
form-free half gathered once per local system (:func:`moving_columns`);
``invariance_check`` and ``selfcheck``'s sampler both call it.
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


def _reduced(m: IntMatrix, n: int) -> tuple[int, IntMatrix]:
    """(N, M): the square matrix m / n with entries reduced into [0, N) over the least N.

    N is n / gcd(n, m's entries mod n), the lcm of the entries' reduced
    denominators as values in Q/Z.
    """
    if not m.is_square():
        raise NonSquareMatrix(f"form matrix must be square, got {m.rows}x{m.cols}")
    if n < 1:
        raise BadFraction(f"denominator must be positive, got {n}")
    e = [x % n for x in m.entries]
    g = math.gcd(n, *e)
    return n // g, IntMatrix(m.rows, m.cols, [x // g for x in e])


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
    """Quadratic form Q(x) = x^T M x / N on Z^rank, for any square integer M.

    Only M's symmetrization enters, so the form stores the canonical
    upper-triangular U as ``numerators``: U_ii = M_ii and U_ij = M_ij + M_ji
    for i < j, reduced into [0, N) over the least ``denominator`` N. So
    Q(e_i) = U_ii / N, and U_ij / N is the polarization b(e_i, e_j) itself,
    not half of it: halving is not well defined in Q/Z, and a quadratic
    form here need not come from half a symmetric matrix.
    """

    __slots__ = ("rank", "denominator", "numerators")

    def __init__(self, numerators: IntMatrix, denominator: int):
        n, m = _reduced(numerators, denominator)
        r, e = m.rows, m.entries
        u = [
            e[i * r + i] if i == j else e[i * r + j] + e[j * r + i] if i < j else 0
            for i in range(r)
            for j in range(r)
        ]
        n, m = _reduced(IntMatrix(r, r, u), n)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "denominator", n)
        object.__setattr__(self, "numerators", m)

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        if self.rank != other.rank:
            raise DimensionMismatch("cannot add forms of different rank")
        n, m, r = self.denominator, other.denominator, self.rank
        pairs = zip(self.numerators.entries, other.numerators.entries)
        return QuadraticForm(IntMatrix(r, r, [a * m + b * n for a, b in pairs]), n * m)


class SymmetricForm(_Frozen):
    """Symmetric Q/Z-valued bilinear form b(x, y) = x^T B y / N.

    ``numerators`` is B, symmetric mod N, with entries reduced into [0, N)
    over the least ``denominator`` N.
    """

    __slots__ = ("rank", "denominator", "numerators")

    def __init__(self, numerators: IntMatrix, denominator: int):
        n, b = _reduced(numerators, denominator)
        if b != b.transpose():
            raise DimensionMismatch("entry matrix is not symmetric")
        object.__setattr__(self, "rank", b.rows)
        object.__setattr__(self, "denominator", n)
        object.__setattr__(self, "numerators", b)

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Frac1:
        """b(x, y) = x^T B y / N, summed in integers and reduced once."""
        r = self.rank
        if len(x) != r or len(y) != r:
            raise DimensionMismatch(f"vectors must have length {r}")
        return Frac1(_bilinear_sum(self.numerators.entries, x, y), self.denominator)

    def is_zero(self) -> bool:
        return self.numerators.is_zero()


def quad_from_bilinear(data: BilinearData) -> QuadraticForm:
    """Quadratic form gamma -> zeta * (gamma^T c gamma): zeta.num * c over zeta.den."""
    c, zeta = data.c, data.zeta
    return QuadraticForm(IntMatrix(c.rows, c.cols, [zeta.num * x for x in c.entries]), zeta.den)


def evaluate(q: QuadraticForm, gamma: Sequence[int]) -> Frac1:
    """Value of the form on an arbitrary lattice vector.

    Quadratic terms pick up square coefficients, cross terms the
    polarization: the integer sum gamma^T U gamma, reduced mod 1 once.
    """
    r = q.rank
    if len(gamma) != r:
        raise DimensionMismatch(f"vector of length {len(gamma)} against rank {r}")
    return Frac1(_bilinear_sum(q.numerators.entries, gamma, gamma), q.denominator)


def polarize(q: QuadraticForm) -> SymmetricForm:
    """Symmetric form b(x, y) = Q(x+y) - Q(x) - Q(y): B = U + U^T over Q's N."""
    return SymmetricForm(q.numerators + q.numerators.transpose(), q.denominator)


def is_linear(q: QuadraticForm) -> bool:
    """True when the form is a homomorphism to Q/Z, i.e. its polarization vanishes.

    Linear forms take values in {0, 1/2}: b(e_i, e_i) = 2 Q(e_i) vanishes.
    """
    return polarize(q).is_zero()


_Columns = tuple[tuple[int, ...], ...]  # a generator's columns A e_0, ..., A e_(r-1)


def moving_columns(mon: Sequence[IntMatrix], r: int) -> list[_Columns]:
    """The form-free half of the invariance test: the columns of each moving generator.

    (-A)^T M (-A) = A^T M A, so each generator is kept once up to sign, and
    I and -I, which move no form, not at all: on trivial monodromy the list
    is empty and no generator is negated.
    """
    still = (IntMatrix.identity(r), -IntMatrix.identity(r))
    kept = dict.fromkeys(min(a.entries, (-a).entries) for a in mon if a not in still)
    return [tuple(e[j::r] for j in range(r)) for e in kept]


def preserves(m: Sequence[int], n: int, moving: Sequence[_Columns]) -> bool:
    """Whether x -> x^T M x / n mod 1 is fixed by each generator in ``moving``.

    ``m`` holds M's entries row by row, so a caller tests a candidate
    without building a matrix; ``moving`` comes from :func:`moving_columns`.
    For A with columns a_j, Q(Ax) - Q(x) = x^T D x / n with D = A^T M A - M,
    which vanishes for every x exactly when n divides each D_jj and each
    D_ij + D_ji, i < j. M a_j is formed once per column, and the conditions
    on column j are tested before the next one is formed: O(r^3) integer
    work per generator, up to the first condition that fails.
    """
    if not moving:
        return True
    r = len(moving[0])
    rows = [m[k * r : (k + 1) * r] for k in range(r)]
    for cols in moving:
        done = []  # (i, a_i, M a_i) for the columns i < j
        for j, a in enumerate(cols):
            ma = [sum(map(mul, row, a)) for row in rows]
            if (sum(map(mul, a, ma)) - m[j * r + j]) % n:
                return False
            for i, b, mb in done:
                cross = sum(map(mul, b, ma)) + sum(map(mul, a, mb))
                if (cross - m[i * r + j] - m[j * r + i]) % n:
                    return False
            done.append((j, a, ma))
    return True


def invariance_check(q: QuadraticForm, rho: LatticeLocalSystem) -> bool:
    """Whether every generator's monodromy fixes the form: :func:`preserves` on its numerators.

    The local system proved its generators unimodular (a determinant of each
    commuting handle's ab != I, an inverse of every other handle's ba), so only
    values are compared: one D = A^T U A - U per distinct moving A, O(g r^3) in all.
    """
    r = q.rank
    if rho.rank != r:
        raise DimensionMismatch(f"local system rank {rho.rank} != form rank {r}")
    return preserves(q.numerators.entries, q.denominator, moving_columns(rho.mon, r))
