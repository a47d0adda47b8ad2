"""Exact linear algebra over the integers.

Everything here works with built-in arbitrary-precision ints; no floats ever
enter. The workhorse is :func:`smith_normal_form`, which returns the full
``U @ A @ V = D`` decomposition with unimodular transforms, so kernels,
cokernels and subquotients of finitely generated abelian groups all reduce
to reading off diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .errors import ImageNotInKernel, NonSquareMatrix, NonUnimodular, ShapeMismatch


class IntMatrix:
    """Immutable integer matrix, row-major storage.

    Zero-row and zero-column shapes are legal; they show up naturally as
    boundary maps of degenerate complexes.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape ({rows}, {cols})")
        e = tuple(int(x) for x in entries)
        if len(e) != rows * cols:
            raise ShapeMismatch(
                f"expected {rows * cols} entries for shape ({rows}, {cols}), got {len(e)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", e)

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        m = len(rows)
        if m == 0:
            return cls(0, 0 if cols is None else cols, ())
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ShapeMismatch("ragged rows")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        n = len(columns)
        if any(len(c) != rows for c in columns):
            raise ShapeMismatch("column length mismatch")
        return cls(rows, n, [columns[j][i] for i in range(rows) for j in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self._e[j :: self.cols] if self.cols else ()

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def entries(self) -> tuple[int, ...]:
        return self._e

    def transpose(self) -> "IntMatrix":
        n = self.cols
        return IntMatrix(n, self.rows, [x for j in range(n) for x in self._e[j::n]])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply ({self.rows},{self.cols}) by ({other.rows},{other.cols})")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        cols = [b[j::m] for j in range(m)]
        out = [sum(map(mul, a[i * k : (i + 1) * k], col)) for i in range(n) for col in cols]
        return IntMatrix(n, m, out)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector of length {len(vec)} against {self.cols} columns")
        k = self.cols
        return tuple(sum(map(mul, self._e[i * k : (i + 1) * k], vec)) for i in range(self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self._e])

    def _same_shape(self, other: "IntMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch")

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.row_lists()})"


def hstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeMismatch("row count mismatch in hstack")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return IntMatrix(rows, sum(m.cols for m in mats), out)


def vstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeMismatch("column count mismatch in vstack")
    out = []
    for m in mats:
        out.extend(m.entries)
    return IntMatrix(sum(m.rows for m in mats), cols, out)


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination. Exact."""
    if not a.is_square():
        raise NonSquareMatrix(f"determinant of a {a.rows}x{a.cols} matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: division is exact at every step
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.is_square() and abs(det(a)) == 1


@dataclass(frozen=True)
class SnfResult:
    """Unimodular ``u``, ``v`` and diagonal ``d`` with ``u @ a @ v == d``."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d.entry(i, i) for i in range(k))

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def cokernel(self) -> FgAbGroup:
        """Canonical form of Z^rows / (a . Z^cols)."""
        torsion = tuple(x for x in self.diagonal() if x > 1)
        return FgAbGroup(self.d.rows - self.rank(), torsion)

    def kernel_basis(self) -> IntMatrix:
        """Saturated basis of ker(a) as columns, taken from the unimodular v."""
        n = self.v.rows
        return IntMatrix.from_columns([self.v.column(j) for j in range(self.rank(), n)], n)


@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form of a finitely generated abelian group.

    ``torsion`` is the divisibility chain, each entry at least 2 and dividing
    the next. Equality is structural equality of canonical forms.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ShapeMismatch("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ShapeMismatch(f"torsion {self.torsion} is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ShapeMismatch("torsion entries must be >= 2")

    def order(self) -> int | None:
        """Group order, None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize ``a`` over the integers.

    Pivots are chosen by minimal absolute value (lexicographic tie-break) to
    keep intermediate coefficients small. The diagonal comes out nonnegative
    with each entry dividing the next.
    """
    m, n = a.rows, a.cols
    d = a.row_lists()
    u = IntMatrix.identity(m).row_lists()
    v = IntMatrix.identity(n).row_lists()

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # row_i += q * row_j
        di, dj = d[i], d[j]
        for t in range(n):
            di[t] += q * dj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] += q * uj[t]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        while True:
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            dirty = False
            for i in range(m):
                if i != t and d[i][t] != 0:
                    q = d[i][t] // p
                    if q:
                        row_add(i, t, -q)
                    if d[i][t] != 0:
                        # remainder is strictly smaller than p; promote it
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(n):
                if j != t and d[t][j] != 0:
                    q = d[t][j] // p
                    if q:
                        col_add(j, t, -q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the whole trailing block before we advance
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    return SnfResult(
        IntMatrix.from_rows(u, m),
        IntMatrix.from_rows(d, n),
        IntMatrix.from_rows(v, n),
    )


def rank(a: IntMatrix) -> int:
    return smith_normal_form(a).rank()


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Canonical form of Z^rows / (a . Z^cols); see :meth:`SnfResult.cokernel`."""
    return smith_normal_form(a).cokernel()


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Saturated basis of ker(a) as columns; see :meth:`SnfResult.kernel_basis`."""
    return smith_normal_form(a).kernel_basis()


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    if not a.is_square():
        raise NonUnimodular(f"{a.rows}x{a.cols} matrix cannot be unimodular")
    snf = smith_normal_form(a)
    if snf.d != IntMatrix.identity(a.rows):
        raise NonUnimodular("matrix has nontrivial Smith form, no integer inverse")
    return snf.v @ snf.u


def solve_exact(k: IntMatrix, g: IntMatrix) -> IntMatrix:
    """Solve ``k @ x == g`` over the integers.

    Raises ImageNotInKernel when no rational solution exists or when the
    rational solution is not integral (columns of ``g`` leave the span).
    Requires the columns of ``k`` to be linearly independent so that the
    coordinates are unique.
    """
    if k.rows != g.rows:
        raise ShapeMismatch(f"ambient dimensions differ: {k.rows} vs {g.rows}")
    snf = smith_normal_form(k)
    r = snf.rank()
    if r != k.cols:
        raise ShapeMismatch("basis columns are not linearly independent")
    b = snf.u @ g
    y = [[0] * g.cols for _ in range(k.cols)]
    for i in range(k.rows):
        if i < r:
            p = snf.d.entry(i, i)
            for j in range(g.cols):
                q, rem = divmod(b.entry(i, j), p)
                if rem != 0:
                    raise ImageNotInKernel(
                        f"column {j} lies in the rational span but not the integral span"
                    )
                y[i][j] = q
        else:
            for j in range(g.cols):
                if b.entry(i, j) != 0:
                    raise ImageNotInKernel(f"column {j} is outside the span")
    return snf.v @ IntMatrix.from_rows(y, g.cols)


def subquotient(ker_basis_mat: IntMatrix, img_gens: IntMatrix) -> FgAbGroup:
    """Canonical form of (span of ker_basis columns) / (span of img_gens columns)."""
    x = solve_exact(ker_basis_mat, img_gens)
    return cokernel(x)


@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient group together with chosen generator representatives.

    Representatives live in the ambient lattice. Free generators come first,
    then torsion generators in divisibility-chain order.
    """

    group: FgAbGroup
    free_gens: tuple[tuple[int, ...], ...]
    torsion_gens: tuple[tuple[int, ...], ...]  # orders match group.torsion

    def all_gens(self) -> tuple[tuple[int, ...], ...]:
        return self.free_gens + self.torsion_gens


def _quotient_with_generators(snf: SnfResult, basis: IntMatrix | None) -> QuotientPresentation:
    """Generators of Z^k / im(x), pushed to ambient coordinates via ``basis``.

    ``snf`` is the Smith form of x. ``basis`` is an ambient-by-k matrix whose
    columns the quotient coordinates refer to; None means the identity.
    """
    k, r = snf.d.rows, snf.rank()
    diag = snf.diagonal()
    uinv = inverse_unimodular(snf.u)
    # column i of uinv generates the Z/diag[i] (or Z, past the rank) summand
    push = (basis @ uinv) if basis is not None else uinv
    free_gens = tuple(push.column(i) for i in range(r, k))
    torsion_gens = tuple(push.column(i) for i in range(r) if diag[i] > 1)
    return QuotientPresentation(snf.cokernel(), free_gens, torsion_gens)


def subquotient_with_generators(
    ker_basis_mat: IntMatrix, img_gens: IntMatrix
) -> QuotientPresentation:
    x = solve_exact(ker_basis_mat, img_gens)
    return _quotient_with_generators(smith_normal_form(x), ker_basis_mat)


def cokernel_with_generators(a: IntMatrix) -> QuotientPresentation:
    return _quotient_with_generators(smith_normal_form(a), None)
