"""Exact linear algebra over the integers.

Everything here works with built-in arbitrary-precision ints; no floats ever
enter. There are two eliminations. :func:`smith_normal_form`, the
``U @ A @ V = D`` decomposition with unimodular transforms, gives kernels,
cokernels and quotient generators. It keeps its row and column operations,
and only :class:`SnfResult` replays them: the column log onto an identity
gives the kernel vectors, the last columns of ``V``; the row log inverted
onto basis vectors gives :meth:`SnfResult.quotient`'s generators
``B @ U^-1``; and :meth:`SnfResult.subquotient` reads ker a / im b off the
coordinates ``V^-1 @ b`` and one more Smith form. Its pivot search stops at the
first unit, each column operation writes one entry, and the divisibility
scan of the trailing block runs only at non-unit pivots. Determinants and
inverses in GL(n, Z) read ``det A`` and the adjugate off one fraction-free
Gauss-Jordan elimination of ``[A | I]``.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import NonSquareMatrix, NonUnimodular, ShapeMismatch

_Op = tuple[int, int, int]  # (i, j, q), one line operation; see _replay


class IntMatrix:
    """Immutable integer matrix, row-major storage.

    Entries are stored as given, so callers pass ints; ``cli`` checks the
    matrices a job spec supplies. Zero-row and zero-column shapes are legal;
    they show up naturally as boundary maps of degenerate complexes.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape ({rows}, {cols})")
        e = tuple(entries)
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
        if cols is not None and cols != n:
            raise ShapeMismatch(f"rows of length {n} given for {cols} columns")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        if any(len(c) != rows for c in columns):
            raise ShapeMismatch("column length mismatch")
        return cls(rows, len(columns), [x for row in zip(*columns) for x in row])

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
        out = [
            sum(map(mul, row, col))
            for i in range(n)
            for row in [a[i * k : (i + 1) * k]]  # each row sliced once
            for col in cols
        ]
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


def _gauss_jordan(a: IntMatrix) -> tuple[int, list[int] | None]:
    """``(det a, adj a)``, adj row-major, or ``(0, None)`` when ``a`` is singular.

    Fraction-free Gauss-Jordan elimination of ``[a | I]`` (Bareiss 1968): step
    k turns every row but the pivot row into (p*x - x[k]*pivot_row) / prev,
    with p its pivot and prev the last one (1 at first). Every entry is a minor
    of the row-permuted ``[a | I]``, so the division is exact and Hadamard's
    bound holds. The end is [D*I | D*a^-1] with D the permuted determinant.
    """
    n = a.rows
    rows = [list(a.row(i)) + e for i, e in enumerate(_identity_rows(n))]
    sign = prev = 1
    for k in range(n):
        for pivot in range(k, n):
            if rows[pivot][k]:
                break
        else:
            return 0, None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i in range(n):
            f = rows[i][k]
            if i != k and (f or p != prev):  # else the row stays as it is
                rows[i] = [(p * s - f * t) // prev for s, t in zip(rows[i], top)]
        prev = p
    adj = [x for r in rows for x in r[n:]]
    return sign * prev, adj if sign == 1 else [-x for x in adj]


def det(a: IntMatrix) -> int:
    """Determinant, read off :func:`_gauss_jordan`. Exact."""
    if not a.is_square():
        raise NonSquareMatrix(f"determinant of a {a.rows}x{a.cols} matrix")
    return _gauss_jordan(a)[0]


class SnfResult:
    """Diagonal ``d`` with ``u @ a @ v == d``, ``u`` and ``v`` unimodular.

    The result keeps the elimination's row and column operations in order,
    and only its methods replay them (:func:`_replay`): each transform is
    built when it is first read, and the kernel vectors, quotient and
    subquotient generators replay a log onto just the rows they need, so a
    caller pays for exactly what it reads.
    """

    __slots__ = ("d", "row_ops", "col_ops", "__dict__")  # __dict__ holds u and v once read

    def __init__(self, d: IntMatrix, row_ops: tuple[_Op, ...], col_ops: tuple[_Op, ...]):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "row_ops", row_ops)
        object.__setattr__(self, "col_ops", col_ops)

    def __setattr__(self, *_):
        raise AttributeError("SnfResult is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SnfResult) and (
            (self.d, self.row_ops, self.col_ops) == (other.d, other.row_ops, other.col_ops)
        )

    def __hash__(self) -> int:
        return hash((self.d, self.row_ops, self.col_ops))

    # a column operation on V is a row operation on V^T: v's columns are replayed as rows
    @cached_property
    def u(self) -> IntMatrix:
        m = self.d.rows
        return IntMatrix.from_rows(_replay(self.row_ops, _identity_rows(m)), m)

    @cached_property
    def v(self) -> IntMatrix:
        n = self.d.cols
        return IntMatrix.from_columns(_replay(self.col_ops, _identity_rows(n)), n)

    def diagonal(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d.entry(i, i) for i in range(k))

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def cokernel(self) -> FgAbGroup:
        """Canonical form of Z^rows / (a . Z^cols)."""
        torsion = tuple(x for x in self.diagonal() if x > 1)
        return FgAbGroup(self.d.rows - self.rank(), torsion)

    def kernel_basis(self) -> list[list[int]]:
        """Saturated basis of ker(a) as vectors: the columns rank: of v.

        The column log is replayed onto an identity and only those rows are
        kept, so v itself is not built.
        """
        return _replay(self.col_ops, _identity_rows(self.d.cols))[self.rank() :]

    def quotient(self, basis: Sequence[Sequence[int]] | None = None) -> QuotientPresentation:
        """Z^k / im(a), k = rows of a, with generators pushed to ambient vectors.

        ``basis`` holds the k ambient vectors the quotient coordinates refer
        to; None means the standard basis. With B those vectors as columns,
        column i of B @ U^-1 generates the Z/diag[i] (or Z, past the rank)
        summand; it is row i of the row log replayed inverted onto them.
        """
        k, r = self.d.rows, self.rank()
        diag = self.diagonal()
        push = _replay(self.row_ops, _identity_rows(k) if basis is None else list(basis), True)
        free_gens = tuple(tuple(push[i]) for i in range(r, k))
        torsion_gens = tuple(tuple(push[i]) for i in range(r) if diag[i] > 1)
        return QuotientPresentation(self.cokernel(), free_gens, torsion_gens)

    def subquotient(self, b: IntMatrix) -> QuotientPresentation:
        """ker a / im b with generators in ker a; im b must lie in ker a.

        With V the column transform and k the rank, K = V[:, k:] is a basis
        of ker a and W = V^-1[k:, :] has W K = I. K has full column rank and
        im b lies in ker a, so x = W b is the unique integer x with K x = b:
        rows k: of V^-1 b, the column log replayed inverted onto b. snf(x)
        gives ker a / im b = Z^cols(K) / im x, and its row log replayed
        inverted onto the kernel vectors the generators K U^-1.
        """
        rows = _replay(self.col_ops, b.row_lists(), True)[self.rank() :]
        return smith_normal_form(IntMatrix.from_rows(rows, b.cols)).quotient(self.kernel_basis())


class FgAbGroup:
    """Canonical form of a finitely generated abelian group.

    ``torsion`` is the divisibility chain, each entry at least 2 and dividing
    the next. Equality is structural equality of canonical forms.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ShapeMismatch("negative free rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ShapeMismatch(f"torsion {torsion} is not a divisibility chain")
        if any(t < 2 for t in torsion):
            raise ShapeMismatch("torsion entries must be >= 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, *_):
        raise AttributeError("FgAbGroup is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FgAbGroup) and (
            (self.free_rank, self.torsion) == (other.free_rank, other.torsion)
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def order(self) -> int | None:
        """Group order, None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _replay(ops: Sequence[_Op], rows: list, inverse: bool = False) -> list:
    """Rows of E_k ... E_1 X: the logged operations E_1, ..., E_k applied in order to X.

    ``rows`` holds X's rows and is permuted in place; changed rows are new
    lists. An operation ``(i, j, q)`` acts on lines: it swaps lines i and j
    when q == 0, negates line i when i == j, and adds q times line j to line
    i otherwise. With ``inverse`` each one is applied as the transpose of its
    inverse, which leaves swaps and negations as they are and turns
    line_i += q*line_j into line_j -= q*line_i; the rows are then those of
    (E_1^-1 ... E_k^-1)^T X: V^-1 X for a column log, whose operations are
    those of V^T, and (B U^-1)^T for a row log and X = B^T.
    """
    x = rows
    for i, j, q in ops:
        if not q:
            x[i], x[j] = x[j], x[i]
        elif i == j:
            x[i] = [-s for s in x[i]]
        else:
            if inverse:
                i, j, q = j, i, -q
            x[i] = [s + q * t for s, t in zip(x[i], x[j])]
    return x


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize ``a`` over the integers.

    Pivots are chosen by minimal absolute value (lexicographic tie-break) to
    keep intermediate coefficients small. The diagonal comes out nonnegative
    with each entry dividing the next.

    The pivot search stops at the first unit, which no later entry can
    replace. Column clearing runs only once the row pass has left column t
    zero off row t, so each column operation writes one entry. The check
    that the pivot divides the trailing block runs only at non-unit pivots,
    since a unit divides everything. None of these shortcuts changes which
    operations are logged, or their order.

    Each row operation on the working matrix is appended to the row log and
    each column operation to the column log (rows are negated, columns never
    are). The logs fix the transforms: ``u`` replays the row log on the rows
    of an identity and ``v`` the column log on the columns.
    """
    m, n = a.rows, a.cols
    d = a.row_lists()
    row_ops: list[_Op] = []
    col_ops: list[_Op] = []

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        row_ops.append((i, j, 0))

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        col_ops.append((i, j, 0))

    def row_add(i, j, q):
        # row_i += q * row_j
        d[i] = [s + q * t for s, t in zip(d[i], d[j])]
        row_ops.append((i, j, q))

    def col_add(i, j, q):
        # col_i += q * col_j, called only with j == t once the row pass has
        # left column t zero off row t: the one entry that changes is d[t][i]
        d[j][i] += q * d[j][j]
        col_ops.append((i, j, q))

    def row_negate(i):
        d[i] = [-s for s in d[i]]
        row_ops.append((i, i, -1))

    def find_pivot(t):
        # the first entry of least absolute value in row-major order; a unit
        # cannot be beaten under the strict <, so the first one ends the search
        best, least = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                e = row[j]
                if e:
                    size = abs(e)
                    if size == 1:
                        return i, j
                    if best is None or size < least:
                        best, least = (i, j), size
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
            # pivot must divide the whole trailing block before we advance;
            # a unit divides everything
            if p == 1:
                break
            offender = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    return SnfResult(IntMatrix.from_rows(d, n), tuple(row_ops), tuple(col_ops))


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix: det(a) * adj(a), det(a) = +-1."""
    if not a.is_square():
        raise NonUnimodular(f"{a.rows}x{a.cols} matrix cannot be unimodular")
    d, adj = _gauss_jordan(a)
    if abs(d) != 1:
        raise NonUnimodular("matrix is not unimodular, no integer inverse")
    return IntMatrix(a.rows, a.rows, adj if d == 1 else [-x for x in adj])


class QuotientPresentation(NamedTuple):
    """A quotient group together with chosen generator representatives.

    Representatives live in the ambient lattice. Free generators come first,
    then torsion generators in divisibility-chain order.
    """

    group: FgAbGroup
    free_gens: tuple[tuple[int, ...], ...]
    torsion_gens: tuple[tuple[int, ...], ...]  # orders match group.torsion

    def all_gens(self) -> tuple[tuple[int, ...], ...]:
        return self.free_gens + self.torsion_gens

