"""Exact linear algebra over the integers.

Everything here works with built-in arbitrary-precision ints; no floats ever
enter. There are two eliminations. :func:`smith_normal_form`, the
``U @ A @ V = D`` decomposition with unimodular transforms, gives kernels,
cokernels and quotient generators. It keeps its row and column operations,
and only :class:`SnfResult` replays them, onto {coordinate: entry} rows that
store no zero, so a generator costs what it stores: the column log onto unit
rows gives the kernel vectors, the last columns of ``V``; the row log
inverted onto basis vectors gives :meth:`SnfResult.quotient`'s generators
``B @ U^-1``; and :meth:`SnfResult.subquotient` reads ker a / im b off the
coordinates ``V^-1 @ b`` and one more Smith form. Its pivot search stops at
the first unit, each column operation writes one entry, and the divisibility
scan of the trailing block runs only at non-unit pivots. Its steps are
written inline on the working rows; the tests pin its logs to a reference
that scans the whole trailing block at every step. There is no stacking
helper: callers such as ``surface`` write d0, d1 and the oracle's blocks as
flat entry lists. A determinant is one forward fraction-free elimination, an
inverse in GL(n, Z) the adjugate off a fraction-free Gauss-Jordan elimination
of ``[A | I]``; :func:`flat_mul` multiplies over a factor's stored entries.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import NonSquareMatrix, NonUnimodular, ShapeMismatch, _Frozen

_Op = tuple[int, int, int]  # (i, j, q), one line operation; see _replay
_Row = dict[int, int]  # {coordinate: entry}, storing no zero; see _replay


class IntMatrix(_Frozen):
    """Immutable integer matrix, row-major storage.

    Entries are stored as given, so callers pass ints; ``cli`` checks the
    matrices a job spec supplies. Zero-row and zero-column shapes are legal;
    they show up naturally as boundary maps of degenerate complexes.
    """

    __slots__ = ("rows", "cols", "entries")

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
        object.__setattr__(self, "entries", e)

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
    def from_sparse(cls, rows: Sequence[_Row], cols: int) -> "IntMatrix":
        """The matrix whose row i is ``rows[i]``, a {column: entry} row; a missing column is 0."""
        return cls(len(rows), cols, [row.get(j, 0) for row in rows for j in range(cols)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        if any(len(c) != rows for c in columns):
            raise ShapeMismatch("column length mismatch")
        return cls(rows, len(columns), [x for row in zip(*columns) for x in row])

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        n = self.cols
        return IntMatrix(n, self.rows, [x for j in range(n) for x in self.entries[j::n]])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply ({self.rows},{self.cols}) by ({other.rows},{other.cols})")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
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
        return tuple(sum(map(mul, self.entries[i * k : (i + 1) * k], vec)) for i in range(self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other: "IntMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch")

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.row_lists()})"


def _gauss_jordan(a: IntMatrix) -> tuple[int, list[int] | None]:
    """``(det a, adj a)``, adj row-major, or ``(0, None)`` when ``a`` is singular.

    Fraction-free Gauss-Jordan elimination of ``[a | I]`` (Bareiss 1968): step
    k turns every row but the pivot row into (p*x - x[k]*pivot_row) / prev,
    with p its pivot and prev the last one (1 at first). Every entry is a minor
    of the row-permuted ``[a | I]``, so the division is exact and Hadamard's
    bound holds. The end is [D*I | D*a^-1] with D the permuted determinant.
    """
    n = a.rows
    rows = [list(a.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
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
    """Determinant by forward fraction-free elimination (Bareiss 1968): exact, no adjugate.

    :func:`_gauss_jordan`'s step, on the rows below the pivot and the columns
    past it only, so about a sixth of its work; the last pivot is the
    permuted determinant, and near the identity most rows are left as they are.
    """
    if not a.is_square():
        raise NonSquareMatrix(f"determinant of a {a.rows}x{a.cols} matrix")
    n, e = a.rows, a.entries
    rows = [list(e[i * n : i * n + n]) for i in range(n)]
    sign = prev = 1
    for k in range(n):
        for pivot in range(k, n):
            if rows[pivot][k]:
                break
        else:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        p, tail = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            if (f := row[k]) or p != prev:  # else the row stays as it is
                row[k + 1 :] = [(p * s - f * t) // prev for s, t in zip(row[k + 1 :], tail)]
        prev = p
    return sign * prev


def flat_mul(a: Sequence[int], f: Sequence[int], r: int) -> list[int]:
    """a f for a with r columns and r x r f, row-major: a column of a per nonzero entry of f."""
    out = [0] * len(a)
    for k in compress(range(r * r), f):
        c, j = f[k], k % r
        col = a[k // r :: r]
        out[j::r] = map(add, out[j::r], col if c == 1 else [c * t for t in col])
    return out


class SnfResult(_Frozen):
    """Diagonal ``d`` with ``u @ a @ v == d``, ``u`` and ``v`` unimodular.

    The result keeps the elimination's row and column operations in order,
    and only its methods replay them (:func:`_replay`): each transform is
    built when it is first read, and the kernel vectors, quotient and
    subquotient generators replay a log onto just the rows they need, as
    {coordinate: entry} rows, so a caller pays for what it reads.
    """

    __slots__ = ("d", "row_ops", "col_ops", "__dict__")  # __dict__: u and v once read, d's diagonal

    def __init__(self, d: IntMatrix, row_ops: tuple[_Op, ...], col_ops: tuple[_Op, ...]):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "row_ops", row_ops)
        object.__setattr__(self, "col_ops", col_ops)
        diag = tuple(d.entry(i, i) for i in range(min(d.rows, d.cols)))  # read by most methods
        self.__dict__.update(_diagonal=diag, _rank=len(diag) - diag.count(0))

    # a column operation on V is a row operation on V^T: v's columns are replayed as rows
    @cached_property
    def u(self) -> IntMatrix:
        m = self.d.rows
        return IntMatrix.from_sparse(_replay(self.row_ops, _unit_rows(m)), m)

    @cached_property
    def v(self) -> IntMatrix:
        n = self.d.cols
        return IntMatrix.from_sparse(_replay(self.col_ops, _unit_rows(n)), n).transpose()

    def diagonal(self) -> tuple[int, ...]:
        return self._diagonal

    def rank(self) -> int:
        return self._rank

    def cokernel(self) -> FgAbGroup:
        """Canonical form of Z^rows / (a . Z^cols)."""
        torsion = tuple(x for x in self.diagonal() if x > 1)
        return FgAbGroup(self.d.rows - self.rank(), torsion)

    def kernel_basis(self) -> list[_Row]:
        """Saturated basis of ker(a) as {coordinate: entry} rows: the columns rank: of v.

        The column log is replayed onto the unit rows {i: 1} and only those
        rows are kept, so v itself is not built.
        """
        return _replay(self.col_ops, _unit_rows(self.d.cols))[self.rank() :]

    def quotient(self, basis: Sequence[_Row] | None = None) -> QuotientPresentation:
        """Z^k / im(a), k = rows of a, with generators pushed to ambient {coordinate: entry} rows.

        ``basis`` holds the k ambient rows the quotient coordinates refer to;
        None means the unit rows. With B those vectors as columns, column i
        of B @ U^-1 generates the Z/diag[i] (or Z, past the rank) summand; it
        is row i of the row log replayed inverted onto them.
        """
        k, r = self.d.rows, self.rank()
        diag = self.diagonal()
        push = _replay(self.row_ops, _unit_rows(k) if basis is None else list(map(dict, basis)), True)
        torsion_gens = tuple(push[i] for i in range(r) if diag[i] > 1)
        return QuotientPresentation(self.cokernel(), tuple(push[r:]), torsion_gens)

    def subquotient(self, b: IntMatrix) -> QuotientPresentation:
        """ker a / im b with generators in ker a; im b must lie in ker a.

        With V the column transform and k the rank, K = V[:, k:] is a basis
        of ker a and W = V^-1[k:, :] has W K = I. K has full column rank and
        im b lies in ker a, so x = W b is the unique integer x with K x = b:
        rows k: of V^-1 b, the column log replayed inverted onto b. snf(x)
        gives ker a / im b = Z^cols(K) / im x, and its row log replayed
        inverted onto the kernel vectors the generators K U^-1.
        """
        rows: list[_Row] = [{} for _ in range(b.rows)]
        for p in compress(range(len(b.entries)), b.entries):
            rows[p // b.cols][p % b.cols] = b.entries[p]
        x = _replay(self.col_ops, rows, True)[self.rank() :]
        return smith_normal_form(IntMatrix.from_sparse(x, b.cols)).quotient(self.kernel_basis())


class FgAbGroup(_Frozen):
    """Canonical form of a finitely generated abelian group.

    ``torsion`` is the divisibility chain, each entry at least 2 and dividing
    the next. Equality is structural equality of canonical forms.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ShapeMismatch("negative free rank")
        if any(t < 2 for t in torsion):  # before the chain scan, which divides by each entry
            raise ShapeMismatch("torsion entries must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ShapeMismatch(f"torsion {torsion} is not a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __eq__(self, other) -> bool:
        return isinstance(other, FgAbGroup) and (
            (self.free_rank, self.torsion) == (other.free_rank, other.torsion)
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def _unit_rows(n: int) -> list[_Row]:
    return [{i: 1} for i in range(n)]


def _replay(ops: Sequence[_Op], rows: list[_Row], inverse: bool = False) -> list[_Row]:
    """Rows of E_k ... E_1 X: the logged operations E_1, ..., E_k applied in order to X.

    ``rows`` holds X's rows as {coordinate: entry} dicts that store no zero;
    the list and its rows are changed in place, and no zero is stored. An
    operation ``(i, j, q)`` acts on lines: it swaps lines i and j when
    q == 0, negates line i when i == j, and adds q times line j to line i
    otherwise, merged over line j's stored entries, dropping each entry that
    cancels. So an operation costs the entries it reads, not a line's length.
    With ``inverse`` each one is applied as the transpose of its inverse,
    which leaves swaps and negations as they are and turns
    line_i += q*line_j into line_j -= q*line_i; the rows are then those of
    (E_1^-1 ... E_k^-1)^T X: V^-1 X for a column log, whose operations are
    those of V^T, and (B U^-1)^T for a row log and X = B^T.
    """
    x = rows
    for i, j, q in ops:
        if not q:
            x[i], x[j] = x[j], x[i]
        elif i == j:
            x[i] = {k: -s for k, s in x[i].items()}
        else:
            if inverse:
                i, j, q = j, i, -q
            row = x[i]
            for k, t in x[j].items():
                if s := row.get(k, 0) + q * t:
                    row[k] = s
                else:
                    row.pop(k, None)
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

    Each step, a swap, an addition of a multiple of one line to another or a row's
    negation, is written inline on the working rows and appended to the row log or
    the column log (columns are never negated). The logs fix the transforms: ``u``
    replays the row log on the unit rows and ``v`` the column log on the unit columns.
    ``d`` is written from the working rows' diagonal, the only entries left nonzero.
    The tests pin both logs and the diagonal to ``smith_by_full_scan``, which scans
    the whole trailing block at every step.
    """
    m, n = a.rows, a.cols
    d = a.row_lists()
    row_ops: list[_Op] = []
    col_ops: list[_Op] = []
    for t in range(min(m, n)):
        # the pivot: the first entry of least absolute value in row-major
        # order; a unit cannot be beaten under the strict <, so the first one
        # ends the search
        pos, least = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                e = row[j]
                if e and (pos is None or abs(e) < least):
                    pos, least = (i, j), abs(e)
                    if least == 1:
                        break
            if least == 1:
                break
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            row_ops.append((t, pi, 0))
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            col_ops.append((t, pj, 0))
        while True:
            top = d[t]
            if top[t] < 0:
                d[t] = top = [-s for s in top]
                row_ops.append((t, t, -1))
            p = top[t]
            promoted = False
            for i in range(m):
                row = d[i]
                if row[t] and i != t:
                    q = row[t] // p
                    if q:
                        # row_i -= q * row_t
                        d[i] = row = [s - q * u for s, u in zip(row, top)]
                        row_ops.append((i, t, -q))
                    if row[t]:
                        # the remainder is strictly smaller than p; promote it
                        d[t], d[i] = row, top
                        row_ops.append((t, i, 0))
                        promoted = True
                        break
            if promoted:
                continue
            for j in range(n):
                if top[j] and j != t:
                    q = top[j] // p
                    if q:
                        # col_j -= q * col_t; the row pass has left column t
                        # zero off row t, so only row t's entry changes
                        top[j] -= q * p
                        col_ops.append((j, t, -q))
                    if top[j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        col_ops.append((t, j, 0))
                        promoted = True
                        break
            if promoted:
                continue
            # pivot must divide the whole trailing block before we advance;
            # a unit divides everything
            if p == 1:
                break
            offender = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
            if offender is None:
                break
            # row_t += row_offender
            d[t] = [s + u for s, u in zip(top, d[offender])]
            row_ops.append((t, offender, 1))

    diagonal = [0] * (m * n)
    for t in range(min(m, n)):
        diagonal[t * n + t] = d[t][t]
    return SnfResult(IntMatrix(m, n, diagonal), tuple(row_ops), tuple(col_ops))


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

    Representatives live in the ambient lattice as {coordinate: entry} rows
    that store no zero. Free generators come first, then torsion generators
    in divisibility-chain order.
    """

    group: FgAbGroup
    free_gens: tuple[_Row, ...]
    torsion_gens: tuple[_Row, ...]  # orders match group.torsion

    def all_gens(self) -> tuple[_Row, ...]:
        return self.free_gens + self.torsion_gens

