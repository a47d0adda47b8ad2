"""Twisted cohomology of closed oriented surfaces via the one-relator model.

The surface group of genus g is presented with 2g generators and the single
relator prod [a_i, b_i]. Coefficients are lattice local systems: unimodular
integer matrices assigned to the generators, subject to the surface relation.
The cochain complex has one cell in degree 0 and 2 and 2g cells in degree 1;
its differentials are the stacked (rho(x_j) - I) blocks and the Fox
derivatives of the relator, which no word holds: a local system unwinds it
once, a handle at a time, into one :class:`Handle` per handle, its four
letter transports and d1's two blocks, which d1 and omega's Gram matrix read.
Both differentials are written as flat entry lists, with no block matrix.
:func:`cohomology_presentations` is the one cohomology route. Its groups
come from one Smith diagonal per differential and read no transform, so
none is built. Generator representatives are built when first read, by the
Smith forms themselves: H^0's basis is the kernel vectors of snf(d0), H^2 is
snf(d1)'s quotient and H^1 its subquotient ker d1 / im d0. Generators stay
the {coordinate: entry} rows the logs were replayed onto, not (2g r)^2
cells; only H^0's r-long basis is laid out as lists.
"""

from __future__ import annotations

from functools import cached_property
from operator import sub
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonUnimodular,
    RelationViolated,
    _Frozen,
)
from .lattice import (
    FgAbGroup,
    IntMatrix,
    QuotientPresentation,
    SnfResult,
    det,
    inverse_unimodular,
    smith_normal_form,
)


def _times(x: IntMatrix, y: IntMatrix, eye: IntMatrix) -> IntMatrix:
    """x @ y, with no product formed when either factor is the identity."""
    return y if x == eye else x if y == eye else x @ y


class Handle(NamedTuple):
    """One handle (a, b) of the relator walk; all but ``ba_inv``, (ba)^-1, flat and row-major.

    x, y, z, q transport the letters a, b, a^-1, b^-1: with P the relator
    prefix before the handle and P' = P[a, b], they are P, Pa, P'b and P'.
    ``s_a`` = x - z and ``s_b`` = y - q are d1's blocks for a and b.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]
    q: tuple[int, ...]
    s_a: tuple[int, ...]
    s_b: tuple[int, ...]
    ba_inv: IntMatrix


class LatticeLocalSystem:
    """Monodromy data: one unimodular matrix per generator, relation enforced.

    Construction unwinds the relator one handle (a, b) at a time. It forms
    ab and ba and runs one elimination per handle, inverting ba unless ba is
    the identity: det(ba) = det a * det b, so an integer inverse of ba proves
    both generators unimodular, and a matrix with none fails the inversion.
    The commutator [a, b] is the identity, with no product formed, when
    ab == ba, and ab (ba)^-1 otherwise. ``mon_inv`` is built when first read,
    in generator order, from the handle's inverse: a^-1 = (ba)^-1 b and
    b^-1 = a (ba)^-1. ``handles`` holds one :class:`Handle` per handle, in
    relator order; a transport product with an identity factor is not formed.
    The letters x_j and x_j^-1 have the matrices ``mon[j]`` and ``mon_inv[j]``.
    """

    def __init__(self, rank: int, genus: int, mon: Sequence[IntMatrix]):
        if rank < 0:
            raise DimensionMismatch("rank must be >= 0")
        if genus < 0:
            raise DimensionMismatch("genus must be >= 0")
        mon = tuple(mon)
        if len(mon) != 2 * genus:
            raise DimensionMismatch(f"need {2 * genus} matrices for genus {genus}, got {len(mon)}")
        for idx, m in enumerate(mon):
            if not m.is_square() or m.rows != rank:
                raise DimensionMismatch(f"monodromy matrix {idx} must be {rank}x{rank}")
        eye = IntMatrix.identity(rank)
        handles = []
        prefix = eye
        for i in range(genus):
            a, b = mon[2 * i], mon[2 * i + 1]
            ab, ba = _times(a, b, eye), _times(b, a, eye)
            try:
                ba_inv = ba if ba == eye else inverse_unimodular(ba)
            except NonUnimodular:
                bad = 2 * i if abs(det(a)) != 1 else 2 * i + 1
                raise NonUnimodular(f"monodromy matrix {bad} is not unimodular") from None
            after = prefix if ab == ba else _times(prefix, ab @ ba_inv, eye)
            x, y = prefix.entries, _times(prefix, a, eye).entries
            z, q = _times(after, b, eye).entries, after.entries
            handles.append(Handle(x, y, z, q, tuple(map(sub, x, z)), tuple(map(sub, y, q)), ba_inv))
            prefix = after
        if prefix != eye:
            raise RelationViolated("monodromy violates the surface relation")
        self.rank = rank
        self.genus = genus
        self.mon = mon
        self.handles = tuple(handles)

    @cached_property
    def mon_inv(self) -> tuple[IntMatrix, ...]:
        """The generators' inverses, in generator order, from each handle's (ba)^-1."""
        eye = IntMatrix.identity(self.rank)
        inv = []
        for a, b, h in zip(self.mon[::2], self.mon[1::2], self.handles):
            inv += [
                a if a == eye else _times(h.ba_inv, b, eye),
                b if b == eye else _times(a, h.ba_inv, eye),
            ]
        return tuple(inv)

    @classmethod
    def trivial(cls, rank: int, genus: int) -> "LatticeLocalSystem":
        return cls(rank, genus, [IntMatrix.identity(rank)] * (2 * genus))


class CochainComplexSurface(_Frozen):
    """The three-term cochain complex of a lattice local system.

    ``d0`` is (2g r) x r, the stacked rho(x_j) - I; ``d1`` is r x (2g r),
    the Fox derivative blocks of the relator.
    """

    __slots__ = ("genus", "rank", "d0", "d1")

    def __init__(self, genus: int, rank: int, d0: IntMatrix, d1: IntMatrix):
        g, r = genus, rank
        if (d0.rows, d0.cols) != (2 * g * r, r):
            raise DimensionMismatch("d0 has the wrong shape")
        if (d1.rows, d1.cols) != (r, 2 * g * r):
            raise DimensionMismatch("d1 has the wrong shape")
        if 2 * g * r and not (d1 @ d0).is_zero():
            raise InvariantViolation("d1 . d0 != 0; the complex is inconsistent")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)


def build_complex(rho: LatticeLocalSystem) -> CochainComplexSurface:
    """Both differentials, written flat: no per-generator matrix is formed.

    d0 is each rho(x_j) with 1 subtracted on its diagonal, one below the
    other; row i of d1 is row i of each handle's blocks S_a and S_b, side by
    side.
    """
    r = rho.rank
    d0: list[int] = []
    for m in rho.mon:
        block = list(m.entries)
        for k in range(0, r * r, r + 1):
            block[k] -= 1
        d0 += block
    d1: list[int] = []
    for k in range(0, r * r, r):
        for h in rho.handles:
            d1 += h.s_a[k : k + r]
            d1 += h.s_b[k : k + r]
    width = 2 * rho.genus * r
    return CochainComplexSurface(rho.genus, r, IntMatrix(width, r, d0), IntMatrix(r, width, d1))


class CohomologyTriple(NamedTuple):
    h0: FgAbGroup
    h1: FgAbGroup
    h2: FgAbGroup


class CohomologyPresentations(_Frozen):
    """Cohomology groups, with generator representatives built when first read.

    ``triple`` is read off the Smith diagonals of d0 and d1. ``h0_basis``,
    ``h1`` and ``h2`` ask those Smith forms for kernel vectors, a subquotient
    and a quotient, so each is built, once, by its first reader.
    """

    __slots__ = ("triple", "complex", "snf0", "snf1", "__dict__")  # __dict__ holds what is read

    def __init__(
        self, triple: CohomologyTriple, complex: CochainComplexSurface,
        snf0: SnfResult, snf1: SnfResult,  # of d0 and of d1
    ):
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "snf0", snf0)
        object.__setattr__(self, "snf1", snf1)

    @cached_property
    def h0_basis(self) -> list[list[int]]:
        """A basis of the invariant sublattice: the kernel vectors of snf(d0), as r-long lists."""
        return IntMatrix.from_sparse(self.snf0.kernel_basis(), self.complex.rank).row_lists()

    @cached_property
    def h1(self) -> QuotientPresentation:
        """H^1 = ker d1 / im d0 with generators as {coordinate: entry} rows of Z^(2g r), in ker d1.

        It is snf(d1)'s subquotient by d0, whose group must be ``triple.h1``,
        read off coker d0; a fault in the log replays would make them differ.
        """
        h1 = self.snf1.subquotient(self.complex.d0)
        if h1.group != self.triple.h1:
            raise InvariantViolation("H^1 from ker d1 / im d0 disagrees with coker d0")
        return h1

    @cached_property
    def h2(self) -> QuotientPresentation:
        """H^2 = coker d1 with generators as {coordinate: entry} rows of Z^r: snf(d1)'s quotient."""
        return self.snf1.quotient()


def cohomology_presentations(rho: LatticeLocalSystem) -> CohomologyPresentations:
    """Cohomology groups of the surface with coefficients in the local system.

    One Smith form per differential gives all three groups, and reads no
    transform. H^1 is read off coker d0: ker d1 is saturated, so it is a
    direct summand of Z^(2g r) whose complement is free of rank rank(d1),
    and im d0 lies in ker d1, hence Z^(2g r) / im d0 = H^1 + Z^rank(d1).
    """
    cx = build_complex(rho)
    snf0 = smith_normal_form(cx.d0)
    snf1 = smith_normal_form(cx.d1)
    coker0 = snf0.cokernel()
    triple = CohomologyTriple(
        FgAbGroup(rho.rank - snf0.rank()),
        FgAbGroup(coker0.free_rank - snf1.rank(), coker0.torsion),
        snf1.cokernel(),
    )
    return CohomologyPresentations(triple, cx, snf0, snf1)


def _fraction_free_rank(a: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on integer rows.

    Deliberately avoids the Smith normal form machinery so the two rank
    computations stay independent. Each step replaces the rows below the
    pivot row by (p*x - x[col]*pivot_row) / prev, with p this step's pivot
    and prev the last one (1 before the first). The division is exact: by
    Sylvester's identity, after k pivots each entry is the (k+1)x(k+1) minor
    of the row-permuted input on the pivot rows and columns plus its own row
    and column, and p*x - x[col]*t is prev times the next such minor. A
    column with no pivot changes nothing, so this holds with columns skipped.
    Each step rewrites every row below the pivot, and the elimination stops
    once each row holds a pivot, so a wide input, fewer rows than columns,
    costs at most ``rows`` steps on ``rows`` rows.
    """
    m = a.row_lists()
    rank_count = 0
    prev = 1
    for col in range(a.cols):
        pivot = None
        for i in range(rank_count, a.rows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank_count], m[pivot] = m[pivot], m[rank_count]
        top = m[rank_count]
        p = top[col]
        for i in range(rank_count + 1, a.rows):
            x = m[i]
            f = x[col]
            m[i] = [(p * s - f * t) // prev for s, t in zip(x, top)]
        prev = p
        rank_count += 1
        if rank_count == a.rows:
            break
    return rank_count


def invariants_coinvariants_check(rho: LatticeLocalSystem, triple: CohomologyTriple) -> bool:
    """Cross-check a given triple's H0 and H2 against routes that never touch Fox derivatives.

    The check tests the triple it is given, normally the one a report has
    already computed from ``rho``, and forms each rho(x_j) - I itself from
    ``rho.mon`` rather than reading the complex's d0. H0 must be the
    invariant sublattice: its rank is the corank of the stacked monodromy
    differences, and rank A = rank A^T, so integer Bareiss elimination
    (:func:`_fraction_free_rank`) runs on the r x 2gr transpose, the
    (rho(x_j) - I)^T side by side, and stops after at most r pivots. Its
    divisions are exact because each quotient is itself a minor of the input
    (Sylvester's identity). H2 must be the coinvariants: the ambient lattice
    modulo the images of all rho(x_j) - I, the blocks side by side, read off
    one Smith diagonal. Both wide matrices are written flat, row by row,
    from the entries of ``rho.mon``; no block is formed or transposed.
    """
    r = rho.rank
    wide: list[int] = []  # row i: column i of each rho(x_j) - I
    side: list[int] = []  # row i: row i of each rho(x_j) - I
    for i in range(r):
        for m in rho.mon:
            column, row = list(m.entries[i::r]), list(m.entries[i * r : (i + 1) * r])
            column[i] -= 1
            row[i] -= 1
            wide += column
            side += row
    width = 2 * rho.genus * r
    h0_indep = FgAbGroup(r - _fraction_free_rank(IntMatrix(r, width, wide)))
    h2_indep = smith_normal_form(IntMatrix(r, width, side)).cokernel()
    return triple.h0 == h0_indep and triple.h2 == h2_indep
