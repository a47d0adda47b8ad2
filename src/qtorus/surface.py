"""Twisted cohomology of closed oriented surfaces via the one-relator model.

The surface group of genus g is presented with 2g generators and the single
relator prod [a_i, b_i]. Coefficients are lattice local systems: unimodular
integer matrices assigned to the generators, subject to the surface relation.
The cochain complex has one cell in degree 0 and 2 and 2g cells in degree 1;
its differentials are the stacked (rho(x_j) - I) blocks and the Fox
derivatives of the relator. A local system unwinds the relator once; its
letter transports give the relation check, d1 and omega's Gram matrix.
:func:`cohomology_presentations` is the one cohomology route. Its groups
come from one Smith diagonal per differential and read no transform, so
none is built. Generator representatives are built when first read, by the
Smith forms themselves: H^0's basis is the kernel vectors of snf(d0), H^2 is
snf(d1)'s quotient and H^1 its subquotient ker d1 / im d0.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, sub
from typing import NamedTuple, Sequence

from .errors import (
    BadGeneratorIndex,
    DimensionMismatch,
    NonUnimodular,
    RelationViolated,
)
from .errors import InvariantViolation
from .lattice import (
    FgAbGroup,
    IntMatrix,
    QuotientPresentation,
    SnfResult,
    hstack,
    inverse_unimodular,
    smith_normal_form,
    vstack,
)

Word = tuple[int, ...]  # signed 1-based generator letters; -k is the inverse of k


class SurfaceGroup:
    """Genus-g surface group presentation data."""

    __slots__ = ("genus",)

    def __init__(self, genus: int):
        if genus < 0:
            raise DimensionMismatch("genus must be >= 0")
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, *_):
        raise AttributeError("SurfaceGroup is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SurfaceGroup) and self.genus == other.genus

    def __hash__(self) -> int:
        return hash((self.genus,))

    def relator(self) -> Word:
        """The boundary word prod a_i b_i a_i^-1 b_i^-1 as signed letters."""
        word: list[int] = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            word += [a, b, -a, -b]
        return tuple(word)


class LatticeLocalSystem:
    """Monodromy data: one unimodular matrix per generator, relation enforced.

    Each generator other than the identity is inverted once, at construction;
    ``mon_inv`` keeps the inverses in generator order. A matrix with no
    integer inverse fails that inversion, which is the unimodularity check.

    ``letter_frames`` holds a (generator index, exponent, transport) triple
    per relator letter. The transport is the monodromy of the relator prefix
    ending just before a positive letter, or just after a negative one; a
    step from an identity prefix or by an identity letter forms no product.
    """

    def __init__(self, rank: int, genus: int, mon: Sequence[IntMatrix]):
        if rank < 0:
            raise DimensionMismatch("rank must be >= 0")
        if genus < 0:
            raise DimensionMismatch("genus must be >= 0")
        mon = tuple(mon)
        if len(mon) != 2 * genus:
            raise DimensionMismatch(f"need {2 * genus} matrices for genus {genus}, got {len(mon)}")
        eye = IntMatrix.identity(rank)
        inv = []
        for idx, m in enumerate(mon):
            if not m.is_square() or m.rows != rank:
                raise DimensionMismatch(f"monodromy matrix {idx} must be {rank}x{rank}")
            try:
                inv.append(m if m == eye else inverse_unimodular(m))
            except NonUnimodular:
                raise NonUnimodular(f"monodromy matrix {idx} is not unimodular") from None
        self.rank = rank
        self.genus = genus
        self.mon = mon
        self.mon_inv = tuple(inv)
        frames = []
        prefix = eye
        for letter in SurfaceGroup(genus).relator():
            j = abs(letter) - 1
            if letter > 0:
                frames.append((j, 1, prefix))
            step = self.matrix(letter)
            prefix = step if prefix == eye else prefix if step == eye else prefix @ step
            if letter < 0:
                frames.append((j, -1, prefix))
        if prefix != eye:
            raise RelationViolated("monodromy violates the surface relation")
        self.letter_frames = tuple(frames)

    @classmethod
    def trivial(cls, rank: int, genus: int) -> "LatticeLocalSystem":
        return cls(rank, genus, [IntMatrix.identity(rank)] * (2 * genus))

    def matrix(self, letter: int) -> IntMatrix:
        """Matrix of a signed generator letter."""
        if letter == 0 or abs(letter) > len(self.mon):
            raise BadGeneratorIndex(f"letter {letter} out of range for {len(self.mon)} generators")
        return self.mon[letter - 1] if letter > 0 else self.mon_inv[-letter - 1]

    def word_matrix(self, word: Word) -> IntMatrix:
        out = IntMatrix.identity(self.rank)
        for letter in word:
            out = out @ self.matrix(letter)
        return out


class CochainComplexSurface:
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

    def __setattr__(self, *_):
        raise AttributeError("CochainComplexSurface is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CochainComplexSurface) and (
            (self.genus, self.rank, self.d0, self.d1)
            == (other.genus, other.rank, other.d0, other.d1)
        )

    def __hash__(self) -> int:
        return hash((self.genus, self.rank, self.d0, self.d1))


def build_complex(rho: LatticeLocalSystem) -> CochainComplexSurface:
    """Both differentials; block j of d1 sums eps * transport over generator j's letters.

    Each block's sum runs on one flat list of r*r integers, and each block
    becomes one matrix, whatever the number of its letters.
    """
    g, r = rho.genus, rho.rank
    eye = IntMatrix.identity(r)
    if g == 0:
        return CochainComplexSurface(0, r, IntMatrix.zeros(0, r), IntMatrix.zeros(r, 0))
    d0 = vstack([m - eye for m in rho.mon])
    sums = [[0] * (r * r) for _ in rho.mon]
    for j, eps, frame in rho.letter_frames:
        sums[j] = list(map(add if eps == 1 else sub, sums[j], frame.entries))
    return CochainComplexSurface(g, r, d0, hstack([IntMatrix(r, r, s) for s in sums]))


class CohomologyTriple(NamedTuple):
    h0: FgAbGroup
    h1: FgAbGroup
    h2: FgAbGroup


class CohomologyPresentations:
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

    def __setattr__(self, *_):
        raise AttributeError("CohomologyPresentations is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CohomologyPresentations) and (
            (self.triple, self.complex, self.snf0, self.snf1)
            == (other.triple, other.complex, other.snf0, other.snf1)
        )

    def __hash__(self) -> int:
        return hash((self.triple, self.complex, self.snf0, self.snf1))

    @cached_property
    def h0_basis(self) -> list[list[int]]:
        """A basis of the invariant sublattice: the kernel vectors of snf(d0)."""
        return self.snf0.kernel_basis()

    @cached_property
    def h1(self) -> QuotientPresentation:
        """H^1 = ker d1 / im d0 with generators as vectors in Z^(2g r), inside ker d1.

        It is snf(d1)'s subquotient by d0, whose group must be ``triple.h1``,
        read off coker d0; a fault in the log replays would make them differ.
        """
        h1 = self.snf1.subquotient(self.complex.d0)
        if h1.group != self.triple.h1:
            raise InvariantViolation("H^1 from ker d1 / im d0 disagrees with coker d0")
        return h1

    @cached_property
    def h2(self) -> QuotientPresentation:
        """H^2 = coker d1 with generators as vectors in Z^r: snf(d1)'s quotient."""
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
    one Smith diagonal.
    """
    r = rho.rank
    eye = IntMatrix.identity(r)
    if rho.genus == 0:
        wide = side = IntMatrix.zeros(r, 0)
    else:
        diffs = [m - eye for m in rho.mon]
        wide = vstack(diffs).transpose()
        side = hstack(diffs)
    h0_indep = FgAbGroup(r - _fraction_free_rank(wide))
    h2_indep = smith_normal_form(side).cokernel()
    return triple.h0 == h0_indep and triple.h2 == h2_indep
