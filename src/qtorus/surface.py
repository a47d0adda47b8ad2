"""Twisted cohomology of closed oriented surfaces via the one-relator model.

The surface group of genus g is presented with 2g generators and the single
relator prod [a_i, b_i]. Coefficients are lattice local systems: unimodular
integer matrices assigned to the generators, subject to the surface relation.
The cochain complex has one cell in degree 0 and 2 and 2g cells in degree 1;
its differentials are the stacked (rho(x_j) - I) blocks and the Fox
derivatives of the relator. A local system unwinds the relator once; its
letter transports give the relation check, d1 and omega's Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    _quotient_with_generators,
    cokernel,
    hstack,
    inverse_unimodular,
    is_unimodular,
    kernel_basis,
    rank,
    smith_normal_form,
    subquotient,
    subquotient_with_generators,
    vstack,
)

Word = tuple[int, ...]  # signed 1-based generator letters; -k is the inverse of k


@dataclass(frozen=True)
class SurfaceGroup:
    """Genus-g surface group presentation data."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise DimensionMismatch("genus must be >= 0")

    @property
    def num_generators(self) -> int:
        return 2 * self.genus

    def relator(self) -> Word:
        """The boundary word prod a_i b_i a_i^-1 b_i^-1 as signed letters."""
        word: list[int] = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            word += [a, b, -a, -b]
        return tuple(word)


class LatticeLocalSystem:
    """Monodromy data: one unimodular matrix per generator, relation enforced.

    ``letter_frames`` holds a (generator index, exponent, transport) triple
    per relator letter. The transport is the monodromy of the relator prefix
    ending just before a positive letter, or just after a negative one.
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
            if not is_unimodular(m):
                raise NonUnimodular(f"monodromy matrix {idx} is not unimodular")
        self.rank = rank
        self.genus = genus
        self.mon = mon
        self._inv: dict[int, IntMatrix] = {}
        frames = []
        prefix = IntMatrix.identity(rank)
        for letter in SurfaceGroup(genus).relator():
            j = abs(letter) - 1
            if letter > 0:
                frames.append((j, 1, prefix))
                prefix = prefix @ self.matrix(letter)
            else:
                prefix = prefix @ self.matrix(letter)
                frames.append((j, -1, prefix))
        if prefix != IntMatrix.identity(rank):
            raise RelationViolated("monodromy violates the surface relation")
        self.letter_frames = tuple(frames)

    @classmethod
    def trivial(cls, rank: int, genus: int) -> "LatticeLocalSystem":
        return cls(rank, genus, [IntMatrix.identity(rank)] * (2 * genus))

    def matrix(self, letter: int) -> IntMatrix:
        """Matrix of a signed generator letter."""
        if letter == 0 or abs(letter) > len(self.mon):
            raise BadGeneratorIndex(f"letter {letter} out of range for {len(self.mon)} generators")
        j = abs(letter) - 1
        if letter > 0:
            return self.mon[j]
        if j not in self._inv:
            self._inv[j] = inverse_unimodular(self.mon[j])
        return self._inv[j]

    def word_matrix(self, word: Word) -> IntMatrix:
        out = IntMatrix.identity(self.rank)
        for letter in word:
            out = out @ self.matrix(letter)
        return out


def fox_derivative(word: Word, gen_index: int, rho: LatticeLocalSystem) -> IntMatrix:
    """Matrix of the Fox derivative of a word with respect to one generator.

    Follows the product rule d(uv) = du + rho(u) dv with d(x^-1) = -rho(x)^-1
    on the generator itself. The reference that :func:`build_complex`'s d1,
    summed from ``rho.letter_frames``, is tested against.
    """
    if not 0 <= gen_index < len(rho.mon):
        raise BadGeneratorIndex(f"generator index {gen_index} out of range")
    result = IntMatrix.zeros(rho.rank, rho.rank)
    prefix = IntMatrix.identity(rho.rank)
    for letter in word:
        if letter == 0 or abs(letter) > len(rho.mon):
            raise BadGeneratorIndex(f"letter {letter} out of range")
        j = abs(letter) - 1
        if letter > 0:
            if j == gen_index:
                result = result + prefix
            prefix = prefix @ rho.matrix(letter)
        else:
            step = rho.matrix(letter)  # inverse matrix
            prefix = prefix @ step
            if j == gen_index:
                # d(x^-1) contributes -rho(prefix x^-1)
                result = result - prefix
    return result


@dataclass(frozen=True)
class CochainComplexSurface:
    """The three-term cochain complex of a lattice local system."""

    genus: int
    rank: int
    d0: IntMatrix  # (2g r) x r, stacked rho(x_j) - I
    d1: IntMatrix  # r x (2g r), Fox derivative blocks of the relator

    def __post_init__(self):
        g, r = self.genus, self.rank
        if (self.d0.rows, self.d0.cols) != (2 * g * r, r):
            raise DimensionMismatch("d0 has the wrong shape")
        if (self.d1.rows, self.d1.cols) != (r, 2 * g * r):
            raise DimensionMismatch("d1 has the wrong shape")
        if 2 * g * r and not (self.d1 @ self.d0).is_zero():
            raise InvariantViolation("d1 . d0 != 0; the complex is inconsistent")


def build_complex(rho: LatticeLocalSystem) -> CochainComplexSurface:
    """Both differentials; block j of d1 sums eps * transport over generator j's letters."""
    g, r = rho.genus, rho.rank
    eye = IntMatrix.identity(r)
    if g == 0:
        return CochainComplexSurface(0, r, IntMatrix.zeros(0, r), IntMatrix.zeros(r, 0))
    d0 = vstack([m - eye for m in rho.mon])
    blocks = [IntMatrix.zeros(r, r)] * (2 * g)
    for j, eps, frame in rho.letter_frames:
        blocks[j] = blocks[j] + frame if eps == 1 else blocks[j] - frame
    return CochainComplexSurface(g, r, d0, hstack(blocks))


class CohomologyTriple(NamedTuple):
    h0: FgAbGroup
    h1: FgAbGroup
    h2: FgAbGroup


@dataclass(frozen=True)
class CohomologyPresentations:
    """Cohomology groups plus generator representatives where downstream code needs them."""

    triple: CohomologyTriple
    complex: CochainComplexSurface
    h0_basis: IntMatrix  # columns: basis of the invariant sublattice
    h1: QuotientPresentation  # generators as vectors in Z^(2g r), inside ker d1
    h2: QuotientPresentation  # generators as vectors in Z^r


def cohomology_presentations(rho: LatticeLocalSystem) -> CohomologyPresentations:
    cx = build_complex(rho)
    snf1 = smith_normal_form(cx.d1)
    h0_basis = kernel_basis(cx.d0)
    h1 = subquotient_with_generators(snf1.kernel_basis(), cx.d0)
    h2 = _quotient_with_generators(snf1, None)
    triple = CohomologyTriple(
        FgAbGroup(h0_basis.cols),
        h1.group,
        h2.group,
    )
    return CohomologyPresentations(triple, cx, h0_basis, h1, h2)


def twisted_cohomology(rho: LatticeLocalSystem) -> CohomologyTriple:
    """Cohomology groups of the surface with coefficients in the local system.

    Only the canonical groups are computed, with no generator
    representatives; :func:`cohomology_presentations` is the route that also
    returns those.
    """
    cx = build_complex(rho)
    snf1 = smith_normal_form(cx.d1)
    return CohomologyTriple(
        FgAbGroup(rho.rank - rank(cx.d0)),
        subquotient(snf1.kernel_basis(), cx.d0),
        snf1.cokernel(),
    )


def _fraction_free_rank(a: IntMatrix) -> int:
    """Rank over Q by Gaussian elimination with exact rational arithmetic.

    Deliberately avoids the Smith normal form machinery so the two rank
    computations stay independent.
    """
    m = [[Fraction(x) for x in a.row(i)] for i in range(a.rows)]
    rank_count = 0
    row = 0
    for col in range(a.cols):
        pivot = None
        for i in range(row, a.rows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for i in range(row + 1, a.rows):
            if m[i][col]:
                factor = m[i][col] / pv
                m[i] = [x - factor * y for x, y in zip(m[i], m[row])]
        rank_count += 1
        row += 1
        if row == a.rows:
            break
    return rank_count


def invariants_coinvariants_check(rho: LatticeLocalSystem, triple: CohomologyTriple) -> bool:
    """Cross-check a given triple's H0 and H2 against routes that never touch Fox derivatives.

    The check tests the triple it is given, normally the one a report has
    already computed from ``rho``. H0 must be the invariant sublattice
    (corank of the stacked monodromy differences, computed fraction-free).
    H2 must be the coinvariants: the ambient lattice modulo the images of all
    rho(x_j) - I.
    """
    r = rho.rank
    eye = IntMatrix.identity(r)
    if rho.genus == 0:
        stacked = IntMatrix.zeros(0, r)
        side = IntMatrix.zeros(r, 0)
    else:
        stacked = vstack([m - eye for m in rho.mon])
        side = hstack([m - eye for m in rho.mon])
    h0_indep = FgAbGroup(r - _fraction_free_rank(stacked))
    h2_indep = cokernel(side)
    return triple.h0 == h0_indep and triple.h2 == h2_indep
