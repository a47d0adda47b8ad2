"""Global invariants: section space homotopy, commutator pairing, block data.

The space of compactly supported sections over a closed oriented surface is
a 2-type whose homotopy groups are the twisted cohomology of the surface in
degrees 2, 1, 0. Pushing the level forward along the fundamental class
equips each component with a flat gerbe; its isomorphism class is captured
by an antisymmetric Q/Z pairing omega on pi_1 (independent of the component)
and a character chi_d on pi_2 (depending on the component d). Block
dimensions follow by finite Heisenberg counting from omega alone.

omega is computed here by a closed word-combinatorial formula over the
surface relator. That formula is bilinear in the two cocycles, so a report
builds it once as an integer Gram matrix P over the common denominator N of
the level's polarization, in one pass over the letter transports the local
system stored when it unwound the relator (the same ones give d1), and reads
omega off as G^T P G mod N on the H^1 generators G; values become Q/Z
fractions only at the end. Each report computes the cohomology presentations
once and hands them to the omega and pi2-character code.
:func:`pairing_on_cocycles` evaluates the same formula pair by pair and is
kept as the reference the Gram route is tested against. The simplicial
machinery in :mod:`qtorus.cochain` computes the same pairing along a
completely separate route and serves as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import BadComponent, DimensionMismatch, NotInvariant
from .errors import InvariantViolation
from .forms import (
    ZERO,
    BilinearData,
    Frac1,
    QuadraticForm,
    SymmetricForm,
    invariance_check,
    polarize,
    quad_from_bilinear,
)
from .lattice import FgAbGroup, IntMatrix, smith_normal_form
from .surface import (
    CohomologyPresentations,
    LatticeLocalSystem,
    cohomology_presentations,
    twisted_cohomology,
)


@dataclass(frozen=True)
class SectionSpaceInvariants:
    """Homotopy groups of the section space: pi_n is cohomology in degree 2-n."""

    pi0: FgAbGroup
    pi1: FgAbGroup
    pi2: FgAbGroup


def section_space(rho: LatticeLocalSystem) -> SectionSpaceInvariants:
    h = twisted_cohomology(rho)
    return SectionSpaceInvariants(pi0=h.h2, pi1=h.h1, pi2=h.h0)


class LevelInput:
    """A level paired with the surface monodromy it must be invariant under."""

    def __init__(self, bilinear: BilinearData, rho: LatticeLocalSystem):
        if bilinear.rank != rho.rank:
            raise DimensionMismatch(
                f"level rank {bilinear.rank} != local system rank {rho.rank}"
            )
        self.bilinear = bilinear
        self.rho = rho
        self.quad: QuadraticForm = quad_from_bilinear(bilinear)
        if not invariance_check(self.quad, rho.mon):
            raise NotInvariant("the level's quadratic form is not monodromy invariant")
        self.pairing: SymmetricForm = polarize(self.quad)


def pairing_on_cocycles(
    pairing: SymmetricForm,
    rho: LatticeLocalSystem,
    u: Sequence[int],
    v: Sequence[int],
) -> Frac1:
    """Closed form for the cup pairing of two kernel vectors.

    ``u`` and ``v`` list one lattice vector per generator loop (concatenated).
    Unwinding the relator turns the cup product against the fundamental class
    into a sum over ordered letter pairs, read from ``rho.letter_frames``;
    no triangulation is built.

    This is the per-pair reference. Reports take omega from the Gram matrix
    of :func:`commutator_pairing`, which the tests compare against this
    function; the tests and selfcheck compare this function against the
    simplicial oracle in :mod:`qtorus.cochain`.
    """
    r = rho.rank
    n = 2 * rho.genus * r
    if len(u) != n or len(v) != n:
        raise DimensionMismatch(f"expected vectors of length {n}")
    u_blocks = [tuple(u[j * r : (j + 1) * r]) for j in range(2 * rho.genus)]
    v_blocks = [tuple(v[j * r : (j + 1) * r]) for j in range(2 * rho.genus)]
    total = ZERO
    acc = (0,) * r
    for j, eps, frame in rho.letter_frames:
        u_k = tuple(eps * x for x in frame.mul_vec(u_blocks[j]))
        v_k = tuple(eps * x for x in frame.mul_vec(v_blocks[j]))
        total = total + pairing.evaluate(acc, v_k)
        if eps == -1:
            total = total + pairing.evaluate(u_k, v_k)
        acc = tuple(a + x for a, x in zip(acc, u_k))
    return total


def _numerators(rows: Sequence[Sequence[Frac1]]) -> tuple[int, IntMatrix]:
    """(N, A) with rows = A / N mod 1; N is the lcm of the denominators."""
    n = math.lcm(*(e.den for row in rows for e in row))
    return n, IntMatrix.from_rows([[e.num * (n // e.den) for e in row] for row in rows])


def _pairing_gram(rho: LatticeLocalSystem, b: IntMatrix) -> IntMatrix:
    """Integer P with ``pairing_on_cocycles(u, v) = u^T P v / N`` when b = B / N.

    Follows :func:`pairing_on_cocycles` letter by letter. Its running sum of
    earlier letter values is linear in u, kept here as the rows of A^T
    (2gr x r). A letter of generator j with transport F and exponent eps adds
    A^T B (eps F) to block column j, plus F^T B F to block (j, j) when
    inverted, then adds (eps F)^T to the rows of block j of A^T.
    """
    r = rho.rank
    size = 2 * rho.genus * r
    p = [[0] * size for _ in range(size)]
    acc_t = [[0] * r for _ in range(size)]
    for j, eps, frame in rho.letter_frames:
        f = frame if eps == 1 else -frame
        bf = b @ f
        bf_rows = bf.row_lists()
        block = range(j * r, (j + 1) * r)
        for row, acc in zip(p, acc_t):
            if any(acc):
                for c, k in enumerate(block):
                    row[k] += sum(a * bf_rows[t][c] for t, a in enumerate(acc))
        if eps == -1:
            ftbf = f.transpose() @ bf
            for a, x in enumerate(block):
                for c, k in enumerate(block):
                    p[x][k] += ftbf.entry(a, c)
        for a, x in enumerate(block):
            acc_t[x] = [s + y for s, y in zip(acc_t[x], f.column(a))]
    return IntMatrix.from_rows(p, size)


def _omega(
    rho: LatticeLocalSystem, pres: CohomologyPresentations, n: int, b: IntMatrix
) -> tuple[tuple[Frac1, ...], ...]:
    """omega = G^T P G / N on the H^1 generators G, checked on the numerators."""
    gens = IntMatrix.from_columns(pres.h1.all_gens(), 2 * rho.genus * rho.rank)
    w = gens.transpose() @ _pairing_gram(rho, b) @ gens
    free = len(pres.h1.free_gens)
    for i in range(w.rows):
        for j in range(w.rows):
            if (w.entry(i, j) + w.entry(j, i)) % n:
                raise InvariantViolation("commutator pairing is not antisymmetric")
        if i < free and w.entry(i, i) % n:
            raise InvariantViolation("commutator pairing has a nonzero free diagonal")
    return tuple(tuple(Frac1(x, n) for x in w.row(i)) for i in range(w.rows))


def commutator_pairing(level: LevelInput) -> tuple[tuple[Frac1, ...], ...]:
    """omega on the chosen generators of pi_1 (free generators first).

    Evaluates the closed form of :func:`pairing_on_cocycles` on every pair of
    generators at once: the integer Gram matrix P of that bilinear formula,
    over the common denominator N of the polarization, is built in one pass
    over the relator, and omega = G^T P G mod N. Antisymmetric with zero
    diagonal on the free generators; violations would mean the closed form
    and the presentation disagree, which is an internal error, never a user
    one.
    """
    n, b = _numerators(level.pairing.entries)
    return _omega(level.rho, cohomology_presentations(level.rho), n, b)


def _pi2_characters(
    rho: LatticeLocalSystem,
    pres: CohomologyPresentations,
    n: int,
    b: IntMatrix,
    reps: Sequence[tuple[int, ...]],
) -> list[tuple[Frac1, ...]]:
    """chi_d = (lambda^T B d) / N on the invariant basis lambda, for each rep d.

    chi(d + s) - chi(d) = b(lambda, s) by bilinearity, so chi is well defined
    on components exactly when b(lambda, (rho(x) - 1) e_l) vanishes for every
    generator x and basis vector e_l. That is checked once, for all reps.
    """
    chi = pres.h0_basis.transpose() @ b
    eye = IntMatrix.identity(rho.rank)
    for m in rho.mon:
        if any(x % n for x in (chi @ (m - eye)).entries):
            raise InvariantViolation("pi2 character depends on the component representative")
    return [tuple(Frac1(x, n) for x in chi.mul_vec(rep)) for rep in reps]


def pi2_character(level: LevelInput, component: Sequence[int]) -> tuple[Frac1, ...]:
    """chi_d on the invariant-sublattice basis for the component represented by d.

    Well-definedness in d is checked: shifting the representative by any
    (rho(x) - 1)-image must not change the values.
    """
    rho = level.rho
    d_rep = tuple(int(x) for x in component)
    if len(d_rep) != rho.rank:
        raise BadComponent(f"component representative must have length {rho.rank}")
    n, b = _numerators(level.pairing.entries)
    return _pi2_characters(rho, cohomology_presentations(rho), n, b, [d_rep])[0]


@dataclass(frozen=True)
class GerbeBlock:
    """Isomorphism data of one component's flat gerbe."""

    component: tuple[int, ...]
    omega: tuple[tuple[Frac1, ...], ...]
    pi2_character: tuple[Frac1, ...]
    radical_rank: int
    block_dim: int


@dataclass(frozen=True)
class BlockReport:
    """Everything the global tasks report, before serialization."""

    section: SectionSpaceInvariants
    presentations: CohomologyPresentations
    omega: tuple[tuple[Frac1, ...], ...]
    radical_rank: int
    block_dim: int
    blocks: tuple[GerbeBlock, ...]


def _heisenberg_dimensions(
    omega: tuple[tuple[Frac1, ...], ...], free_count: int
) -> tuple[int, int]:
    """(radical rank, block dimension) of the pairing on the free generators.

    Lift N*omega to an integer antisymmetric matrix A (N the lcm of the
    denominators); the finite quotient is the image of A on (Z/N)-coordinates
    and its order is a perfect square because the nonzero invariant factors
    of an antisymmetric matrix pair up.
    """
    f = free_count
    if f == 0:
        return 0, 1
    n, a = _numerators([row[:f] for row in omega[:f]])
    snf = smith_normal_form(a)
    diag = list(snf.diagonal())
    rank = sum(1 for d in diag if d)
    order = 1
    for d in diag:
        order *= n // math.gcd(n, d)
    dim = math.isqrt(order)
    if dim * dim != order:
        raise InvariantViolation("block order is not a perfect square")
    return f - rank, dim


def enumerate_components(
    pres: CohomologyPresentations, free_bound: int = 1
) -> list[tuple[int, ...]]:
    """Default component list: all torsion classes, free coordinates within a bound."""
    h2 = pres.h2
    r = pres.complex.rank
    free_ranges = [range(-free_bound, free_bound + 1)] * len(h2.free_gens)
    torsion_ranges = [range(o) for o in h2.group.torsion]
    out = []
    for free_coeffs in product(*free_ranges):
        for tors_coeffs in product(*torsion_ranges):
            rep = [0] * r
            for coef, gen in zip(free_coeffs, h2.free_gens):
                for i in range(r):
                    rep[i] += coef * gen[i]
            for coef, gen in zip(tors_coeffs, h2.torsion_gens):
                for i in range(r):
                    rep[i] += coef * gen[i]
            out.append(tuple(rep))
    return out


def block_report(
    level: LevelInput,
    components: Sequence[Sequence[int]] | None = None,
    free_bound: int = 1,
) -> BlockReport:
    """Full block structure; presentations, omega and the chi check run once."""
    rho = level.rho
    pres = cohomology_presentations(rho)
    section = SectionSpaceInvariants(
        pi0=pres.triple.h2, pi1=pres.triple.h1, pi2=pres.triple.h0
    )
    n, b = _numerators(level.pairing.entries)
    omega = _omega(rho, pres, n, b)
    radical_rank, block_dim = _heisenberg_dimensions(omega, len(pres.h1.free_gens))
    if components is None:
        reps = enumerate_components(pres, free_bound)
    else:
        reps = [tuple(int(x) for x in c) for c in components]
        for rep in reps:
            if len(rep) != rho.rank:
                raise BadComponent(f"component representative must have length {rho.rank}")
    blocks = tuple(
        GerbeBlock(
            component=rep,
            omega=omega,
            pi2_character=chi,
            radical_rank=radical_rank,
            block_dim=block_dim,
        )
        for rep, chi in zip(reps, _pi2_characters(rho, pres, n, b, reps))
    )
    return BlockReport(section, pres, omega, radical_rank, block_dim, blocks)


@dataclass(frozen=True)
class BuntReport:
    """Block data relabeled for the moduli of bundles on the curve.

    pi0 carries first-Chern-class labels and coincides with degree-2
    cohomology; the uniformization degrees supply pi1 and pi2. The group data
    is the section-space report's, read from the same presentations.
    """

    pi0: FgAbGroup
    pi1: FgAbGroup
    pi2: FgAbGroup
    component_label: str
    blocks: tuple[GerbeBlock, ...]


def bunt_report(
    level: LevelInput,
    components: Sequence[Sequence[int]] | None = None,
    free_bound: int = 1,
) -> BuntReport:
    report = block_report(level, components, free_bound)
    return BuntReport(
        pi0=report.section.pi0,
        pi1=report.section.pi1,
        pi2=report.section.pi2,
        component_label="first_chern_class",
        blocks=report.blocks,
    )
