"""Global invariants: the commutator pairing and block data of a level.

The space of compactly supported sections over a closed oriented surface is
a 2-type whose homotopy groups are the twisted cohomology of the surface in
degrees 2, 1, 0, so pi_n is read off the report's cohomology triple,
``BlockReport.presentations.triple``, and not held again. Pushing the level
forward along the fundamental class equips each component with a flat
gerbe; its isomorphism class is captured by an antisymmetric Q/Z pairing
omega on pi_1 and a character chi_d on pi_2. omega, and the block dimension
that finite Heisenberg counting reads from omega alone, belong to the level:
a :class:`BlockReport` holds them once. Only chi_d depends on the component
d, so a :class:`GerbeBlock` holds the component and its character. The
moduli of T-bundles on the curve has the same homotopy groups, with pi_0
labelled by the first Chern class; that is a label on the same report, not
another computation.

omega is computed here by a closed word-combinatorial formula over the
surface relator, and only here. That formula is bilinear in the two
cocycles, so it is built once as an integer Gram matrix P against the
polarization's integer numerators B over its common denominator N (both
held by the form), in one pass over the letter transports the local system
stored when it unwound the relator (the same ones give d1). The pass goes
one handle at a time, so P costs time linear in the genus where it is
block diagonal by handle. P and W stay {column: entry} rows from the
relator to the report: :func:`omega_numerators` scatters P's stored
entries over the supports of the vectors G to give W = G^T P G, and a
report checks each stored entry of W against its mirror and reduces it
once into [0, N), in zero-filled rows that the Heisenberg count and the
output read. The components are lattice combinations of H^2's generators,
each one vector sum away from a shorter combination, and chi, linear in the
component, costs one pass over the rows of lambda^T B per component; it is
held the same way. Both stay integer residues over the report's
denominator N: only :mod:`qtorus.cli` writes them as Q/Z fractions, from one
string per distinct residue. Each report computes the cohomology
presentations once and hands them to the omega and pi2-character code.
:mod:`qtorus.selfcheck` checks the same W against the simplicial machinery
in :mod:`qtorus.cochain`, which computes the pairing along a completely
separate route.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import add, mul
from typing import NamedTuple, Sequence

from .errors import BadComponent, DimensionMismatch, NotInvariant
from .errors import InvariantViolation, ShapeMismatch
from .forms import (
    BilinearData,
    QuadraticForm,
    SymmetricForm,
    invariance_check,
    polarize,
    quad_from_bilinear,
)
from .lattice import IntMatrix
from .surface import (
    CohomologyPresentations,
    LatticeLocalSystem,
    cohomology_presentations,
)


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
        if not invariance_check(self.quad, rho):
            raise NotInvariant("the level's quadratic form is not monodromy invariant")
        self.pairing: SymmetricForm = polarize(self.quad)


def _pairing_gram(rho: LatticeLocalSystem, b: IntMatrix) -> list[dict[int, int]]:
    """Integer P of the closed form: omega(u, v) = u^T P v / N when b = B / N.

    Unwinding the relator turns the cup product against the fundamental
    class into a sum over letters: each letter value of v pairs under b with
    the sum of u's earlier letter values, and an inverted letter adds its own
    value to that sum before it pairs. The running sum is linear in u, kept
    here as the rows of A^T (2gr x r). A letter of generator j with transport
    F and exponent eps adds A^T B (eps F) to block column j and (eps F)^T to
    the rows of block j of A^T.

    The relator is walked one handle, a b a^-1 b^-1, at a time. A row of A^T
    belongs to one generator: it is zero until that generator's first letter,
    and once its handle's four letters are done it holds its final sum, a
    column of S_m = sum of eps F over the letters of generator m (block m of
    d1). So a letter pairs only the 2r rows of its own handle, and each later
    generator j adds one block, A^T B S_j, to the finished rows. B S_j is
    the sum of the products B (eps F) of j's letters, so it costs no further
    product, and the block is skipped when it is zero: on a trivial system,
    where S_j = 0, and whenever B kills the image of every S_j, as for
    commuting shears x -> x + l(x) e_0 with b(e_0, -) = 0. P, held as
    {column: entry} rows, is then block diagonal by handle, and its work and
    storage grow linearly in the genus. An identity frame forms no product:
    B (eps I) is B or -B, and -B is formed once per call.
    """
    r = rho.rank
    size = 2 * rho.genus * r
    p: list[dict[int, int]] = [{} for _ in range(size)]
    acc_t = [[0] * r for _ in range(size)]
    eye, signed_b = IntMatrix.identity(r), {1: b, -1: -b}
    for h in range(rho.genus):
        start = 2 * h * r  # rows before it are finished; rows after it are still zero
        bs: dict[int, IntMatrix] = {}  # B S_j, summed over the letters of j
        for j, eps, frame in rho.letter_frames[4 * h : 4 * h + 4]:
            f = frame if eps == 1 else -frame
            bf = signed_b[eps] if frame == eye else b @ f
            bs[j] = bs[j] + bf if j in bs else bf
            if eps == -1:
                _accumulate(acc_t, j * r, f)
            _pair_rows(p, acc_t, range(start, start + 2 * r), j * r, bf)
            if eps == 1:
                _accumulate(acc_t, j * r, f)
        for j, m in bs.items():
            if start and not m.is_zero():
                _pair_rows(p, acc_t, range(start), j * r, m)
    return p


def _accumulate(acc_t: list[list[int]], at: int, f: IntMatrix) -> None:
    """Add the letter's value map (eps F)^T to the rows of its block, from ``at`` on."""
    for x in range(f.cols):
        acc_t[at + x] = [s + y for s, y in zip(acc_t[at + x], f.column(x))]


def _pair_rows(
    p: list[dict[int, int]], acc_t: list[list[int]], rows: range, at: int, m: IntMatrix
) -> None:
    """Add A^T M to P's block column from ``at`` on, over the nonzero ``rows`` of A^T."""
    cols = [m.column(c) for c in range(m.cols)]
    for x in rows:
        if any(acc_t[x]):
            _pair_row(p[x], at, acc_t[x], cols)


def _pair_row(row: dict[int, int], at: int, acc: list[int], cols: list[tuple[int, ...]]) -> None:
    """Add acc^T times each column to P's ``row`` from column ``at`` on; a zero adds no key."""
    for c, col in enumerate(cols, at):
        if x := sum(map(mul, acc, col)):
            row[c] = row.get(c, 0) + x


def omega_numerators(
    rho: LatticeLocalSystem, pairing: SymmetricForm, gens: Sequence[Sequence[int]]
) -> list[dict[int, int]]:
    """W = G^T P G: omega(g_i, g_j) = W[i].get(j, 0) / N on the vectors ``gens``.

    Each vector lists one lattice vector per generator loop (concatenated).
    W comes as {generator: entry} rows, like P, built from the pairing's
    numerators B over their denominator N, and is not checked or reduced mod
    N. The product is Gustavson's: one pass over ``gens`` lists each
    coordinate's support as (generator, value) pairs. For each coordinate i
    that a generator touches, each stored x = P[i][k] scatters x times the
    support of k into one row of P G, which row a of W takes y times for
    each (a, y) in the support of i. So the work and the storage follow the
    nonzero entries of P and G, and no dense row is formed.
    """
    size = 2 * rho.genus * rho.rank
    coords = range(size)  # compress(coords, v) lists the indices of v's nonzero entries
    support: list[list[tuple[int, int]]] = [[] for _ in coords]
    for b, gen in enumerate(gens):
        if len(gen) != size:
            raise ShapeMismatch(f"vector of length {len(gen)} for {size} coordinates")
        for i in compress(coords, gen):
            support[i].append((b, gen[i]))
    p = _pairing_gram(rho, pairing.numerators)
    w: list[dict[int, int]] = [{} for _ in gens]
    for i, left in enumerate(support):
        if left:
            pg: dict[int, int] = {}
            for k, x in p[i].items():
                for b, y in support[k]:
                    pg[b] = pg.get(b, 0) + x * y
            for a, y in left:
                w_a = w[a]
                for b, s in pg.items():
                    w_a[b] = w_a.get(b, 0) + y * s
    return w


def _omega(
    rho: LatticeLocalSystem, pres: CohomologyPresentations, pairing: SymmetricForm
) -> tuple[tuple[int, ...], ...]:
    """omega on the H^1 generators, free generators first: W's rows mod N.

    omega = W / N is antisymmetric with zero diagonal on the free generators.
    Each stored entry of W is checked against its mirror, read as 0 when it
    is missing, and reduced into zero-filled rows, the one dense form, which
    the reports print. A violation would mean the closed form and the
    presentation disagree, which is an internal error, never a user one.
    """
    n = pairing.denominator
    w = omega_numerators(rho, pairing, pres.h1.all_gens())
    free = len(pres.h1.free_gens)
    rows = [[0] * len(w) for _ in w]
    for i, row in enumerate(w):
        for j, x in row.items():
            if (x + w[j].get(i, 0)) % n:
                raise InvariantViolation("commutator pairing is not antisymmetric")
            if i == j < free and x % n:
                raise InvariantViolation("commutator pairing has a nonzero free diagonal")
            rows[i][j] = x % n
    return tuple(map(tuple, rows))


def _pi2_characters(
    rho: LatticeLocalSystem,
    pres: CohomologyPresentations,
    pairing: SymmetricForm,
    reps: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """chi_d = (lambda^T B d) mod N on the invariant basis lambda, for each rep d.

    chi(d + s) - chi(d) = b(lambda, s) by bilinearity, so chi is well defined
    on components exactly when b(lambda, (rho(x) - 1) e_l) vanishes for every
    generator x and basis vector e_l. That is checked once, for all reps, on
    each rho(x_j) - 1 read as block j of the complex's d0.
    """
    n = pairing.denominator
    r = rho.rank
    chi = IntMatrix.from_rows(pres.h0_basis, r) @ pairing.numerators
    d0, size = pres.complex.d0.entries, r * r
    for j in range(2 * rho.genus):
        if any(x % n for x in (chi @ IntMatrix(r, r, d0[j * size : (j + 1) * size])).entries):
            raise InvariantViolation("pi2 character depends on the component representative")
    rows = chi.row_lists()
    return [tuple(sum(map(mul, row, rep)) % n for row in rows) for rep in reps]


class GerbeBlock(NamedTuple):
    """One component's share of its flat gerbe: the pi2 character chi_d.

    chi_d is held as residues in [0, N) over the report's ``denominator``.
    omega, the radical rank and the block dimension do not depend on the
    component; they are the level's and live on :class:`BlockReport`.
    """

    component: tuple[int, ...]
    pi2_character: tuple[int, ...]


class BlockReport(NamedTuple):
    """Everything the global tasks report, before serialization.

    omega, ``radical_rank`` and ``block_dim`` are per level and held once;
    each block carries only what depends on its component. omega and every
    chi are residues in [0, N) over ``denominator``, the pairing's N: the
    value x stands for x / N in Q/Z.
    """

    presentations: CohomologyPresentations
    denominator: int
    omega: tuple[tuple[int, ...], ...]
    radical_rank: int
    block_dim: int
    blocks: tuple[GerbeBlock, ...]


def _heisenberg_dimensions(
    n: int, rows: Sequence[Sequence[int]], free_count: int
) -> tuple[int, int]:
    """(radical rank, block dimension) of omega on the free generators.

    A is the free block of omega's ``rows``, W reduced into [0, N). The
    finite quotient is the image of A on (Z/N)-coordinates, of order
    prod N / gcd(N, p_i) over the pivots p_i of any diagonal form of A mod N,
    whatever the lift; that order is a perfect square because omega is
    antisymmetric, and the block dimension is its root. :func:`_order_mod`
    finds such pivots with every entry kept in [0, N), so nothing grows and
    N is never factored.

    The radical rank is f minus the rank of A over Z, so it depends on the
    lift: for N = 3 the reduced lift [[0,1,1],[2,0,1],[2,2,0]] has rank 3
    (radical rank 0), while the antisymmetric lift [[0,1,1],[-1,0,1],
    [-1,-1,0]] of the same omega has rank 2. Reports always use the reduced
    lift, so the value is deterministic; the block dimension agrees for both.
    :func:`_lift_rank` computes that rank exactly, by one elimination whose
    entries stay within Hadamard's bound.
    """
    f = free_count
    a = [list(row[:f]) for row in rows[:f]]
    order = _order_mod(n, a)
    dim = math.isqrt(order)
    if dim * dim != order:
        raise InvariantViolation("block order is not a perfect square")
    return f - _lift_rank(a), dim


def _order_mod(n: int, a: list[list[int]]) -> int:
    """Order of the row module of ``a`` (entries in [0, n)) over Z/n.

    Euclidean elimination mod n: the smallest nonzero residue p is the pivot,
    its column and then its row are reduced by integer quotients, and any
    nonzero remainder, smaller than p, becomes the next pivot. A pivot alone
    in its row and column adds a factor n / gcd(n, p) and its row leaves.
    Every operation is unimodular, so the pivots form a diagonal form of
    ``a`` mod n, and no divisibility chain is needed for the order.
    """
    rows = [row[:] for row in a if any(row)]
    order = 1
    while rows:
        top, p = None, n
        for row in rows:
            x = min(filter(None, row))
            if x < p:
                top, p = row, x
                if p == 1:  # no residue is smaller
                    break
        j = top.index(p)
        rest = []
        for row in rows:
            if row is not top:
                if row[j]:
                    q = row[j] // p
                    row = [(s - q * t) % n for s, t in zip(row, top)]
                if any(row):
                    rest.append(row)
        if not any(row[j] for row in rest):
            # column j is clear, so a column operation only changes the pivot row
            top = [x % p for x in top]
            top[j] = p
            if not (any(top[:j]) or any(top[j + 1 :])):
                order *= n // math.gcd(n, p)
                for row in rest:  # column j is zero there from now on
                    del row[j]
                rows = rest
                continue
        rows = rest + [top]
    return order


def _lift_rank(a: list[list[int]]) -> int:
    """Rank of ``a`` over Q by fraction-free elimination on primitive rows.

    Rows are held sparse, as {column: entry}. The last row is the pivot row
    and its entry p of least absolute value, in column j, the pivot. Each
    row with x = row[j] != 0 becomes (p * row - x * pivot_row) divided by
    the gcd of its entries, which clears column j, and leaves if it is zero;
    rows with x = 0 are not touched, so the work follows the nonzero entries.
    After k pivots a row spans the line of vectors in the span of itself and
    the pivot rows that vanish on the pivot columns, as Bareiss's row of
    (k + 1)-minors does, so a primitive row is that minor row over its
    content: with H the product of the norms of ``a``'s nonzero rows, no
    entry exceeds H, and none exceeds 2 H^2 before the division.
    """
    rows = [{j: x for j, x in enumerate(row) if x} for row in a if any(row)]
    rank = 0
    while rows:
        top = rows.pop()
        j, p = min(top.items(), key=lambda e: abs(e[1]))
        rank += 1
        rest = []
        for row in rows:
            x = row.get(j)
            if x:
                row = {c: p * s for c, s in row.items()}
                for c, t in top.items():
                    row[c] = row.get(c, 0) - x * t
                g = math.gcd(*row.values())
                if not g:
                    continue
                row = {c: s // g for c, s in row.items() if s}
            rest.append(row)
        rows = rest
    return rank


def enumerate_components(
    pres: CohomologyPresentations, free_bound: int = 1
) -> list[tuple[int, ...]]:
    """Default component list: all torsion classes, free coordinates within a bound.

    The coefficients run in ``itertools.product`` order over the free, then
    the torsion generators of H^2, the last generator fastest. Each multiple
    c g is formed once, and each pass adds one generator's multiples to every
    representative so far, so a representative costs one vector sum.
    """
    h2 = pres.h2
    ranges = [range(-free_bound, free_bound + 1)] * len(h2.free_gens)
    ranges += [range(o) for o in h2.group.torsion]
    reps = [(0,) * pres.complex.rank]
    for g, coeffs in zip(h2.all_gens(), ranges):
        multiples = [tuple(c * x for x in g) for c in coeffs]
        reps = [tuple(map(add, rep, m)) for rep in reps for m in multiples]
    return reps


def block_report(
    level: LevelInput,
    components: Sequence[Sequence[int]] | None = None,
    free_bound: int = 1,
) -> BlockReport:
    """Full block structure; presentations, omega and the chi check run once."""
    rho = level.rho
    pres = cohomology_presentations(rho)
    n = level.pairing.denominator
    omega = _omega(rho, pres, level.pairing)
    radical_rank, block_dim = _heisenberg_dimensions(n, omega, len(pres.h1.free_gens))
    if components is None:
        reps = enumerate_components(pres, free_bound)
    else:
        reps = [tuple(c) for c in components]
        for rep in reps:
            if len(rep) != rho.rank:
                raise BadComponent(f"component representative must have length {rho.rank}")
    blocks = tuple(
        GerbeBlock(rep, chi)
        for rep, chi in zip(reps, _pi2_characters(rho, pres, level.pairing, reps))
    )
    return BlockReport(pres, n, omega, radical_rank, block_dim, blocks)
