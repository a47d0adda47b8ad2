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
held by the form). Each handle's blocks are one closed form in the four
letter transports and the two d1 blocks of the handle's record, stored when
the local system unwound the relator, so P costs time linear in the genus
where it is block diagonal by handle. P, G and W stay {column: entry} rows
from the relator and the Smith logs to the report: :func:`omega_numerators`
scatters P's stored entries over the supports of H^1's generator rows G to
give W = G^T P G, so no dense P, G, P G or W is formed. A report
checks each stored entry of W against its mirror and holds W mod N as
{column: residue} rows that store no zero, omega's one form: the Heisenberg
count reads its free block, and only :mod:`qtorus.cli` lays it out densely.
The components are lattice combinations of H^2's generators, each one
vector sum away from a shorter combination, and chi, linear in the
component, is one pass over the rows of lambda^T B with the components as
coordinate columns; it is held the same way. Both stay integer residues over
the report's denominator N: only :mod:`qtorus.cli` writes them as Q/Z
fractions, from one string per distinct residue. Each report computes the
cohomology presentations once and hands them to the omega and chi code.
:mod:`qtorus.selfcheck` checks the same W against the simplicial machinery
in :mod:`qtorus.cochain`, which computes the pairing along a completely
separate route.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import add
from typing import NamedTuple, Sequence

from .errors import BadComponent, DimensionMismatch, NotInvariant
from .errors import InvariantViolation, ResourceLimit, ShapeMismatch
from .forms import (
    BilinearData,
    QuadraticForm,
    SymmetricForm,
    invariance_check,
    polarize,
    quad_from_bilinear,
)
from .lattice import IntMatrix, flat_mul
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
            raise NotInvariant("the level's quadratic form is not monodromy invariant", "level")
        self.pairing: SymmetricForm = polarize(self.quad)


def _pairing_gram(rho: LatticeLocalSystem, b: IntMatrix) -> list[dict[int, int]]:
    """Integer P of the closed form: omega(u, v) = u^T P v / N when b = B / N.

    The cup product against the fundamental class is a sum over relator
    letters, each letter value of v paired under b with the sum of u's
    earlier ones (an inverted letter adds its own value first). On a handle
    whose letters have transports X, Y, Z, Q, with d1 blocks S_a = X - Z and
    S_b = Y - Q (``rho.handles`` holds all six), that sum closes into

        P_aa = -S_a^T B Z    P_ab = X^T B Y - S_a^T B Q
        P_ba = -Y^T B Z      P_bb = -S_b^T B Q,

    and the rows of each generator m of an earlier handle gain S_m^T B S_j
    in the block of each generator j of this one, except on rows where
    S_m^T B vanishes or where S_j = 0. With D = -S the column blocks are
    [D_a^T B; -Y^T B] Z and [D_a^T B; D_b^T B] Q + [X^T B Y; 0]; an identity
    transport forms no product, so a trivial handle is P_ab = B, P_ba = -B.
    Each handle's 2r rows are written once, storing no zero.
    """
    r, w = rho.rank, 2 * rho.rank
    eye, zero = (((1,) + (0,) * r) * r)[: r * r], [0] * (r * r)  # I: a 1 every r + 1 entries
    pos, neg = list(b.entries), [-x for x in b.entries]
    p: list[dict[int, int]] = []
    done_rows, done_left = [], []  # earlier rows with a nonzero row of S^T B; those rows, stacked
    for h, (x, y, z, q, s_a, s_b, _) in enumerate(rho.handles):
        left_a = _tmul(s_a, neg, r) if any(s_a) else zero  # D_a^T B = S_a^T (-B)
        dq = left_a + (_tmul(s_b, neg, r) if any(s_b) else zero)  # D^T B on the 2r rows
        first = left_a + (neg if y == eye else _tmul(y, neg, r))
        first = first if z == eye else flat_mul(first, z, r)
        xb = pos if x == eye else _tmul(x, pos, r)
        second = (xb if y == eye else flat_mul(xb, y, r)) + zero
        if linked := any(dq):
            second = list(map(add, second, dq if q == eye else flat_mul(dq, q, r)))
        cols = range(h * w, h * w + w)
        if done_rows and (any(s_a) or any(s_b)):
            off_a, off_b = flat_mul(done_left, s_a, r), flat_mul(done_left, s_b, r)
            for k, row in enumerate(done_rows):
                vals = off_a[k * r : k * r + r] + off_b[k * r : k * r + r]
                p[row].update(compress(zip(cols, vals), vals))
        for i in range(w):
            vals = first[i * r : i * r + r] + second[i * r : i * r + r]
            p.append(dict(compress(zip(cols, vals), vals)))
            if linked and any(lv := dq[i * r : i * r + r]):
                done_rows.append(len(p) - 1)
                done_left += [-t for t in lv]  # S^T B
    return p


def _tmul(x: Sequence[int], y: Sequence[int], r: int) -> list[int]:
    """x^T y for r x r x and y, row-major: a row of y per nonzero entry of x."""
    out = [0] * (r * r)
    for k in compress(range(r * r), x):
        c, i, j = x[k], k % r * r, k - k % r
        row = y[j : j + r]
        out[i : i + r] = map(add, out[i : i + r], row if c == 1 else [c * t for t in row])
    return out


def omega_numerators(
    rho: LatticeLocalSystem, numerators: IntMatrix, gens: Sequence[dict[int, int]]
) -> list[dict[int, int]]:
    """W = G^T P G: omega(g_i, g_j) = W[i].get(j, 0) / N on the rows ``gens``.

    ``numerators`` is the integer B of a pairing b = B / N; N never enters,
    so W is linear in B. Each generator is a {coordinate: entry} row, one
    lattice vector per generator loop (concatenated), as H^1 holds it. W
    comes as {generator: entry} rows, like P, and is not checked or reduced
    mod N. The product is Gustavson's: one pass over the stored entries of
    ``gens`` lists each coordinate's support as (generator, value) pairs.
    For each coordinate i that a generator touches, each stored x = P[i][k]
    scatters x times the support of k into one row of P G, which row a of W
    takes y times for each (a, y) in the support of i. So the work and the
    storage follow the stored entries of P and G; no dense row is formed.
    """
    size = 2 * rho.genus * rho.rank
    support: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for b, gen in enumerate(gens):
        for i, x in gen.items():
            if not 0 <= i < size:
                raise ShapeMismatch(f"coordinate {i} outside {size} coordinates")
            support[i].append((b, x))
    p = _pairing_gram(rho, numerators)
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
) -> list[dict[int, int]]:
    """omega on the H^1 generators, free generators first: W's rows mod N.

    omega = W / N is antisymmetric with zero diagonal on the free generators.
    Each stored entry of W is checked against its mirror, read as 0 when it
    is missing; the rows keep each nonzero residue in [0, N) as {column:
    residue}. A violation would mean the closed form and the presentation
    disagree, which is an internal error, never a user one.
    """
    n = pairing.denominator
    w = omega_numerators(rho, pairing.numerators, pres.h1.all_gens())
    free = len(pres.h1.free_gens)
    for i, row in enumerate(w):
        for j, x in row.items():
            if (x + w[j].get(i, 0)) % n:
                raise InvariantViolation("commutator pairing is not antisymmetric")
            if i == j < free and x % n:
                raise InvariantViolation("commutator pairing has a nonzero free diagonal")
    return [{j: s for j, x in row.items() if (s := x % n)} for row in w]


def _pi2_characters(
    rho: LatticeLocalSystem,
    pres: CohomologyPresentations,
    pairing: SymmetricForm,
    reps: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """chi_d = (lambda^T B d) mod N on the invariant basis lambda, for every rep d at once.

    chi(d + s) - chi(d) = b(lambda, s) by bilinearity, so chi is well defined
    on components exactly when lambda^T B (rho(x_j) - 1) vanishes mod N for
    every generator x_j. Line k holds row k of every block rho(x_j) - 1 of
    the complex's d0, side by side, then coordinate k of every rep. One pass
    per row of lambda^T B sums c times line k over its nonzero entries c:
    the first 2g r sums must vanish mod N, and the rest are the row's chi.
    """
    n = pairing.denominator
    r, w = rho.rank, 2 * rho.genus * rho.rank
    chi = IntMatrix.from_rows(pres.h0_basis, r) @ pairing.numerators
    d0 = pres.complex.d0.entries
    lines = [[x for s in range(k * r, w * r, r * r) for x in d0[s : s + r]] for k in range(r)]
    lines = [line + [d[k] for d in reps] for k, line in enumerate(lines)]
    values = []
    for row in chi.row_lists():
        acc = [0] * (w + len(reps))
        for c, line in compress(zip(row, lines), row):
            acc = list(map(add, acc, line if c == 1 else map(c.__mul__, line)))
        if any(x % n for x in acc[:w]):
            raise InvariantViolation("pi2 character depends on the component representative")
        values.append([x % n for x in acc[w:]])
    return list(zip(*values)) if values else [()] * len(reps)


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
    each block carries only what depends on its component. omega, one {column:
    residue} row per H^1 generator storing no zero, and every chi are residues
    x in [0, N) over ``denominator``, the pairing's N, standing for x / N;
    :mod:`qtorus.cli` writes v1's block list from the report as it stands.
    """

    presentations: CohomologyPresentations
    denominator: int
    omega: list[dict[int, int]]
    radical_rank: int
    block_dim: int
    blocks: tuple[GerbeBlock, ...]


def _heisenberg_dimensions(
    n: int, rows: Sequence[dict[int, int]], free_count: int
) -> tuple[int, int]:
    """(radical rank, block dimension) of omega on the free generators.

    A, the free block of omega's {column: residue} ``rows``, is their first f
    rows cut at column f; both eliminations take it. The image of A on
    (Z/N)-coordinates has order prod N / gcd(N, p_i) over the pivots p_i of
    a Howell basis of A mod N, whatever the lift, a perfect square because
    omega is antisymmetric; the block dimension is its root. :func:`_order_mod`
    builds that basis with entries in [0, N): nothing grows, N is never factored.

    The radical rank is f minus the rank of A over Z, so it depends on the
    lift: for N = 3 the reduced lift [[0,1,1],[2,0,1],[2,2,0]] has rank 3
    (radical rank 0), while the antisymmetric lift [[0,1,1],[-1,0,1],
    [-1,-1,0]] of the same omega has rank 2. Reports always use the reduced
    lift, so the value is deterministic; the block dimension agrees for both.
    :func:`_lift_rank` computes that rank exactly, within Hadamard's bound.
    """
    f = free_count
    a = [{j: x for j, x in row.items() if j < f} for row in rows[:f]]
    order = _order_mod(n, a)
    dim = math.isqrt(order)
    if dim * dim != order:
        raise InvariantViolation("block order is not a perfect square")
    return f - _lift_rank(a), dim


def _order_mod(n: int, a: Sequence[dict[int, int]]) -> int:
    """Order of the row module M over Z/n of the {column: residue} rows ``a``.

    Each copied row is inserted into a Howell basis, one row per pivot
    column j with pivot p_j: a row popped at its least column j becomes the
    basis row if there is none, else a two-row Euclid on column j (floor
    quotients, entries kept in [0, n)) leaves the gcd row in the basis and
    pushes the remainder, which starts past j. A basis row set or replaced
    pushes its annihilator multiple (n / gcd(n, p_j)) row, which starts past
    j too. The basis and the stack span M throughout, so the basis does at
    the end, with Howell's property: each c row_j with c p_j = 0 mod n lies
    in the span of the rows past j. So each element of M is exactly one sum
    of c_j row_j with 0 <= c_j < n / gcd(n, p_j) (the least column where two
    differ tells them apart), and |M| is the product of those orders. The
    stack empties: a row pushed from column j starts past j, and the pivot
    at j only changes to a proper divisor of itself.
    """
    stack = [dict(row) for row in a]
    basis: dict[int, dict[int, int]] = {}
    while stack:
        row = stack.pop()
        if not row:
            continue
        j = min(row)
        old = basis.get(j)
        top, row = (old, row) if old else (row, {})
        while j in row:  # Euclid on column j: top keeps the gcd, row ends 0 there
            q = row[j] // top[j]
            for c, t in top.items():
                row[c] = (row.get(c, 0) - q * t) % n
            row = {c: s for c, s in row.items() if s}
            if j in row:
                top, row = row, top
        stack.append(row)
        if top is not old:
            basis[j] = top
            m = n // math.gcd(n, top[j])
            stack.append({c: s for c, t in top.items() if (s := m * t % n)})
    return math.prod(n // math.gcd(n, row[j]) for j, row in basis.items())


def _lift_rank(a: Sequence[dict[int, int]]) -> int:
    """Rank over Q of the {column: entry} rows ``a`` by fraction-free elimination.

    The last row is the pivot row and its entry p of least absolute value,
    in column j, the pivot. Each row with x = row[j] != 0 becomes (p * row -
    x * pivot_row) over the gcd of its entries, which clears column j, and
    leaves if it is zero; other rows are not touched. After k pivots a row
    spans the line of vectors in the span of itself and the pivot rows that
    vanish on the pivot columns, as Bareiss's row of (k + 1)-minors does, so
    a primitive row is that minor row over its content: with H the product
    of the norms of ``a``'s rows, no entry exceeds H, and none exceeds 2 H^2
    before the division.
    """
    rows = [row for row in a if row]
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


# most representatives the default component list may hold
MAX_COMPONENTS = 2**20
# most cells a dense matrix of a job may hold: v1 writes a report's omega as
# up to (2 g r) x (2 g r) cells, and a local system's matrices are r x r
MAX_DENSE_CELLS = 2**26


def enumerate_components(
    pres: CohomologyPresentations, free_bound: int = 1
) -> list[tuple[int, ...]]:
    """Default component list: all torsion classes, free coordinates within a bound.

    The coefficients run in ``itertools.product`` order over the free, then
    the torsion generators of H^2, the last generator fastest. Each multiple
    c g is formed once, and each pass adds one generator's multiples to every
    representative so far, so a representative costs one vector sum. A list
    longer than ``MAX_COMPONENTS`` is refused before any of it is built.
    """
    h2 = pres.h2
    count = (2 * free_bound + 1) ** len(h2.free_gens) * math.prod(h2.group.torsion)
    if count > MAX_COMPONENTS:
        message = f"more than {MAX_COMPONENTS} default components; list the components to report"
        raise ResourceLimit(message, "components")
    ranges = [range(-free_bound, free_bound + 1)] * len(h2.free_gens)
    ranges += [range(o) for o in h2.group.torsion]
    r = pres.complex.rank
    reps = [(0,) * r]
    for row, coeffs in zip(h2.all_gens(), ranges):
        g = [row.get(i, 0) for i in range(r)]
        multiples = [tuple(c * x for x in g) for c in coeffs]
        reps = [tuple(map(add, rep, m)) for rep in reps for m in multiples]
    return reps


def block_report(
    level: LevelInput,
    components: Sequence[Sequence[int]] | None = None,
    free_bound: int = 1,
) -> BlockReport:
    """Full block structure; presentations, omega and the chi check run once.

    H^1's generators and omega are sparse rows, but v1's writer lays omega
    out as up to (2 g r) x (2 g r) cells: past ``MAX_DENSE_CELLS`` the
    report is refused before anything is built.
    """
    rho = level.rho
    size = 2 * rho.genus * rho.rank
    if size * size > MAX_DENSE_CELLS:
        message = f"more than {MAX_DENSE_CELLS} cells in H^1's {size} x {size} matrices"
        raise ResourceLimit(message, "surface")
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
