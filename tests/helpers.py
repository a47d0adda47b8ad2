"""Shared generators for randomized tests. Everything is seed-driven."""

import json
import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

from qtorus import (
    BilinearData,
    BraidedData,
    FgAbGroup,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    LevelInput,
    QuadraticForm,
    SymmetricForm,
    block_report,
    evaluate,
    invariance_check,
    inverse_unimodular,
    quad_from_bilinear,
    smith_normal_form,
)
from qtorus import cochain
from qtorus.errors import ShapeMismatch, _Frozen
from qtorus.lattice import QuotientPresentation, SnfResult, _Op


class ImageNotInKernel(ValueError):
    """:func:`solve_exact` found no integer solution."""


class BadLetter(ValueError):
    """A generator index or a signed letter outside a local system's generators."""


# the fields that make two instances the same value; a refinement's
# quadratic form follows from its numerators and denominator
_VALUE_FIELDS = {
    BilinearData: ("c", "zeta"),
    QuadraticForm: ("rank", "denominator", "numerators"),
    SymmetricForm: ("rank", "denominator", "numerators"),
    BraidedData: ("denominator", "numerators"),
}

ZERO, HALF = Frac1(0), Frac1(1, 2)


def over_lcm(rows) -> tuple[IntMatrix, int]:
    """A square matrix of ``Frac1`` values as (M, N): N the lcm of their
    denominators, M their numerators over N."""
    n = math.lcm(*(x.den for row in rows for x in row))
    return IntMatrix.from_rows([[x.num * (n // x.den) for x in row] for row in rows], len(rows)), n


def quadratic_form(diag, offdiag) -> QuadraticForm:
    """The form with Q(e_i) = diag[i] and polarization b(e_i, e_j) = the
    next ``offdiag`` value for i < j, row by row."""
    r, above = len(diag), iter(offdiag)
    rows = [
        [diag[i] if i == j else next(above) if i < j else ZERO for j in range(r)]
        for i in range(r)
    ]
    return QuadraticForm(*over_lcm(rows))


def frac1_rows(form) -> tuple[tuple[Frac1, ...], ...]:
    """A form's or refinement's numerators over its denominator, as ``Frac1`` values."""
    n = form.denominator
    return tuple(tuple(Frac1(x, n) for x in row) for row in form.numerators.row_lists())


def fields(value):
    """``value`` as something that compares by value.

    Only ``IntMatrix``, ``Frac1`` and ``FgAbGroup`` define equality; the
    other value classes compare by identity. An instance of one of them
    becomes its class name and its value fields, each converted in turn;
    any other value is returned as it is.
    """
    names = _VALUE_FIELDS.get(type(value))
    if names is not None:
        return (type(value).__name__, *(fields(getattr(value, n)) for n in names))
    if isinstance(value, _Frozen) and type(value).__eq__ is object.__eq__:
        raise TypeError(f"no value fields listed for {type(value).__name__}")
    return value


def rand_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    """Product of elementary row operations applied to the identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            k = rng.randint(-2, 2)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def rand_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def fraction_rank(a: IntMatrix) -> int:
    """Rank over Q by Gaussian elimination on ``Fraction`` rows.

    The reference both integer ranks are tested against: the Smith form's
    and the Bareiss elimination of ``surface._fraction_free_rank``.
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


def smith_by_full_scan(a: IntMatrix) -> SnfResult:
    """The elimination of ``lattice.smith_normal_form`` with no shortcuts.

    Every pivot scans the whole trailing block for the least entry, every
    column operation walks all rows, and the divisibility check scans the
    trailing block at every pivot, unit or not. The reference whose ``d``,
    ``row_ops`` and ``col_ops`` the shortcut elimination must reproduce
    exactly: ``h1``'s generators and omega replay those logs.
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
        # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        col_ops.append((i, j, q))

    def row_negate(i):
        d[i] = [-s for s in d[i]]
        row_ops.append((i, i, -1))

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

    return SnfResult(IntMatrix.from_rows(d, n), tuple(row_ops), tuple(col_ops))


def solve_exact(k: IntMatrix, g: IntMatrix) -> IntMatrix:
    """Solve ``k @ x == g`` over the integers through the full Smith form of ``k``.

    The reference for the coordinates ``cohomology_presentations`` reads off
    V^-1 of snf(d1). Raises ImageNotInKernel when no rational solution
    exists or when the rational solution is not integral (columns of ``g``
    leave the span). Requires the columns of ``k`` to be linearly
    independent so that the coordinates are unique.
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
    return smith_normal_form(solve_exact(ker_basis_mat, img_gens)).cokernel()


def subquotient_with_generators(
    ker_basis_mat: IntMatrix, img_gens: IntMatrix
) -> QuotientPresentation:
    """The same quotient with generators, through :func:`solve_exact` and dense products.

    The generators are columns of ``ker_basis_mat @ U^-1`` for the Smith form
    U x V = D of the coordinates x, with U^-1 inverted on its own: the
    reference for the operation-log pushes of ``cohomology_presentations``.
    """
    x = solve_exact(ker_basis_mat, img_gens)
    snf = smith_normal_form(x)
    push = ker_basis_mat @ inverse_unimodular(snf.u)
    diag, r = snf.diagonal(), snf.rank()
    gens = supports(push.column(i) for i in range(x.rows))  # as the presentation holds them
    return QuotientPresentation(snf.cokernel(), tuple(gens[r:]), tuple(gens[i] for i in range(r) if diag[i] > 1))


def relator(genus: int) -> tuple[int, ...]:
    """The surface relator prod a_i b_i a_i^-1 b_i^-1 as signed 1-based letters; -k inverts k."""
    return tuple(x for i in range(genus) for x in (2 * i + 1, 2 * i + 2, -2 * i - 1, -2 * i - 2))


def letter_matrix(rho: LatticeLocalSystem, letter: int) -> IntMatrix:
    """``rho.mon[k - 1]`` for the letter k > 0, ``rho.mon_inv[k - 1]`` for -k."""
    if letter == 0 or abs(letter) > len(rho.mon):
        raise BadLetter(f"letter {letter} out of range for {len(rho.mon)} generators")
    return rho.mon[letter - 1] if letter > 0 else rho.mon_inv[-letter - 1]


def word_matrix(rho: LatticeLocalSystem, word) -> IntMatrix:
    """The product of a word's letter matrices, every factor multiplied out; I for ()."""
    out = IntMatrix.identity(rho.rank)
    for letter in word:
        out = out @ letter_matrix(rho, letter)
    return out


def fox_derivative(word, gen_index: int, rho: LatticeLocalSystem) -> IntMatrix:
    """Matrix of the Fox derivative of a word with respect to one generator.

    Follows the product rule d(uv) = du + rho(u) dv with d(x^-1) = -rho(x)^-1
    on the generator itself. The reference that ``build_complex``'s d1,
    written from the blocks in ``rho.handles``, is tested against. ``word``
    holds signed 1-based generator letters; -k is the inverse of k.
    """
    if not 0 <= gen_index < len(rho.mon):
        raise BadLetter(f"generator index {gen_index} out of range")
    result = IntMatrix.zeros(rho.rank, rho.rank)
    prefix = IntMatrix.identity(rho.rank)
    for letter in word:
        j, step = abs(letter) - 1, letter_matrix(rho, letter)
        if letter > 0 and j == gen_index:
            result = result + prefix
        prefix = prefix @ step
        if letter < 0 and j == gen_index:
            # d(x^-1) contributes -rho(prefix x^-1)
            result = result - prefix
    return result


def hstack(mats) -> IntMatrix:
    """The matrices side by side, one row of each per row; they share a row count."""
    if not mats or any(m.rows != mats[0].rows for m in mats):
        raise ShapeMismatch("hstack needs matrices with one row count")
    out = [x for i in range(mats[0].rows) for m in mats for x in m.row(i)]
    return IntMatrix(mats[0].rows, sum(m.cols for m in mats), out)


def smith_form_inverse(a: IntMatrix) -> IntMatrix:
    """V @ U from the full Smith form of a unimodular ``a``: D = U a V = I gives a^-1 = V U.

    The reference the fraction-free ``lattice.inverse_unimodular`` is tested against.
    """
    snf = smith_normal_form(a)
    assert all(x == 1 for x in snf.diagonal())
    return snf.v @ snf.u


def reference_walk(rho: LatticeLocalSystem) -> tuple[list, list[IntMatrix]]:
    """(letter frames, generator inverses) from the relator walked one letter at a time.

    The reference ``rho.handles`` and ``rho.mon_inv`` are tested against,
    and the letters the per-letter references here walk. Each generator is
    inverted by :func:`smith_form_inverse`, so no fraction-free elimination
    runs, and every prefix step is multiplied out, identity factors included.
    """
    inv = [smith_form_inverse(m) for m in rho.mon]
    frames = []
    prefix = IntMatrix.identity(rho.rank)
    for letter in relator(rho.genus):
        j = abs(letter) - 1
        if letter > 0:
            frames.append((j, 1, prefix))
            prefix = prefix @ rho.mon[j]
        else:
            prefix = prefix @ inv[j]
            frames.append((j, -1, prefix))
    assert prefix == IntMatrix.identity(rho.rank)
    return frames, inv


def heisenberg_by_smith(n: int, w: IntMatrix, free_count: int) -> tuple[int, int]:
    """(radical rank, block order) of omega = W / N from the integer Smith form.

    A is the f x f free block of W reduced into [0, N); the block order is
    prod N / gcd(N, d_i) over its invariant factors d_i and the radical rank
    is f minus its rank over Z. The reference ``gerbe._heisenberg_dimensions``
    is tested against: it returns the order's square root, or raises when the
    order is not a square.
    """
    f = free_count
    a = IntMatrix(f, f, [w.entry(i, j) % n for i in range(f) for j in range(f)])
    diag = smith_normal_form(a).diagonal()
    return f - sum(1 for d in diag if d), math.prod(n // math.gcd(n, d) for d in diag)


def full_block_dim(report) -> int:
    """The Heisenberg block dimension of a report's omega on all of H^1.

    The square root of the order :func:`heisenberg_by_smith` gives over
    every row and column of omega, torsion generators included, not only
    over its free block as v1's ``block_dim`` is. Raises when that order is
    not a square.
    """
    w = densify(report.omega)
    order = heisenberg_by_smith(report.denominator, w, w.rows)[1]
    root = math.isqrt(order)
    if root * root != order:
        raise ValueError(f"omega's order {order} on all of H^1 is not a square")
    return root


def random_local_system(rng: random.Random, genus: int, rank: int) -> LatticeLocalSystem:
    """A valid system drawn from a few structurally different families."""
    if genus == 0:
        return LatticeLocalSystem.trivial(rank, genus)
    family = rng.randrange(4)
    if family == 0:
        return LatticeLocalSystem.trivial(rank, genus)
    if family == 1:
        # diagonal signs commute, so every pair satisfies the relation
        mats = [
            IntMatrix(rank, rank, [
                (rng.choice((1, -1)) if i == j else 0)
                for i in range(rank)
                for j in range(rank)
            ])
            for _ in range(2 * genus)
        ]
        return LatticeLocalSystem(rank, genus, mats)
    if family == 2:
        # commuting family conjugated by a random unimodular change of basis
        t = rand_unimodular(rng, rank)
        t_inv = _inverse(t)
        base = [
            _int_power(_shear(rank), rng.randint(-2, 2)) for _ in range(2 * genus)
        ]
        return LatticeLocalSystem(rank, genus, [t @ m @ t_inv for m in base])
    s = _shear(rank)
    if genus == 1:
        # a commuting pair of shear powers
        pair = [_int_power(s, rng.randint(-2, 2)), _int_power(s, rng.randint(-2, 2))]
        return LatticeLocalSystem(rank, genus, pair)
    # [P,Q][Q,P] = 1 for any P, Q: a genuinely noncommuting family on the
    # first two handles; shear powers commute, so they fill any later handle
    p = rand_unimodular(rng, rank)
    q = rand_unimodular(rng, rank)
    rest = [_int_power(s, rng.randint(-2, 2)) for _ in range(2 * genus - 4)]
    return LatticeLocalSystem(rank, genus, [p, q, q, p] + rest)


def family_system(rng, family, genus, rank):
    """Seeded local systems: trivial, diagonal signs, shears, handle pairs (T, T^k)."""
    if family == "trivial":
        return LatticeLocalSystem.trivial(rank, genus)
    if family == "sign":
        mats = [
            IntMatrix(rank, rank, [rng.choice((1, -1)) if i == j else 0
                                   for i in range(rank) for j in range(rank)])
            for _ in range(2 * genus)
        ]
        return LatticeLocalSystem(rank, genus, mats)
    mats = []
    for _ in range(genus):
        if family == "shear":
            e = IntMatrix.identity(rank).row_lists()
            if rank > 1:
                i = rng.randrange(rank - 1)
                e[i][rng.randrange(i + 1, rank)] = rng.choice((-2, -1, 1, 2))
            t = IntMatrix.from_rows(e)
        else:  # "pair": noncommuting across handles
            t = rand_unimodular(rng, rank)
        # T commutes with its own powers, so each handle's commutator is 1
        mats += [t, _int_power(t, rng.choice((-2, -1, 0, 2)))]
    return LatticeLocalSystem(rank, genus, mats)


def _shear(rank: int) -> IntMatrix:
    if rank == 1:
        return IntMatrix(1, 1, [-1])
    e = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    e[0][1] = 1
    return IntMatrix.from_rows(e)


def _int_power(m: IntMatrix, k: int) -> IntMatrix:
    from qtorus import inverse_unimodular

    out = IntMatrix.identity(m.rows)
    base = m if k >= 0 else inverse_unimodular(m)
    for _ in range(abs(k)):
        out = out @ base
    return out


def _inverse(m: IntMatrix) -> IntMatrix:
    from qtorus import inverse_unimodular

    return inverse_unimodular(m)


def random_invariant_level(
    rng: random.Random, rho: LatticeLocalSystem, max_den: int = 6
) -> BilinearData:
    """Random level preserved by the monodromy, its phase's numerator nonzero where one exists.

    Random tries come first. Where none is invariant, as is usual at rank 3
    and up with moving monodromy, the level is a random nonzero invariant
    form mod p from :func:`invariant_form_mod`, for p in 2, 3, 5 in random
    order; only a system with none of them gets the zero phase. Each level
    returned is checked by :func:`fixed_on_probes`.
    """
    r = rho.rank
    for _ in range(60):
        den = rng.randint(2, max_den)
        level = BilinearData(rand_matrix(rng, r, r, -3, 3), Frac1(rng.randrange(1, den), den))
        if invariance_check(quad_from_bilinear(level), rho):
            break
    else:
        for p in rng.sample((2, 3, 5), 3):
            if u := invariant_form_mod(rng, rho, p):
                level = BilinearData(u, Frac1(rng.randrange(1, p), p))
                break
        else:
            level = BilinearData(rand_matrix(rng, r, r, -3, 3), Frac1(0, 1))
    assert fixed_on_probes(quad_from_bilinear(level), rho)
    return level


def invariant_form_mod(rng: random.Random, rho: LatticeLocalSystem, p: int) -> IntMatrix | None:
    """A random upper-triangular U, nonzero mod the prime p, with x^T U x / p kept by every generator.

    The unknowns are U's entries u_kl, k <= l. For a generator A, D = A^T U A
    - U gives Q(A x) - Q(x) = x^T D x / p, which vanishes for every x exactly
    when p divides each D_ii and each D_ij + D_ji, i < j: their coefficients
    in u_kl are A_ki A_li - [kl = ii] and A_ki A_lj + A_kj A_li - [kl = ij].
    U is a random nonzero vector of that map's kernel mod p, found by
    Gauss-Jordan elimination here, with nothing from ``forms``; None when
    the kernel is 0.
    """
    r = rho.rank
    pairs = [(k, l) for k in range(r) for l in range(k, r)]
    rows = [
        [(a[k * r + i] * a[l * r + j] + (i != j) * a[k * r + j] * a[l * r + i] - ((k, l) == (i, j))) % p
         for k, l in pairs]
        for a in (m.entries for m in rho.mon)
        for i, j in pairs
    ]
    pivots: list[int] = []  # pivot column of each reduced row, rows[:len(pivots)]
    for c in range(len(pairs)):
        t = next((t for t in range(len(pivots), len(rows)) if rows[t][c]), None)
        if t is None:
            continue
        top = len(pivots)
        rows[top], rows[t] = rows[t], rows[top]
        inv = pow(rows[top][c], -1, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for t in range(len(rows)):
            if t != top and rows[t][c]:
                f = rows[t][c]
                rows[t] = [(x - f * y) % p for x, y in zip(rows[t], rows[top])]
        pivots.append(c)
    free = [c for c in range(len(pairs)) if c not in pivots]
    if not free:
        return None
    coeffs = [0] * len(free)
    while not any(coeffs):
        coeffs = [rng.randrange(p) for _ in free]
    u = [0] * len(pairs)
    for c, x in zip(free, coeffs):
        u[c] = x
        for row, pc in zip(rows, pivots):  # a pivot unknown is minus its row's free part
            u[pc] = (u[pc] - row[c] * x) % p
    entries = [0] * (r * r)
    for (k, l), x in zip(pairs, u):
        entries[k * r + l] = x
    return IntMatrix(r, r, entries)


def probe_vectors(r: int) -> list[tuple[int, ...]]:
    """The basis vectors of Z^r and their pairwise sums, whose values determine a form."""
    unit = [tuple(int(t == i) for t in range(r)) for i in range(r)]
    return unit + [tuple(map(sum, zip(unit[i], unit[j]))) for i in range(r) for j in range(i + 1, r)]


def fixed_on_probes(q: QuadraticForm, rho: LatticeLocalSystem) -> bool:
    """Whether Q(a v) == Q(v) as ``Frac1`` values for every generator a and probe v.

    The Q/Z reference for ``forms.invariance_check``: it moves vectors, not
    matrices, and compares values that ``evaluate`` reduced mod 1, so it
    shares no code with the integer test.
    """
    probes = probe_vectors(q.rank)
    return all(evaluate(q, a.mul_vec(v)) == evaluate(q, v) for a in rho.mon for v in probes)


def invariant_level_by_forms(
    rng: random.Random, rho: LatticeLocalSystem, den: int
) -> BilinearData | None:
    """Selfcheck's level sampler with a full form, decided on Q/Z values per draw.

    The reference for ``selfcheck._invariant_level``, which tests each draw's
    integers with ``forms.preserves`` and builds no form: both must accept
    the same levels from the same random numbers. Each draw here is decided
    by :func:`fixed_on_probes`.
    """
    zeta = Frac1(1, den)
    r = rho.rank
    for attempt in range(40):
        if attempt < 30:
            c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
        elif r == 1:
            c = IntMatrix(1, 1, [rng.randint(-3, 3)])
        else:
            a = den * rng.randint(-1, 1)
            b = rng.randint(-3, 3)
            c = IntMatrix(2, 2, [a, b, -b - a + den * rng.randint(-1, 1), rng.randint(-3, 3)])
        level = BilinearData(c, zeta)
        if fixed_on_probes(quad_from_bilinear(level), rho):
            return level
    return None


def densify(rows) -> IntMatrix:
    """The square matrix held as {column: entry} rows, as ``gerbe`` holds P and W.

    A missing column reads as 0; a column outside the square raises, so no
    stored entry is dropped from a comparison.
    """
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ShapeMismatch(f"a stored column lies outside {n} columns")
    return IntMatrix(n, n, [row.get(j, 0) for row in rows for j in range(n)])


def sparse_rows(w: IntMatrix) -> list[dict[int, int]]:
    """The {column: entry} rows of ``w`` that store no zero: the inverse of :func:`densify`."""
    return [{j: x for j, x in enumerate(row) if x} for row in w.row_lists()]


def supports(vectors) -> list[dict[int, int]]:
    """Dense vectors as the {coordinate: entry} rows that store no zero, as H^1 holds its generators."""
    return [{i: x for i, x in enumerate(vec) if x} for vec in vectors]


def h1_vectors(pres) -> list[tuple[int, ...]]:
    """H^1's generator rows laid out as dense 2g r-long vectors, as the cochain oracle takes them."""
    return [tuple(vec) for vec in IntMatrix.from_sparse(pres.h1.all_gens(), pres.complex.d0.rows).row_lists()]


def dense_omega_numerators(rho: LatticeLocalSystem, numerators: IntMatrix, gens) -> IntMatrix:
    """W = G^T P G through two dense ``IntMatrix`` products on the same P.

    The reference for ``gerbe.omega_numerators``, which scatters P's stored
    entries over the generators' supports; both take a pairing's integer B,
    and this one the generators as dense vectors.
    """
    from qtorus.gerbe import _pairing_gram

    g = IntMatrix.from_columns(gens, 2 * rho.genus * rho.rank)
    return g.transpose() @ densify(_pairing_gram(rho, numerators)) @ g


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix held as {column: entry} rows, over Q.

    Gaussian elimination on sparse ``Fraction`` rows, sharing nothing with
    the eliminations of ``lattice`` or ``gerbe``: each step takes the last
    remaining row as the pivot row and its least column as the pivot column,
    and clears that column from every other remaining row. The determinant
    is the product of the pivots times the sign of the permutation that
    sends each row to its pivot column; a row that runs out of entries makes
    it 0.
    """
    n = len(rows)
    rest = {i: {j: Fraction(x) for j, x in row.items() if x} for i, row in enumerate(rows)}
    column_of = [0] * n
    det = Fraction(1)
    while rest:
        i, top = rest.popitem()
        if not top:
            return Fraction(0)
        j = min(top)
        p = top[j]
        det *= p
        column_of[i] = j
        for row in rest.values():
            if j in row:
                q = row[j] / p
                for c, t in top.items():
                    x = row.get(c, 0) - q * t
                    if x:
                        row[c] = x
                    else:
                        del row[c]
    seen = [False] * n
    for start in range(n):  # a cycle of even length is an odd permutation
        k, length = start, 0
        while not seen[k]:
            seen[k] = True
            k = column_of[k]
            length += 1
        if length and length % 2 == 0:
            det = -det
    return det


def components_by_product(pres, free_bound: int = 1) -> list[tuple[int, ...]]:
    """Each component as one full sum over H^2's generators, in ``product`` order.

    The reference for ``gerbe.enumerate_components``, which forms each
    multiple of a generator once and adds one generator per pass.
    """
    h2 = pres.h2
    gens = h2.all_gens()
    ranges = [range(-free_bound, free_bound + 1)] * len(h2.free_gens)
    ranges += [range(o) for o in h2.group.torsion]
    r = pres.complex.rank
    return [
        tuple(sum(c * g.get(i, 0) for c, g in zip(coeffs, gens)) for i in range(r))
        for coeffs in product(*ranges)
    ]


def pairing_gram_by_letters(rho: LatticeLocalSystem, b: IntMatrix) -> IntMatrix:
    """P of the closed form, one relator letter at a time over every row of A^T.

    The reference for ``gerbe._pairing_gram``, which closes each handle's
    four letters into one formula in their transports, block by block. Here
    each letter of generator j with transport F and exponent eps adds
    A^T B (eps F) to block column j, over every nonzero row of the running
    sums A^T, and (eps F)^T to the rows of block j of A^T; an inverted letter
    adds its value before it pairs, a positive one after. The letters come
    from :func:`reference_walk`, not from the walk under test.
    """
    r = rho.rank
    size = 2 * rho.genus * r
    p = [[0] * size for _ in range(size)]
    acc_t = [[0] * r for _ in range(size)]
    for j, eps, frame in reference_walk(rho)[0]:
        f = frame if eps == 1 else -frame
        block = range(j * r, (j + 1) * r)
        if eps == -1:
            _accumulate_by_letter(acc_t, block, f)
        bf_rows = (b @ f).row_lists()
        for row, acc in zip(p, acc_t):
            if any(acc):
                for c, k in enumerate(block):
                    row[k] += sum(a * bf_rows[t][c] for t, a in enumerate(acc))
        if eps == 1:
            _accumulate_by_letter(acc_t, block, f)
    return IntMatrix.from_rows(p, size)


def _accumulate_by_letter(acc_t: list[list[int]], block: range, f: IntMatrix) -> None:
    """Add the letter's value map (eps F)^T to the rows of its block."""
    for a, x in enumerate(block):
        acc_t[x] = [s + y for s, y in zip(acc_t[x], f.column(a))]


def closed(rep, residues) -> tuple[Frac1, ...]:
    """A report's residues x in [0, N) as the Q/Z values x / N, N its denominator."""
    return tuple(Frac1(x, rep.denominator) for x in residues)


def omega_closed(rep) -> tuple[tuple[Frac1, ...], ...]:
    """A report's omega, held as {column: residue} rows, as a dense matrix of Q/Z values."""
    return tuple(closed(rep, row) for row in densify(rep.omega).row_lists())


def image_order(b: IntMatrix, n: int) -> int:
    """|B (Z/N)^r|: the distinct residues of B x mod N over every x in (Z/N)^r.

    On a trivial local system omega is the intersection form tensored with
    B / N, so its Heisenberg group is that of A^(2g) with A = B (Z/N)^r, and
    the block dimension is |A|^g, the abelian Chern-Simons count. It
    enumerates all N^r vectors and runs no elimination.
    """
    rows = b.row_lists()
    return len({
        tuple(sum(map(mul, row, x)) % n for row in rows) for x in product(range(n), repeat=b.cols)
    })


def omega_of(level: LevelInput):
    """omega of a level as Q/Z values, from a report with no components."""
    return omega_closed(block_report(level, components=[]))


def pi2_character_check_reference(rho, pres, pairing) -> bool:
    """Whether lambda^T B (rho(x_j) - 1) vanishes mod N for every lambda of H^0 and every x_j.

    One generator and one invariant vector at a time, by plain sums over the
    entries of ``rho.mon``, not d0: the reference for the well-definedness
    check of ``gerbe._pi2_characters``, which sums lines of d0's entries.
    """
    n, b, r = pairing.denominator, pairing.numerators, rho.rank
    return not any(
        sum(lam[i] * b.entry(i, k) * (m.entry(k, l) - (k == l)) for i in range(r) for k in range(r)) % n
        for m in rho.mon
        for lam in pres.h0_basis
        for l in range(r)
    )


def pi2_characters_reference(pres, pairing, reps) -> list[tuple[int, ...]]:
    """chi_d = lambda^T B d mod N, one rep d and one invariant vector lambda at a time.

    Plain sums over the entries of ``pres.h0_basis`` and the pairing's B,
    with no matrix product: the reference for ``gerbe._pi2_characters``.
    """
    n, b = pairing.denominator, pairing.numerators
    r = b.rows
    return [
        tuple(
            sum(lam[i] * b.entries[i * r + j] * d[j] for i in range(r) for j in range(r)) % n
            for lam in pres.h0_basis
        )
        for d in reps
    ]


def blocks_v1(report) -> list[dict]:
    """A ``BlockReport``'s blocks as the v1 JSON objects, built one dict per block.

    Each block repeats the level's omega, radical rank and block dimension;
    omega's sparse rows are laid out densely and every residue x written as
    the fraction x / N. The reference for the CLI's block writer.
    """
    used = {0, *(x for row in report.omega for x in row.values())}
    used.update(x for b in report.blocks for x in b.pi2_character)
    text = {x: str(Frac1(x, report.denominator)) for x in used}
    omega = [[text[0]] * len(report.omega) for _ in report.omega]
    for cells, row in zip(omega, report.omega):
        for j, x in row.items():
            cells[j] = text[x]
    return [
        {
            "component": list(b.component),
            "omega": omega,
            "pi2_character": [text[x] for x in b.pi2_character],
            "radical_rank": report.radical_rank,
            "block_dim": report.block_dim,
        }
        for b in report.blocks
    ]


def plain_report(value):
    """``value`` with each ``IntMatrix`` in its dicts and lists laid out as a list of row lists.

    ``json.dumps`` of the result is the reference for the CLI's writer, which
    writes a report's matrices as they are.
    """
    if type(value) is IntMatrix:
        return value.row_lists()
    if isinstance(value, dict):
        return {key: plain_report(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_report(item) for item in value]
    return value


def global_json(task: str, level: LevelInput, components=None) -> dict:
    """The CLI's ``global`` or ``bunt`` report for a level, as its JSON output reads back."""
    from qtorus import cli

    raw = {
        "task": task,
        "surface": {
            "genus": level.rho.genus,
            "rank": level.rho.rank,
            "monodromy": [m.row_lists() for m in level.rho.mon],
        },
        "level": {"c_matrix": level.bilinear.c.row_lists(), "zeta": str(level.bilinear.zeta)},
    }
    if components is not None:
        raw["components"] = [list(c) for c in components]
    return json.loads(cli._dumps(cli._run_global(cli.JobSpec(raw, task))))


def groups_json(triple) -> dict:
    """A :class:`CohomologyTriple` as the reports write it: pi_n is H^(2-n)."""
    return {"pi0": triple.h2.to_json(), "pi1": triple.h1.to_json(), "pi2": triple.h0.to_json()}


def frac1_bilinear(entries, x, y) -> Frac1:
    """x^T E y for a matrix E of Frac1 values, one Frac1 per nonzero term."""
    total = Frac1(0)
    for xi, row in zip(x, entries):
        if xi:
            for yj, value in zip(y, row):
                if yj:
                    total = total + value.scale(xi * yj)
    return total


def frac1_quadratic(diag, offdiag, gamma) -> Frac1:
    """Q(gamma) from the basis values: squares on the diagonal, the
    polarization values ``offdiag`` (row by row, i < j) on the cross terms."""
    total = Frac1(0)
    above = iter(offdiag)
    for i, xi in enumerate(gamma):
        total = total + diag[i].scale(xi * xi)
        for j in range(i + 1, len(gamma)):
            total = total + next(above).scale(xi * gamma[j])
    return total


def pairing_values(level: BilinearData) -> tuple[tuple[Frac1, ...], ...]:
    """A level's polarization zeta (c + c^T) as ``Frac1`` values, read off the level alone."""
    c, zeta = level.c, level.zeta
    return tuple(
        tuple(zeta.scale(c.entry(i, j) + c.entry(j, i)) for j in range(c.cols))
        for i in range(c.rows)
    )


def pairing_on_cocycles_per_term(entries, rho, u, v) -> Frac1:
    """The closed form as a sum of per-letter Frac1 terms, walking both vectors per pair.

    ``entries`` is the pairing's matrix of ``Frac1`` values. The letters come
    from :func:`reference_walk`, not from the walk under test.
    """
    r = rho.rank
    u_blocks = [tuple(u[j * r : (j + 1) * r]) for j in range(2 * rho.genus)]
    v_blocks = [tuple(v[j * r : (j + 1) * r]) for j in range(2 * rho.genus)]
    total = Frac1(0)
    acc = (0,) * r
    for j, eps, frame in reference_walk(rho)[0]:
        u_k = tuple(eps * x for x in frame.mul_vec(u_blocks[j]))
        v_k = tuple(eps * x for x in frame.mul_vec(v_blocks[j]))
        total = total + frac1_bilinear(entries, acc, v_k)
        if eps == -1:
            total = total + frac1_bilinear(entries, u_k, v_k)
        acc = tuple(a + x for a, x in zip(acc, u_k))
    return total


def letter_walk(rho, u) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """One vector's integer letter values along the relator, as (left, right).

    ``right[k]`` is letter k's value, eps times its transport applied to the
    vector's block; ``left[k]`` is the sum of the earlier letters' values,
    plus letter k's own value when the letter is inverted. The closed form of
    two vectors is the sum over k of b(left_u[k], right_v[k]). The letters
    come from :func:`reference_walk`, not from the walk under test.
    """
    r = rho.rank
    left = []
    right = []
    acc = (0,) * r
    for j, eps, frame in reference_walk(rho)[0]:
        u_k = tuple(eps * x for x in frame.mul_vec(u[j * r : (j + 1) * r]))
        after = tuple(a + x for a, x in zip(acc, u_k))
        left.append(after if eps == -1 else acc)
        right.append(u_k)
        acc = after
    return tuple(left), tuple(right)


def pairing_on_walks(pairing, u_walk, v_walk) -> Frac1:
    """The closed form from two :func:`letter_walk` results, one integer sum over N."""
    b = pairing.numerators
    total = sum(sum(map(mul, x, b.mul_vec(y))) for x, y in zip(u_walk[0], v_walk[1]))
    return Frac1(total, pairing.denominator)


def cup_matrix(cocycles, b: IntMatrix) -> IntMatrix:
    """The integer W of the simplicial route on every pair: F diag(sign B) K^T.

    Row i of F stacks cocycle i's ``front`` faces over the triangles, row j
    of K cocycle j's ``back`` faces, and diag(sign B) puts sign(t) B on
    triangle t's block, so W[i][j] = sum over t of sign(t) front_i^T B back_j,
    the numerators over N of every cup pair at once. It reads only the
    checked cocycles' faces and B: no closed form, no elimination.
    """
    signs = [tri.sign for tri in cocycles[0].table.t.triangles]
    rows = b.row_lists()
    bk = [  # diag(sign B) K^T, one column per cocycle
        [s * sum(map(mul, row, y)) for s, y in zip(signs, c.back) for row in rows]
        for c in cocycles
    ]
    fronts = [[x for face in c.front for x in face] for c in cocycles]
    return IntMatrix.from_rows([[sum(map(mul, f, col)) for col in bk] for f in fronts])


def check_values(values, table):
    """One 1-cochain's edge values through the oracle's batch check, as a batch of one.

    Each value becomes a one-column block; returns the checked cocycle's
    per-vector view, or None when the check refuses the cochain.
    """
    checked = cochain._check({cell: tuple((x,) for x in v) for cell, v in values.items()}, table, 1)
    return None if checked is None else checked[0]


def transport_word(t, at: int) -> tuple[int, ...]:
    """The word a transport index names: the first ``at`` polygon sides for
    ``at`` <= 4g, or generator ``at`` - 4g - 1 alone."""
    n = t.num_sides
    return tuple(eps * (j + 1) for j, eps in t.side_letter[:at]) if at <= n else (at - n,)


def moves(t, rho, at: int) -> bool:
    """Whether the transport at index ``at`` differs from the identity, from its word."""
    return word_matrix(rho, transport_word(t, at)) != IntMatrix.identity(rho.rank)


def table_products(t, rho) -> int:
    """Products a transport table needs: one per polygon side whose prefix
    before it and whose letter both differ from the identity."""
    eye = IntMatrix.identity(rho.rank)
    return sum(
        moves(t, rho, k) and word_matrix(rho, (eps * (j + 1),)) != eye
        for k, (j, eps) in enumerate(t.side_letter)
    )


def coboundary_per_face(values, t, rho) -> list[tuple[int, ...]]:
    """The twisted coboundary of a 1-cochain's edge values, one face at a time, from words.

    The reference for the cocycle check's one pass, ``cochain._chart_faces``
    and ``_alternating_sums``. Each face's value is carried to the chart by
    :func:`word_matrix` of the word its transport index names, built afresh
    for that face: the first k polygon sides for index k <= 4g, or
    generator j alone for index 4g + 1 + j. No transport table, no shortcut
    at the empty prefix and no pass shared with the cup. Returns one value
    per triangle.
    """
    out = []
    for tri in t.triangles:
        total = [0] * rho.rank
        for slot, face in enumerate(tri.faces):
            moved = word_matrix(rho, transport_word(t, face.at)).mul_vec(values[face.cell])
            sign = -1 if slot == 1 else 1
            total = [x + sign * y for x, y in zip(total, moved)]
        out.append(tuple(total))
    return out


def vertex_coboundary(cone, base, t, rho) -> dict:
    """The twisted coboundary of the 0-cochain with values ``cone`` and ``base``, from words.

    Radial edge k runs from the cone point, in the chart, to the boundary
    vertex at polygon corner k, reached through the first k sides; loop j
    runs from the boundary vertex at corner 0 to its copy across generator
    j. Each edge's value is its head's value carried to the chart by
    :func:`word_matrix` of that word, minus its tail's. Returns one value
    per edge, so a cocycle plus it is a cohomologous cocycle.
    """
    n = t.num_sides
    ends = {("rad", k): (cone, k) for k in range(n)}
    ends.update({("gen", j): (base, n + 1 + j) for j in range(2 * t.genus)})
    return {
        cell: tuple(
            h - x for h, x in zip(word_matrix(rho, transport_word(t, at)).mul_vec(base), tail)
        )
        for cell, (tail, at) in ends.items()
    }
