import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    FgAbGroup,
    IntMatrix,
    LatticeLocalSystem,
    SnfResult,
    cohomology_presentations,
    det,
    inverse_unimodular,
    smith_normal_form,
)
from qtorus import lattice, surface
from qtorus.errors import NonSquareMatrix, NonUnimodular, ShapeMismatch
from qtorus.lattice import _replay
from qtorus.surface import build_complex

from helpers import (
    ImageNotInKernel,
    _int_power,
    cofactor_det,
    fraction_det,
    fraction_rank,
    hstack,
    rand_matrix,
    rand_unimodular,
    random_local_system,
    smith_by_full_scan,
    smith_form_inverse,
    solve_exact,
    subquotient,
    subquotient_with_generators,
    supports,
)


def assert_snf_contract(a: IntMatrix):
    res = smith_normal_form(a)
    assert res.u @ a @ res.v == res.d
    assert abs(det(res.u)) == 1 and abs(det(res.v)) == 1
    diag = list(res.diagonal())
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    # off-diagonal of D is zero
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d.entry(i, j) == 0
    return res


def test_snf_identity():
    res = smith_normal_form(IntMatrix.identity(2))
    eye = IntMatrix.identity(2)
    assert res.d == eye and res.u == eye and res.v == eye


def test_snf_zero_rectangular():
    res = smith_normal_form(IntMatrix.zeros(2, 3))
    assert res.d == IntMatrix.zeros(2, 3)
    assert res.u == IntMatrix.identity(2)
    assert res.v == IntMatrix.identity(3)


def test_snf_worked_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = assert_snf_contract(a)
    assert list(res.diagonal()) == [2, 4]


def test_snf_diag_invariant_under_permutation():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
        rows = a.row_lists()
        rng.shuffle(rows)
        cols = list(zip(*rows))
        rng.shuffle(cols)
        b = IntMatrix.from_rows([list(r) for r in zip(*cols)])
        assert smith_normal_form(a).diagonal() == smith_normal_form(b).diagonal()


def test_snf_random_contract_and_rank_oracle():
    rng = random.Random(11)
    for _ in range(120):
        a = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), -9, 9)
        res = assert_snf_contract(a)
        assert res.rank() == fraction_rank(a) == smith_normal_form(a).rank()


def test_snf_diagonal_and_rank_are_read_once(monkeypatch):
    # the methods that read the diagonal and the rank, each several times,
    # leave d's entries alone once the form is built
    a = IntMatrix.from_rows([[2, 4, 0], [6, 8, 0], [0, 0, 0], [1, 1, 0]])
    res = smith_normal_form(a)
    reads = []
    entry = IntMatrix.entry
    monkeypatch.setattr(IntMatrix, "entry", lambda m, i, j: reads.append(m) or entry(m, i, j))
    assert res.diagonal() == (1, 2, 0) and res.rank() == 2
    assert res.cokernel() == FgAbGroup(2, (2,))
    res.quotient(), res.kernel_basis(), res.subquotient(IntMatrix.zeros(3, 1))
    assert res.diagonal() is res.diagonal() and all(m is not res.d for m in reads)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_recompose_hypothesis(nrows, ncols, data):
    entries = data.draw(
        st.lists(st.integers(-50, 50), min_size=nrows * ncols, max_size=nrows * ncols)
    )
    assert_snf_contract(IntMatrix(nrows, ncols, entries))


@st.composite
def snf_inputs(draw):
    """0 x n, n x 0, the tall 2gr x r shape of d0, the wide r x 2gr of d1, or any small shape."""
    g, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k, l = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    m, n = draw(st.sampled_from([(0, k), (k, 0), (2 * g * r, r), (r, 2 * g * r), (l, k)]))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    return IntMatrix(m, n, draw(st.lists(entries, min_size=m * n, max_size=m * n)))


@pytest.mark.parametrize("rank", range(6, 17))
def test_snf_transforms_on_commuting_pairs(monkeypatch, rank):
    # genus 3, three handle pairs (T, T^k) with T a product of 40 elementary
    # operations; every Smith form the cohomology presentations run (d0, d1
    # and H^1's subquotient) is checked
    seen = []

    def recording(a):
        res = smith_normal_form(a)
        seen.append((a, res))
        return res

    monkeypatch.setattr(lattice, "smith_normal_form", recording)
    monkeypatch.setattr(surface, "smith_normal_form", recording)
    rng = random.Random(f"pairs-{rank}")
    mats = []
    for _ in range(3):
        t = rand_unimodular(rng, rank, 40)
        mats += [t, _int_power(t, rng.choice((-2, -1, 2)))]
    cohomology_presentations(LatticeLocalSystem(rank, 3, mats)).h1
    assert [a.rows for a, _ in seen] == [6 * rank, rank, 5 * rank]
    for a, res in seen:
        assert res.u @ a @ res.v == res.d
        assert abs(det(res.u)) == 1 and abs(det(res.v)) == 1


@settings(max_examples=80, deadline=None)
@given(snf_inputs(), st.data())
def test_snf_transforms_replay_the_elimination(a, data):
    def target(m, n):
        return IntMatrix(m, n, data.draw(st.lists(st.integers(-9, 9), min_size=m * n, max_size=m * n)))

    res = smith_normal_form(a)
    d = res.d
    assert res.u @ a @ res.v == d
    assert abs(det(res.u)) == 1 and abs(det(res.v)) == 1
    # the logs replayed inverted onto a target's {coordinate: entry} rows give
    # V^-1 X, and B U^-1 by columns, as rows that store no zero
    c = data.draw(st.integers(0, 3))
    x, b = target(a.cols, c), target(c, a.rows)
    assert _replay(res.col_ops, supports(x.row_lists()), True) == supports((inverse_unimodular(res.v) @ x).row_lists())
    pushed = _replay(res.row_ops, supports(b.column(j) for j in range(b.cols)), True)
    bu = b @ inverse_unimodular(res.u)
    assert pushed == supports(bu.column(j) for j in range(bu.cols))
    # the quotient pushes the same replay onto a copy of the rows it is given
    basis = supports(b.column(j) for j in range(b.cols))
    assert res.quotient(basis).free_gens == tuple(pushed[res.rank() :])
    assert basis == supports(b.column(j) for j in range(b.cols))
    names = ("u", "v")
    want = {name: getattr(res, name) for name in names}
    for order in permutations(names):
        fresh = SnfResult(res.d, res.row_ops, res.col_ops)  # the same elimination, none read yet
        assert vars(fresh).keys().isdisjoint(names)
        for name in order:
            assert getattr(fresh, name) == want[name]
        assert fresh.d == res.d == d


@st.composite
def unit_inputs(draw):
    """Entries in {-1, 0, 1}: a unit pivot turns up early and ends the search."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return IntMatrix(m, n, draw(st.lists(st.integers(-1, 1), min_size=m * n, max_size=m * n)))


@st.composite
def scaled_inputs(draw):
    """A matrix times 2, 3 or 6: no pivot is a unit, so the divisibility scan runs."""
    a, k = draw(snf_inputs()), draw(st.sampled_from([2, 3, 6]))
    return IntMatrix(a.rows, a.cols, [k * x for x in a.entries])


@st.composite
def coprime_diagonals(draw):
    """diag(2, 3)-type blocks, maybe mixed by unimodular transforms: row_add(t, offender, 1) fires."""
    diag = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 9, 10]), min_size=2, max_size=4))
    m, n = len(diag) + draw(st.integers(0, 2)), len(diag) + draw(st.integers(0, 2))
    a = IntMatrix(m, n, [diag[i] if i == j and i < len(diag) else 0 for i in range(m) for j in range(n)])
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        a = rand_unimodular(rng, m) @ a @ rand_unimodular(rng, n)
    return a


@st.composite
def zero_inputs(draw):
    """The zero matrix of any small shape, 0 x n and n x 0 among them."""
    return IntMatrix.zeros(draw(st.integers(0, 6)), draw(st.integers(0, 6)))


@st.composite
def differentials(draw):
    """d0 or d1 of a random local system up to genus 13 and rank 4."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    rho = random_local_system(rng, draw(st.integers(0, 13)), draw(st.integers(1, 4)))
    cx = build_complex(rho)
    return cx.d0 if draw(st.booleans()) else cx.d1


@st.composite
def oracle_sides(draw):
    """The invariants/coinvariants check's r x 2gr input: the blocks rho(x_j) - I side by side."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    rho = random_local_system(rng, draw(st.integers(0, 13)), draw(st.integers(1, 4)))
    eye = IntMatrix.identity(rho.rank)
    return hstack([m - eye for m in rho.mon]) if rho.mon else IntMatrix.zeros(rho.rank, 0)


@st.composite
def subquotient_inputs(draw):
    """H^1's second Smith form: rows rank: of d0 replayed inverted through snf(d1)'s column log."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    cx = build_complex(random_local_system(rng, draw(st.integers(0, 13)), draw(st.integers(1, 4))))
    snf1 = smith_normal_form(cx.d1)
    x = _replay(snf1.col_ops, supports(cx.d0.row_lists()), True)[snf1.rank() :]
    return IntMatrix.from_sparse(x, cx.d0.cols)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        snf_inputs(), unit_inputs(), scaled_inputs(), coprime_diagonals(), zero_inputs(),
        differentials(), oracle_sides(), subquotient_inputs(),
    )
)
def test_snf_logs_match_the_full_scan(a):
    """The inlined steps change no logged operation: h1's generators and omega replay the logs.

    The draws cover every Smith form a report runs: d0, d1, H^1's subquotient
    input and the coinvariants check's blocks side by side.
    """
    res, ref = smith_normal_form(a), smith_by_full_scan(a)
    assert res.d == ref.d
    assert res.row_ops == ref.row_ops
    assert res.col_ops == ref.col_ops


@pytest.mark.parametrize(
    "mat,expected",
    [
        ([[2, 0], [0, 4]], FgAbGroup(0, (2, 4))),
        ([[0, 0], [0, 0]], FgAbGroup(2, ())),
        ([[2, 0]], FgAbGroup(0, (2,))),
    ],
)
def test_cokernel_examples(mat, expected):
    assert smith_normal_form(IntMatrix.from_rows(mat)).cokernel() == expected


def test_kernel_examples():
    assert smith_normal_form(IntMatrix.identity(2)).kernel_basis() == []
    assert smith_normal_form(IntMatrix.zeros(2, 2)).kernel_basis() == [{0: 1}, {1: 1}]
    k = smith_normal_form(IntMatrix.from_rows([[1, 1]])).kernel_basis()
    assert len(k) == 1
    assert k[0] in ({0: 1, 1: -1}, {0: -1, 1: 1})


def test_kernel_contract_random():
    rng = random.Random(23)
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -9, 9)
        snf = smith_normal_form(a)
        vectors = snf.kernel_basis()
        assert vectors == supports(snf.v.column(j) for j in range(snf.rank(), a.cols))
        k = IntMatrix.from_sparse(vectors, a.cols).transpose()
        assert (a @ k).is_zero()
        snf_k = smith_normal_form(k)
        assert snf_k.rank() == k.cols  # independent columns
        # saturation: the basis extends to a basis of Z^cols
        assert all(d == 1 for d in snf_k.diagonal())
        assert len(vectors) == a.cols - snf.rank()


def test_subquotient_examples():
    assert subquotient(IntMatrix.identity(2), IntMatrix.from_rows([[2, 0], [0, 2]])) == \
        FgAbGroup(0, (2, 2))
    assert subquotient(IntMatrix.identity(2), IntMatrix.zeros(2, 2)) == FgAbGroup(2, ())
    ker = IntMatrix.from_columns([[0, 1]], 2)
    img = IntMatrix.from_columns([[0, -2]], 2)
    assert subquotient(ker, img) == FgAbGroup(0, (2,))


def test_subquotient_rejects_image_outside_kernel():
    ker = IntMatrix.from_columns([[1, 0]], 2)
    img = IntMatrix.from_columns([[0, 1]], 2)
    with pytest.raises(ImageNotInKernel):
        subquotient(ker, img)


@st.composite
def kernel_images(draw):
    """(a, K, b) with K the kernel vectors of snf(a) as columns and b = K Y.

    Y is small and random, zero, or a diagonal of 2, 3 and 6, which scales
    the kernel columns so that ker a / im b has torsion.
    """
    a = draw(snf_inputs())
    k = IntMatrix.from_sparse(smith_normal_form(a).kernel_basis(), a.cols).transpose()
    kind = draw(st.sampled_from(["random", "zero", "scaled"]))
    if kind == "scaled":
        scales = draw(st.lists(st.sampled_from([2, 3, 6]), min_size=k.cols, max_size=k.cols))
        y = IntMatrix(k.cols, k.cols, [s if i == j else 0 for i, s in enumerate(scales) for j in range(k.cols)])
    else:
        c = draw(st.integers(0, 3))
        entries = st.just(0) if kind == "zero" else st.integers(-3, 3)
        y = IntMatrix(k.cols, c, draw(st.lists(entries, min_size=k.cols * c, max_size=k.cols * c)))
    return a, k, k @ y


@settings(max_examples=200, deadline=None)
@given(kernel_images())
def test_subquotient_matches_the_exact_solve(case):
    # x replayed off the column log against solve_exact's full Smith form of
    # K, and the generators pushed by snf(x)'s row log against the dense
    # K @ U^-1: same group and same generator vectors
    a, k, b = case
    assert smith_normal_form(a).subquotient(b) == subquotient_with_generators(k, b)


def test_empty_matrices_are_legal():
    assert smith_normal_form(IntMatrix.zeros(0, 3)).d == IntMatrix.zeros(0, 3)
    assert smith_normal_form(IntMatrix.zeros(0, 3)).kernel_basis() == [{0: 1}, {1: 1}, {2: 1}]
    assert smith_normal_form(IntMatrix.zeros(3, 0)).cokernel() == FgAbGroup(3, ())
    assert smith_normal_form(IntMatrix.zeros(0, 0)).cokernel() == FgAbGroup(0, ())
    assert det(IntMatrix.zeros(0, 0)) == 1


def test_from_rows_checks_its_column_count():
    assert IntMatrix.from_rows([[1, 2]], 2) == IntMatrix(1, 2, [1, 2])
    assert IntMatrix.from_rows([], 3) == IntMatrix.zeros(0, 3)
    with pytest.raises(ShapeMismatch):
        IntMatrix.from_rows([[1, 2]], 3)


def slow_det(m):
    """Leibniz expansion over all permutations, signed by cycle parity."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # count cycle parity
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= m.entry(i, perm[i])
        total += sign * prod
    return total



@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fraction_det_matches_leibniz(data):
    # the determinant the Poincare duality check in test_gerbe reads, on
    # {column: entry} rows with stored zeros, against the expansion above
    n = data.draw(st.integers(0, 5), label="n")
    entry = st.integers(-3, 3) | st.integers(-(2**40), 2**40)
    entries = data.draw(st.lists(entry, min_size=n * n, max_size=n * n))
    if n > 1 and data.draw(st.booleans(), label="a repeated row"):
        entries[-n:] = entries[:n]
    a = IntMatrix(n, n, entries)
    rows = [
        {j: x for j, x in enumerate(a.row(i)) if x or data.draw(st.booleans())} for i in range(a.rows)
    ]
    assert fraction_det(rows) == slow_det(a)

ENTRIES = st.one_of(st.integers(-1, 1), st.integers(-6, 6), st.integers(-(2**70), 2**70))


@st.composite
def square_matrices(draw):
    """n x n for n up to 5, or a product of elementary matrices for n up to 6.

    Entries and elementary multipliers are small or past 2^64. From n = 2 on,
    a copied row makes a singular matrix whatever the entries.
    """
    kind = draw(st.sampled_from(["entries", "singular", "elementary"]))
    if kind != "elementary":
        n = draw(st.integers(0, 5))
        rows = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
        if kind == "singular" and n > 1:
            rows[-1] = list(rows[0])
        return IntMatrix.from_rows(rows, n)
    n = draw(st.integers(1, 6))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if op == "add" and i != j:
            k = draw(ENTRIES)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_against_permutation_expansion(a):
    assert det(a) == slow_det(a)
    with pytest.raises(NonSquareMatrix):
        det(IntMatrix.zeros(2, 3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_det_against_cofactor_expansion(data):
    # n = 0-6 with entries past 2^64: drawn, singular (a row that sums two
    # others, or a zero column), and with a row swap or negation, which
    # negates the determinant
    n = data.draw(st.integers(0, 6), label="n")
    rows = [data.draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    kind = data.draw(st.sampled_from(["drawn", "row sum", "zero column", "swap", "negate"]))
    if kind == "row sum" and n > 2:
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    elif kind == "zero column" and n:
        j = data.draw(st.integers(0, n - 1))
        rows = [row[:j] + [0] + row[j + 1 :] for row in rows]
    a = IntMatrix.from_rows(rows, n)
    want = cofactor_det(a)
    assert det(a) == want
    if kind in ("row sum", "zero column") and n > 2:
        assert want == 0
    if kind in ("swap", "negate") and n > 1:
        i, j = data.draw(st.integers(0, n - 2)), n - 1
        rows[i], rows[j] = (rows[j], rows[i]) if kind == "swap" else ([-x for x in rows[i]], rows[j])
        assert det(IntMatrix.from_rows(rows, n)) == -want


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse_unimodular(a):
    for bad in (IntMatrix.from_rows([[2, 0], [0, 1]]), IntMatrix.zeros(2, 3)):
        with pytest.raises(NonUnimodular):
            inverse_unimodular(bad)
    if abs(slow_det(a)) != 1:
        with pytest.raises(NonUnimodular):
            inverse_unimodular(a)
        return
    inv = inverse_unimodular(a)
    eye = IntMatrix.identity(a.rows)
    assert inv @ a == eye and a @ inv == eye
    assert inv == smith_form_inverse(a)


def test_solve_exact():
    k = IntMatrix.from_rows([[2, 0], [0, 3]])
    g = IntMatrix.from_columns([[2, 3]], 2)
    x = solve_exact(k, g)
    assert k @ x == g
    with pytest.raises(ImageNotInKernel):
        solve_exact(k, IntMatrix.from_columns([[1, 0]], 2))


def test_stacking():
    # the test-side hstack that the Fox-derivative references use
    a = IntMatrix.from_rows([[1, 2], [5, 6]])
    b = IntMatrix.from_rows([[3], [7]])
    assert hstack([a, b]) == IntMatrix.from_rows([[1, 2, 3], [5, 6, 7]])
    with pytest.raises(ShapeMismatch):
        hstack([a, IntMatrix.from_rows([[3]])])


def test_fgabgroup_validation_and_order():
    with pytest.raises(ShapeMismatch):
        FgAbGroup(0, (4, 2))  # not a divisibility chain
    with pytest.raises(ShapeMismatch):
        FgAbGroup(0, (1,))  # trivial divisor not allowed
    for zero in ((0, 2), (0, 0)):  # a zero entry is refused before anything divides by it
        with pytest.raises(ShapeMismatch, match=">= 2"):
            FgAbGroup(0, zero)
    g = FgAbGroup(1, (2, 6))
    assert g.to_json() == {"free_rank": 1, "torsion": [2, 6]}


def test_presentations_expose_generators():
    # quotient Z^2 / <(2,0)>: one free generator and one 2-torsion generator
    pres = subquotient_with_generators(IntMatrix.identity(2), IntMatrix.from_columns([[2, 0]], 2))
    assert pres.group == FgAbGroup(1, (2,))
    assert len(pres.free_gens) == 1 and len(pres.torsion_gens) == 1

    ker = IntMatrix.identity(2)
    img = IntMatrix.from_rows([[2, 0], [0, 2]])
    pres2 = subquotient_with_generators(ker, img)
    assert pres2.group == FgAbGroup(0, (2, 2))
    assert len(pres2.all_gens()) == 2


def naive_matmul(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    """Reference product: the textbook triple loop over entries."""
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for t in range(a.cols):
                out[i][j] += a.entry(i, t) * b.entry(t, j)
    return out


class TestProducts:
    SHAPES = [(0, 3, 2), (2, 0, 3), (0, 0, 0), (3, 2, 0), (1, 1, 1), (4, 3, 5), (6, 6, 6), (2, 7, 1)]

    def _pairs(self, rng, lo, hi):
        for n, k, m in self.SHAPES + [
            tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(30)
        ]:
            yield rand_matrix(rng, n, k, lo, hi), rand_matrix(rng, k, m, lo, hi)

    def test_matmul_matches_triple_loop(self):
        rng = random.Random(41)
        for a, b in self._pairs(rng, -9, 9):
            c = a @ b
            assert (c.rows, c.cols) == (a.rows, b.cols)
            assert c.row_lists() == naive_matmul(a, b)

    def test_matmul_big_entries(self):
        rng = random.Random(43)
        big = 2**64
        for a, b in self._pairs(rng, -(big**2), big**2):
            assert (a @ b).row_lists() == naive_matmul(a, b)
        a = IntMatrix.from_rows([[big + 1, -(big - 1)]])
        b = IntMatrix.from_rows([[big], [big + 3]])
        assert (a @ b).entries == ((big + 1) * big - (big - 1) * (big + 3),)

    def test_mul_vec_and_transpose_match_reference(self):
        rng = random.Random(47)
        for a, _ in self._pairs(rng, -(2**70), 2**70):
            vec = [rng.randint(-(2**70), 2**70) for _ in range(a.cols)]
            col = IntMatrix.from_columns([vec], a.cols)
            assert list(a.mul_vec(vec)) == [row[0] for row in naive_matmul(a, col)]
            t = a.transpose()
            assert (t.rows, t.cols) == (a.cols, a.rows)
            assert all(
                t.entry(j, i) == a.entry(i, j) for i in range(a.rows) for j in range(a.cols)
            )

    def test_shape_mismatch_still_raised(self):
        with pytest.raises(ShapeMismatch):
            IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)
        with pytest.raises(ShapeMismatch):
            IntMatrix.zeros(0, 1) @ IntMatrix.zeros(0, 1)
        with pytest.raises(ShapeMismatch):
            IntMatrix.zeros(2, 3).mul_vec((1, 2))
