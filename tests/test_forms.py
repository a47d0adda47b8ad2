import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    BilinearData,
    BraidedData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    LevelInput,
    QuadraticForm,
    SymmetricForm,
    evaluate,
    invariance_check,
    is_linear,
    polarize,
    quad_from_bilinear,
)
from qtorus import forms
from qtorus.errors import (
    BadFraction,
    DimensionMismatch,
    NonSquareMatrix,
    NonUnimodular,
    NotInvariant,
)
from qtorus.forms import moving_columns, preserves

from helpers import (
    HALF,
    ZERO,
    family_system,
    fields,
    fixed_on_probes,
    frac1_bilinear,
    frac1_quadratic,
    frac1_rows,
    invariant_form_mod,
    over_lcm,
    quadratic_form,
    rand_matrix,
    rand_unimodular,
    random_local_system,
)


def frac(n, d):
    return Frac1(n, d)


class TestFrac1:
    def test_normalizes_mod_one(self):
        assert Frac1(9, 2) == HALF
        assert Frac1(-1, 3) == frac(2, 3)
        assert Frac1(4, 2) == ZERO

    def test_reduces(self):
        assert Frac1(2, 4) == HALF
        assert str(Frac1(6, 8)) == "3/4"

    def test_group_law(self):
        assert frac(1, 3) + frac(1, 6) == HALF
        assert frac(2, 3) + frac(1, 3) == ZERO
        assert -frac(1, 4) == frac(3, 4)
        assert frac(1, 4) - frac(1, 2) == frac(3, 4)
        assert frac(1, 6).scale(3) == HALF
        assert bool(ZERO) is False and bool(HALF) is True

    @pytest.mark.parametrize("text,num,den", [("0/1", 0, 1), ("1/2", 1, 2), ("5/12", 5, 12)])
    def test_parse_accepts_canonical(self, text, num, den):
        assert Frac1.parse(text) == Frac1(num, den)

    @pytest.mark.parametrize(
        "bad",
        ["2/4", "3/2", "1/0", "-1/2", "1/ 2", "1", "", "one/two", 7, None, "1/2/3",
         "01/3", "1/03", "00/1", "0/01"],
    )
    def test_parse_rejects_noncanonical(self, bad):
        with pytest.raises(BadFraction):
            Frac1.parse(bad)

    def test_string_round_trip(self):
        for den in range(1, 13):
            for num in range(den):
                f = Frac1(num, den)
                assert Frac1.parse(str(f)) == f


class TestQuadFromBilinear:
    def test_worked_rank_one(self):
        q = quad_from_bilinear(BilinearData(IntMatrix(1, 1, [1]), HALF))
        assert evaluate(q, (3,)) == HALF  # 9/2 mod 1

    def test_trivial_zeta_kills_everything(self):
        q = quad_from_bilinear(BilinearData(IntMatrix.from_rows([[3, -2], [7, 5]]), ZERO))
        for v in product(range(-3, 4), repeat=2):
            assert evaluate(q, v) == ZERO

    def test_off_diagonal_only(self):
        q = quad_from_bilinear(BilinearData(IntMatrix.from_rows([[0, 1], [0, 0]]), frac(1, 3)))
        assert evaluate(q, (1, 1)) == frac(1, 3)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareMatrix):
            BilinearData(IntMatrix.zeros(1, 2), HALF)


class TestEvaluate:
    def test_zero_vector(self):
        q = quad_from_bilinear(BilinearData(rand_matrix(random.Random(1), 3, 3, -5, 5), frac(1, 7)))
        assert evaluate(q, (0, 0, 0)) == ZERO

    def test_even(self):
        rng = random.Random(2)
        q = quad_from_bilinear(BilinearData(rand_matrix(rng, 2, 2, -5, 5), frac(1, 5)))
        for v in product(range(-3, 4), repeat=2):
            assert evaluate(q, v) == evaluate(q, tuple(-x for x in v))

    def test_stored_diag_path(self):
        q = quadratic_form((frac(1, 4),), ())
        assert evaluate(q, (2,)) == ZERO
        assert evaluate(q, (3,)) == frac(1, 4)

    def test_dimension_guard(self):
        q = quadratic_form((ZERO, ZERO), (HALF,))
        with pytest.raises(DimensionMismatch):
            evaluate(q, (1,))


class TestPolarize:
    def test_zero_form(self):
        q = quadratic_form((ZERO, ZERO), (ZERO,))
        assert polarize(q).is_zero()

    def test_quarter_square_gives_half_product(self):
        q = quadratic_form((frac(1, 4),), ())
        b = polarize(q)
        for m in range(-4, 5):
            for n in range(-4, 5):
                assert b.evaluate((m,), (n,)) == Frac1(m * n, 2)

    def test_matches_symmetrization(self):
        rng = random.Random(3)
        for _ in range(30):
            r = rng.randint(1, 3)
            c = rand_matrix(rng, r, r, -4, 4)
            zeta = Frac1(rng.randrange(1, 9), 9)
            b = polarize(quad_from_bilinear(BilinearData(c, zeta)))
            sym = c + c.transpose()
            for i in range(r):
                for j in range(r):
                    ei = tuple(1 if k == i else 0 for k in range(r))
                    ej = tuple(1 if k == j else 0 for k in range(r))
                    assert b.evaluate(ei, ej) == zeta.scale(sym.entry(i, j))

    def test_defining_identity_and_diagonal(self):
        rng = random.Random(4)
        for _ in range(20):
            q = quad_from_bilinear(BilinearData(rand_matrix(rng, 2, 2, -3, 3), frac(1, 8)))
            b = polarize(q)
            for x in product(range(-2, 3), repeat=2):
                assert b.evaluate(x, x) == evaluate(q, x).scale(2)
                for y in product(range(-2, 3), repeat=2):
                    lhs = evaluate(q, tuple(a + c for a, c in zip(x, y)))
                    assert b.evaluate(x, y) == lhs - evaluate(q, x) - evaluate(q, y)

    def test_bilinearity(self):
        # exhaustive at rank 2, sampled at rank 3
        q2 = quad_from_bilinear(BilinearData(IntMatrix.from_rows([[1, 2], [0, -1]]), frac(1, 6)))
        b2 = polarize(q2)
        vecs2 = list(product(range(-3, 4), repeat=2))
        for g1 in vecs2:
            for g2 in vecs2:
                s = tuple(a + b for a, b in zip(g1, g2))
                for g3 in [(1, 0), (0, 1), (1, 1), (-2, 3)]:
                    assert b2.evaluate(s, g3) == b2.evaluate(g1, g3) + b2.evaluate(g2, g3)
        rng = random.Random(5)
        q3 = quad_from_bilinear(BilinearData(rand_matrix(rng, 3, 3, -3, 3), frac(1, 12)))
        b3 = polarize(q3)
        for _ in range(400):
            g1, g2, g3 = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            s = tuple(a + b for a, b in zip(g1, g2))
            assert b3.evaluate(s, g3) == b3.evaluate(g1, g3) + b3.evaluate(g2, g3)


def test_level_space_is_additive():
    rng = random.Random(6)
    for _ in range(25):
        r = rng.randint(1, 3)
        c1 = rand_matrix(rng, r, r, -3, 3)
        c2 = rand_matrix(rng, r, r, -3, 3)
        zeta = Frac1(rng.randrange(6), 6) if rng.random() < 0.8 else frac(1, 4)
        qa = quad_from_bilinear(BilinearData(c1 + c2, zeta))
        q1 = quad_from_bilinear(BilinearData(c1, zeta))
        q2 = quad_from_bilinear(BilinearData(c2, zeta))
        qsum = q1 + q2
        for v in product(range(-2, 3), repeat=r):
            assert evaluate(qa, v) == evaluate(qsum, v) == evaluate(q1, v) + evaluate(q2, v)


class TestLinearity:
    def test_zero_is_linear(self):
        assert is_linear(quadratic_form((ZERO,), ()))

    def test_half_square_is_linear(self):
        # Q(n) = n^2/2 equals n/2 mod 1
        q = quadratic_form((HALF,), ())
        assert is_linear(q)
        for n in range(-6, 7):
            assert evaluate(q, (n,)) in (ZERO, HALF)

    def test_third_square_is_not_linear(self):
        q = quadratic_form((frac(1, 3),), ())
        assert not is_linear(q)
        assert polarize(q).evaluate((1,), (1,)) == frac(2, 3)


def test_is_linear_marks_e_infinity_levels():
    # the e_infinity flag of a local report: the zero form of rank 2 and 1/2
    # are linear, 1/4 is not
    assert is_linear(quadratic_form((ZERO, ZERO), (ZERO,)))
    assert not is_linear(quadratic_form((frac(1, 4),), ()))
    assert is_linear(quadratic_form((HALF,), ()))


def genus_one(a):
    """The genus-1 local system (a, I); the relation holds for any unimodular a."""
    return LatticeLocalSystem(a.rows, 1, [a, IntMatrix.identity(a.rows)])


class TestInvarianceCheck:
    def test_identity_always_passes(self):
        rng = random.Random(8)
        q = quad_from_bilinear(BilinearData(rand_matrix(rng, 3, 3, -4, 4), frac(1, 7)))
        assert invariance_check(q, genus_one(IntMatrix.identity(3)))

    def test_negation_always_passes(self):
        q = quadratic_form((frac(1, 3),), ())
        assert invariance_check(q, genus_one(IntMatrix(1, 1, [-1])))

    def test_swap_detects_asymmetric_diagonal(self):
        q = quadratic_form((frac(1, 3), ZERO), (ZERO,))
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert not invariance_check(q, genus_one(swap))

    def test_error_paths(self):
        q = quadratic_form((ZERO, ZERO), (ZERO,))
        with pytest.raises(DimensionMismatch):
            invariance_check(q, genus_one(IntMatrix.identity(3)))
        # a matrix with no integer inverse never reaches the check: the local
        # system refuses it when it inverts its generators
        with pytest.raises(NonUnimodular):
            genus_one(IntMatrix.from_rows([[2, 0], [0, 1]]))

    def test_matches_the_frac1_route(self):
        # the check on integer numerators against Q(a v) == Q(v) as Q/Z values,
        # on basis vectors and pairwise sums. The levels are invariant ones,
        # drawn by that Q/Z route, the same with one entry bumped by 1 / 2N,
        # and other forms; added handles (-I, A), (A, -A) and (A, A) bring
        # the negated identity, negated and repeated generators in
        verdicts = []

        @settings(max_examples=300, deadline=None)
        @given(st.data())
        def check(data):
            genus = data.draw(st.integers(0, 3), label="genus")
            rank = data.draw(st.integers(1, 8), label="rank")
            rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
            rho = random_local_system(rng, genus, rank)
            mon = list(rho.mon)
            minus_one = -IntMatrix.identity(rank)
            for handle in data.draw(st.lists(st.sampled_from(("-I", "-A", "A")), max_size=3)):
                a = rng.choice(rho.mon) if rho.mon else rand_unimodular(rng, rank)
                mon += {"-I": [minus_one, a], "-A": [a, -a], "A": [a, a]}[handle]
            rho = LatticeLocalSystem(rank, len(mon) // 2, mon)
            kind = data.draw(st.sampled_from(("invariant", "bumped", "other")), label="level")
            if kind == "other":
                den = data.draw(st.integers(1, 12) | st.integers(2, 2**70), label="denominator")
                values = st.lists(
                    st.integers(0, den - 1).map(lambda x: frac(x, den)),
                    min_size=rank * (rank + 1) // 2,
                    max_size=rank * (rank + 1) // 2,
                )
                drawn = data.draw(values, label="values")
                q = quadratic_form(tuple(drawn[:rank]), tuple(drawn[rank:]))
            else:
                for _ in range(60):
                    den = rng.randint(2, 6)
                    level = BilinearData(rand_matrix(rng, rank, rank, -3, 3), frac(1, den))
                    q = quad_from_bilinear(level)
                    if fixed_on_probes(q, rho):
                        break
                if kind == "bumped":
                    u = [2 * x for x in q.numerators.entries]
                    u[rng.randrange(rank * rank)] += 1
                    q = QuadraticForm(IntMatrix(rank, rank, u), 2 * q.denominator)
            expected = fixed_on_probes(q, rho)
            assert invariance_check(q, rho) == expected
            verdicts.append((kind, expected))

        check()
        kinds = {("invariant", True), ("bumped", True), ("bumped", False), ("other", True), ("other", False)}
        assert kinds <= set(verdicts)
        assert sum(v for _, v in verdicts) >= 10 and sum(not v for _, v in verdicts) >= 10

    @pytest.mark.parametrize("genus, rank", [(2, 64), (64, 4)])
    def test_unipotent_shears_at_rank(self, genus, rank):
        # 2g shears x -> x + (v . x) e_0 fix a level that is zero on row and
        # column 0, and U_00 bumped moves it: Q(A e_j) - Q(e_j) = v_j^2 U_00
        rng = random.Random(rank)
        mon = []
        for _ in range(2 * genus):
            e = list(IntMatrix.identity(rank).entries)
            e[1:rank] = [rng.choice((-2, -1, 1, 2)) for _ in range(rank - 1)]
            mon.append(IntMatrix(rank, rank, e))
        rho = LatticeLocalSystem(rank, genus, mon)
        c = [0 if 0 in (i, j) else rng.randint(-3, 3) for i in range(rank) for j in range(rank)]
        level = LevelInput(BilinearData(IntMatrix(rank, rank, c), frac(1, 6)), rho)
        assert level.quad.numerators.entries[0] == 0
        c[0] = 1
        with pytest.raises(NotInvariant):
            LevelInput(BilinearData(IntMatrix(rank, rank, c), frac(1, 6)), rho)

    def test_integer_test_matches_the_form(self):
        # preserves on (num c, den) against the moving generators is the
        # check on the form num/den * (x^T c x), over every local system
        # family, with identity generators among them
        verdicts = []

        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
            genus = data.draw(st.integers(1, 3), label="genus")
            rank = data.draw(st.integers(1, 4), label="rank")
            rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
            family = data.draw(st.sampled_from(("random", "trivial", "sign", "shear", "pair")))
            if family == "random":
                rho = random_local_system(rng, genus, rank)
            else:
                rho = family_system(rng, family, genus, rank)
            if data.draw(st.booleans(), label="identity handle"):
                one = IntMatrix.identity(rank)
                rho = LatticeLocalSystem(rank, genus + 1, [one, one, *rho.mon])
            bound = data.draw(st.sampled_from((3, 50)), label="entry bound")
            c = IntMatrix(rank, rank, data.draw(
                st.lists(st.integers(-bound, bound), min_size=rank * rank, max_size=rank * rank),
                label="c",
            ))
            den = data.draw(st.integers(1, 12), label="den")
            num = data.draw(st.integers(1, den), label="num")  # num = den: the zero phase
            expected = invariance_check(quad_from_bilinear(BilinearData(c, Frac1(num, den))), rho)
            scaled = [num * x for x in c.entries]
            assert preserves(scaled, den, moving_columns(rho.mon, rank)) == expected
            verdicts.append(expected)

        check()
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    def test_trivial_monodromy_forms_no_product(self, monkeypatch):
        # the identity and its negative move no form, so a trivial system,
        # or one whose every generator is one of them, has an empty
        # form-free half and the test multiplies nothing, at any genus; a
        # generator and its negative are kept once
        products = []
        mul = forms.mul

        def counting_mul(x, y):
            products.append((x, y))
            return mul(x, y)

        q = quad_from_bilinear(BilinearData(rand_matrix(random.Random(3), 4, 4, -5, 5), frac(1, 7)))
        swap = IntMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        one = IntMatrix.identity(4)
        trivial = LatticeLocalSystem.trivial(4, 8)
        signs = LatticeLocalSystem(4, 8, [one, -one, -one, -one] * 4)
        moving = LatticeLocalSystem(4, 8, [swap, -swap, -one, swap] + [one] * 12)
        monkeypatch.setattr(forms, "mul", counting_mul)
        for rho in (trivial, signs):
            assert moving_columns(rho.mon, 4) == []
            assert invariance_check(q, rho)
        assert products == []
        assert [IntMatrix.from_columns(a, 4) for a in moving_columns(moving.mon, 4)] == [-swap]
        invariance_check(q, moving)
        assert products  # the one moving generator is multiplied out

    def test_helper_solves_for_an_invariant_form_mod_p(self):
        # helpers.invariant_form_mod, random_invariant_level's fallback, solves
        # D = A^T U A - U mod p with no code from forms: each U it returns is
        # upper triangular, nonzero mod p and fixed on the probes, and it
        # returns None exactly where no nonzero upper-triangular U mod p passes
        # invariance_check, found by trying every U. Rank 3 gets the most
        # draws: a solver that drops the A_kj A_li term of D_ij + D_ji still
        # passes at rank 2 and fails on a few rank-3 systems
        rng = random.Random(11)
        seen = {"found": 0, "none": 0}
        for family in ("shear", "pair", "random"):
            for rank, draws in ((1, 2), (2, 4), (3, 12)):
                for _ in range(draws):
                    genus = rng.randint(1, 2)
                    if family == "random":
                        rho = random_local_system(rng, genus, rank)
                    else:
                        rho = family_system(rng, family, genus, rank)
                    for p in (2, 3):
                        u = invariant_form_mod(rng, rho, p)
                        exists = any(
                            invariance_check(quad_from_bilinear(BilinearData(m, frac(1, p))), rho)
                            for m in nonzero_upper_triangular(rank, p)
                        )
                        assert (u is not None) == exists, (family, rank, p)
                        if u is not None:
                            assert all(u.entry(i, j) == 0 for i in range(rank) for j in range(i))
                            assert any(x % p for x in u.entries)
                            assert fixed_on_probes(quad_from_bilinear(BilinearData(u, frac(1, p))), rho)
                        seen["found" if exists else "none"] += 1
        assert seen["found"] >= 20 and seen["none"] >= 5, seen


def nonzero_upper_triangular(rank, p):
    """Every upper-triangular integer matrix with entries in [0, p), but the zero one."""
    cells = [(i, j) for i in range(rank) for j in range(i, rank)]
    for values in product(range(p), repeat=len(cells)):
        if any(values):
            entries = dict(zip(cells, values))
            yield IntMatrix(rank, rank, [entries.get((i, j), 0) for i in range(rank) for j in range(rank)])


def test_symmetric_form_validation():
    with pytest.raises(Exception):
        SymmetricForm(*over_lcm(((ZERO, HALF), (ZERO, ZERO))))  # not symmetric
    s = SymmetricForm(*over_lcm(((ZERO, HALF), (HALF, ZERO))))
    assert s.evaluate((1, 0), (0, 1)) == HALF
    with pytest.raises(DimensionMismatch):
        s.evaluate((1,), (0, 1))


def _random_value(rng):
    den = rng.randint(1, 12)
    return Frac1(rng.randrange(den), den)


def _random_vector(rng, rank):
    """Small entries, zeros, and entries beyond 2**64 of either sign."""
    big = 2**64
    return tuple(
        rng.choice((0, rng.randint(-3, 3), rng.randint(big, 4 * big), -rng.randint(big, 4 * big)))
        for _ in range(rank)
    )


class TestIntegerEvaluators:
    """One integer sum over a common denominator equals the sum of per-entry Frac1 terms."""

    def test_symmetric_evaluate_matches_per_entry_sum(self):
        rng = random.Random("symmetric-integer")
        for rank in range(5):
            for _ in range(40):
                rows = [[None] * rank for _ in range(rank)]
                for i in range(rank):
                    for j in range(i, rank):
                        rows[i][j] = rows[j][i] = _random_value(rng)
                b = SymmetricForm(*over_lcm(rows))
                for _ in range(5):
                    x, y = _random_vector(rng, rank), _random_vector(rng, rank)
                    assert b.evaluate(x, y) == frac1_bilinear(rows, x, y)

    def test_quadratic_evaluate_matches_per_entry_sum(self):
        rng = random.Random("quadratic-integer")
        for rank in range(5):
            for _ in range(40):
                diag = tuple(_random_value(rng) for _ in range(rank))
                offdiag = tuple(_random_value(rng) for _ in range(rank * (rank - 1) // 2))
                q = quadratic_form(diag, offdiag)
                for _ in range(5):
                    gamma = _random_vector(rng, rank)
                    assert evaluate(q, gamma) == frac1_quadratic(diag, offdiag, gamma)

    def test_equal_forms_built_differently(self):
        rng = random.Random("equal-forms")
        for rank in range(5):
            for _ in range(20):
                den = rng.randint(1, 12)
                zeta = Frac1(rng.randrange(den), den)
                c = rand_matrix(rng, rank, rank, -5, 5)
                anti = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    for j in range(i + 1, rank):
                        anti[i][j] = rng.randint(-2**70, 2**70)
                        anti[j][i] = -anti[i][j]
                shifted = c + IntMatrix.from_rows(anti, rank)
                q1 = quad_from_bilinear(BilinearData(c, zeta))
                q2 = quad_from_bilinear(BilinearData(shifted, zeta))
                assert fields(q1) == fields(q2)
                assert (q1.denominator, q1.numerators) == (q2.denominator, q2.numerators)
                b1, b2 = polarize(q1), polarize(q2)
                assert fields(b1) == fields(b2)
                assert (b1.denominator, b1.numerators) == (b2.denominator, b2.numerators)
                # entries given unreduced or shifted by integers are the same values
                n = b1.denominator
                unreduced = IntMatrix(rank, rank, [3 * x + 15 * n for x in b1.numerators.entries])
                b3 = SymmetricForm(unreduced, 3 * n)
                assert fields(b3) == fields(b1)
                assert (b3.denominator, b3.numerators) == (b1.denominator, b1.numerators)

    def test_common_denominator_is_the_lcm(self):
        # 1/4 and 1/6 given over 24 are stored over 12
        b = SymmetricForm(IntMatrix.from_rows([[6, 4], [4, 0]]), 24)
        assert b.denominator == 12
        assert b.numerators == IntMatrix.from_rows([[3, 2], [2, 0]])
        # Q(e_i) = 1/2, 0, 2/3 and b = 1/4, 0, 5/6 above the diagonal, from a
        # matrix whose lower triangle carries part of the polarization
        q = QuadraticForm(IntMatrix.from_rows([[12, 2, 0], [4, 0, 7], [0, 13, 16]]), 24)
        assert q.denominator == 12
        assert q.numerators == IntMatrix.from_rows([[6, 3, 0], [0, 0, 10], [0, 0, 8]])
        by_values = quadratic_form((HALF, ZERO, frac(2, 3)), (frac(1, 4), ZERO, frac(5, 6)))
        assert fields(q) == fields(by_values)
        empty = SymmetricForm(IntMatrix(0, 0, ()), 5)
        assert (empty.denominator, empty.evaluate((), ())) == (1, ZERO)


class TestLeastDenominator:
    """Each form holds its matrix reduced into [0, N) over the least N."""

    @settings(max_examples=200, deadline=None)
    @given(
        rank=st.integers(0, 4),
        entries=st.lists(st.integers(-10**6, 10**6) | st.integers(-2**70, 2**70), min_size=16),
        n=st.integers(1, 60) | st.integers(1, 2**40),
        k=st.integers(1, 30),
    )
    def test_scaled_inputs_and_the_lcm(self, rank, entries, n, k):
        m = IntMatrix(rank, rank, entries[: rank * rank])
        sym = m + m.transpose()
        # each class's own Q/Z values, one Frac1 per entry: the basis values of
        # Q, the entries of b, and the entries of beta
        quad_values = [Frac1(m.entry(i, i), n) for i in range(rank)] + [
            Frac1(m.entry(i, j) + m.entry(j, i), n) for i in range(rank) for j in range(i + 1, rank)
        ]
        sym_values = [[Frac1(x, n) for x in row] for row in sym.row_lists()]
        beta_values = [[Frac1(x, n) for x in row] for row in m.row_lists()]
        cases = [
            (QuadraticForm, m, quad_values),
            (SymmetricForm, sym, [x for row in sym_values for x in row]),
            (BraidedData, m, [x for row in beta_values for x in row]),
        ]
        for cls, matrix, values in cases:
            form = cls(matrix, n)
            scaled = cls(IntMatrix(rank, rank, [k * x for x in matrix.entries]), k * n)
            assert fields(scaled) == fields(form)
            assert all(0 <= x < form.denominator for x in form.numerators.entries)
            assert form.denominator == math.lcm(*(x.den for x in values))
        assert frac1_rows(SymmetricForm(sym, n)) == tuple(map(tuple, sym_values))
        assert frac1_rows(BraidedData(m, n)) == tuple(map(tuple, beta_values))

    def test_rejects_a_non_square_matrix_or_denominator_below_one(self):
        for cls in (QuadraticForm, SymmetricForm, BraidedData):
            with pytest.raises(NonSquareMatrix):
                cls(IntMatrix.zeros(1, 2), 3)
            for n in (0, -4):
                with pytest.raises(BadFraction):
                    cls(IntMatrix.identity(2), n)
