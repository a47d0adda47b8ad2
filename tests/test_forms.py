import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    QuadraticForm,
    SymmetricForm,
    evaluate,
    invariance_check,
    is_linear,
    polarize,
    quad_from_bilinear,
)
from qtorus.errors import (
    BadFraction,
    DimensionMismatch,
    NonSquareMatrix,
    NonUnimodular,
)
from qtorus.forms import HALF, ZERO, preserves, probe_images

from helpers import (
    family_system,
    frac1_bilinear,
    frac1_quadratic,
    rand_matrix,
    random_invariant_level,
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
        q = QuadraticForm(1, (frac(1, 4),), ())
        assert evaluate(q, (2,)) == ZERO
        assert evaluate(q, (3,)) == frac(1, 4)

    def test_dimension_guard(self):
        q = QuadraticForm(2, (ZERO, ZERO), (HALF,))
        with pytest.raises(DimensionMismatch):
            evaluate(q, (1,))


class TestPolarize:
    def test_zero_form(self):
        q = QuadraticForm(2, (ZERO, ZERO), (ZERO,))
        assert polarize(q).is_zero()

    def test_quarter_square_gives_half_product(self):
        q = QuadraticForm(1, (frac(1, 4),), ())
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
        assert is_linear(QuadraticForm(1, (ZERO,), ()))

    def test_half_square_is_linear(self):
        # Q(n) = n^2/2 equals n/2 mod 1
        q = QuadraticForm(1, (HALF,), ())
        assert is_linear(q)
        for n in range(-6, 7):
            assert evaluate(q, (n,)) in (ZERO, HALF)

    def test_third_square_is_not_linear(self):
        q = QuadraticForm(1, (frac(1, 3),), ())
        assert not is_linear(q)
        assert polarize(q).evaluate((1,), (1,)) == frac(2, 3)


def test_is_linear_marks_e_infinity_levels():
    # the e_infinity flag of a local report: the zero form of rank 2 and 1/2
    # are linear, 1/4 is not
    assert is_linear(QuadraticForm(2, (ZERO, ZERO), (ZERO,)))
    assert not is_linear(QuadraticForm(1, (frac(1, 4),), ()))
    assert is_linear(QuadraticForm(1, (HALF,), ()))


def genus_one(a):
    """The genus-1 local system (a, I); the relation holds for any unimodular a."""
    return LatticeLocalSystem(a.rows, 1, [a, IntMatrix.identity(a.rows)])


class TestInvarianceCheck:
    def test_identity_always_passes(self):
        rng = random.Random(8)
        q = quad_from_bilinear(BilinearData(rand_matrix(rng, 3, 3, -4, 4), frac(1, 7)))
        assert invariance_check(q, genus_one(IntMatrix.identity(3)))

    def test_negation_always_passes(self):
        q = QuadraticForm(1, (frac(1, 3),), ())
        assert invariance_check(q, genus_one(IntMatrix(1, 1, [-1])))

    def test_swap_detects_asymmetric_diagonal(self):
        q = QuadraticForm(2, (frac(1, 3), ZERO), (ZERO,))
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert not invariance_check(q, genus_one(swap))

    def test_error_paths(self):
        q = QuadraticForm(2, (ZERO, ZERO), (ZERO,))
        with pytest.raises(DimensionMismatch):
            invariance_check(q, genus_one(IntMatrix.identity(3)))
        # a matrix with no integer inverse never reaches the check: the local
        # system refuses it when it inverts its generators
        with pytest.raises(NonUnimodular):
            genus_one(IntMatrix.from_rows([[2, 0], [0, 1]]))

    def test_matches_the_frac1_route(self):
        # the check on integer numerators against Q(a v) == Q(v) as Q/Z values,
        # on basis vectors and pairwise sums, for invariant and other forms
        verdicts = []

        @settings(max_examples=300, deadline=None)
        @given(st.data())
        def check(data):
            genus = data.draw(st.integers(0, 3), label="genus")
            rank = data.draw(st.integers(1, 4), label="rank")
            rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
            rho = random_local_system(rng, genus, rank)
            if data.draw(st.booleans(), label="invariant level"):
                q = quad_from_bilinear(random_invariant_level(rng, rho))
            else:
                den = data.draw(st.integers(1, 12) | st.integers(2, 2**70), label="denominator")
                values = st.lists(
                    st.integers(0, den - 1).map(lambda x: frac(x, den)),
                    min_size=rank * (rank + 1) // 2,
                    max_size=rank * (rank + 1) // 2,
                )
                drawn = data.draw(values, label="values")
                q = QuadraticForm(rank, tuple(drawn[:rank]), tuple(drawn[rank:]))
            unit = [tuple(int(t == i) for t in range(rank)) for i in range(rank)]
            probes = unit + [
                tuple(x + y for x, y in zip(unit[i], unit[j]))
                for i in range(rank)
                for j in range(i + 1, rank)
            ]
            expected = all(
                evaluate(q, a.mul_vec(v)) == evaluate(q, v) for a in rho.mon for v in probes
            )
            assert invariance_check(q, rho) == expected
            verdicts.append(expected)

        check()
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    def test_integer_test_matches_the_form(self):
        # preserves on (num c, den) against the probe images is the check on
        # the form num/den * (x^T c x), over every local system family, with
        # identity generators among them
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
            assert preserves(scaled, den, probe_images(rho.mon, rank)) == expected
            verdicts.append(expected)

        check()
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    def test_trivial_monodromy_forms_no_product(self, monkeypatch):
        # identity generators move no probe, so a trivial system costs no
        # product at all, however large its genus
        products = []
        mul_vec = IntMatrix.mul_vec

        def counting_mul_vec(self, vec):
            products.append(vec)
            return mul_vec(self, vec)

        q = quad_from_bilinear(BilinearData(rand_matrix(random.Random(3), 4, 4, -5, 5), frac(1, 7)))
        swap = IntMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        one = IntMatrix.identity(4)
        trivial = LatticeLocalSystem.trivial(4, 8)
        moving = LatticeLocalSystem(4, 8, [swap, swap] + [one] * 14)
        monkeypatch.setattr(IntMatrix, "mul_vec", counting_mul_vec)
        assert invariance_check(q, trivial)
        assert products == []
        invariance_check(q, moving)
        assert products  # the one moving handle is probed


def test_symmetric_form_validation():
    with pytest.raises(Exception):
        SymmetricForm(2, ((ZERO, HALF), (ZERO, ZERO)))  # not symmetric
    s = SymmetricForm(2, ((ZERO, HALF), (HALF, ZERO)))
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
                b = SymmetricForm(rank, tuple(map(tuple, rows)))
                for _ in range(5):
                    x, y = _random_vector(rng, rank), _random_vector(rng, rank)
                    assert b.evaluate(x, y) == frac1_bilinear(b.entries, x, y)

    def test_quadratic_evaluate_matches_per_entry_sum(self):
        rng = random.Random("quadratic-integer")
        for rank in range(5):
            for _ in range(40):
                q = QuadraticForm(
                    rank,
                    tuple(_random_value(rng) for _ in range(rank)),
                    tuple(_random_value(rng) for _ in range(rank * (rank - 1) // 2)),
                )
                for _ in range(5):
                    gamma = _random_vector(rng, rank)
                    assert evaluate(q, gamma) == frac1_quadratic(q, gamma)

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
                assert q1 == q2 and hash(q1) == hash(q2)
                assert (q1.denominator, q1.numerators) == (q2.denominator, q2.numerators)
                b1, b2 = polarize(q1), polarize(q2)
                assert b1 == b2 and hash(b1) == hash(b2)
                assert (b1.denominator, b1.numerators) == (b2.denominator, b2.numerators)
                # entries given unreduced or shifted by integers are the same values
                unreduced = tuple(
                    tuple(Frac1(3 * x.num + 15 * x.den, 3 * x.den) for x in row)
                    for row in b1.entries
                )
                b3 = SymmetricForm(rank, unreduced)
                assert b3 == b1 and hash(b3) == hash(b1)
                assert (b3.denominator, b3.numerators) == (b1.denominator, b1.numerators)

    def test_common_denominator_is_the_lcm(self):
        b = SymmetricForm(2, ((frac(1, 4), frac(1, 6)), (frac(1, 6), ZERO)))
        assert b.denominator == 12
        assert b.numerators == IntMatrix.from_rows([[3, 2], [2, 0]])
        q = QuadraticForm(3, (HALF, ZERO, frac(2, 3)), (frac(1, 4), ZERO, frac(5, 6)))
        assert q.denominator == 12
        assert q.numerators == IntMatrix.from_rows([[6, 3, 0], [0, 0, 10], [0, 0, 8]])
        empty = SymmetricForm(0, ())
        assert (empty.denominator, empty.evaluate((), ())) == (1, ZERO)
