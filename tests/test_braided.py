import random
from itertools import product

import pytest

from qtorus import (
    BilinearData,
    BraidedData,
    Frac1,
    IntMatrix,
    braiding_phase,
    double_braiding,
    evaluate,
    perturb_refinement,
    polarize,
    quad_from_bilinear,
    standard_refinement,
    twist,
)
from qtorus.errors import DimensionMismatch, ShapeMismatch

from helpers import (
    HALF,
    ZERO,
    fields,
    frac1_bilinear,
    frac1_rows,
    over_lcm,
    quadratic_form,
    rand_matrix,
)

QUARTER = Frac1(1, 4)


def quarter_square():
    return quadratic_form((QUARTER,), ())


def rank2_halfpair():
    return quadratic_form((ZERO, ZERO), (HALF,))


def antisym_perturbations(rank, dens=(2, 3, 4), bound=2):
    """All antisymmetric eps with entries m/den, |m| <= bound, as (M, N)."""
    slots = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    for den in dens:
        for choice in product(range(-bound, bound + 1), repeat=len(slots)):
            eps = [[ZERO] * rank for _ in range(rank)]
            for (i, j), m in zip(slots, choice):
                eps[i][j] = Frac1(m, den)
                eps[j][i] = -Frac1(m, den)
            yield over_lcm(eps)


class TestStandardRefinement:
    def test_zero_form(self):
        b = standard_refinement(quadratic_form((ZERO, ZERO), (ZERO,)))
        assert frac1_rows(b) == ((ZERO, ZERO), (ZERO, ZERO))

    def test_rank_one_forced(self):
        assert frac1_rows(standard_refinement(quarter_square())) == ((QUARTER,),)

    def test_upper_triangular_convention(self):
        b = standard_refinement(rank2_halfpair())
        assert frac1_rows(b) == ((ZERO, HALF), (ZERO, ZERO))

    def test_constraints_hold_by_construction(self):
        # beta[i][i] = q(e_i) and beta[i][j] + beta[j][i] = b(e_i, e_j): the
        # form is derived from beta, so no refinement can break them
        rng = random.Random("refinement-constraints")
        for rank in range(4):
            for _ in range(30):
                n = rng.randint(1, 24)
                b = BraidedData(rand_matrix(rng, rank, rank, -40, 40), n)
                beta, pol = frac1_rows(b), polarize(b.quad)
                for i in range(rank):
                    e_i = tuple(int(k == i) for k in range(rank))
                    assert beta[i][i] == evaluate(b.quad, e_i)
                    for j in range(rank):
                        e_j = tuple(int(k == j) for k in range(rank))
                        if i != j:
                            assert beta[i][j] + beta[j][i] == pol.evaluate(e_i, e_j)

    def test_perturbation_must_be_antisymmetric(self):
        b = standard_refinement(rank2_halfpair())
        with pytest.raises(ShapeMismatch, match="diagonal"):
            perturb_refinement(b, IntMatrix.from_rows([[3, 0], [0, 0]]), 6)
        with pytest.raises(ShapeMismatch, match="antisymmetric"):
            perturb_refinement(b, IntMatrix.from_rows([[0, 1], [1, 0]]), 3)
        with pytest.raises(DimensionMismatch):
            perturb_refinement(b, IntMatrix.identity(1), 2)
        # entries are read mod 1: 1/2 + 1/2 = 0 and a diagonal 2/2 both vanish
        shifted = perturb_refinement(b, IntMatrix.from_rows([[2, 1], [1, 0]]), 2)
        assert frac1_rows(shifted) == ((ZERO, ZERO), (HALF, ZERO))


class TestBraidingPhase:
    def test_zero_vector(self):
        b = standard_refinement(quarter_square())
        assert braiding_phase(b, (0,), (5,)) == ZERO

    def test_rank_one(self):
        b = standard_refinement(quarter_square())
        assert braiding_phase(b, (1,), (2,)) == HALF

    def test_lower_triangle_is_zero(self):
        b = standard_refinement(rank2_halfpair())
        assert braiding_phase(b, (0, 1), (1, 0)) == ZERO

    def test_dimension_guard(self):
        b = standard_refinement(quarter_square())
        with pytest.raises(DimensionMismatch):
            braiding_phase(b, (1, 0), (1,))

    def test_matches_per_entry_sum(self):
        # one integer sum over beta's common denominator against one Frac1 per term
        rng = random.Random("braiding-integer")
        for rank in range(5):
            for _ in range(20):
                den = rng.randint(1, 12)
                c = rand_matrix(rng, rank, rank, -5, 5)
                zeta = Frac1(rng.randrange(den), den)
                q = quad_from_bilinear(BilinearData(c, zeta))
                eps = [[ZERO] * rank for _ in range(rank)]
                for i in range(rank):
                    for j in range(i + 1, rank):
                        eps[i][j] = Frac1(rng.randint(-30, 30), rng.randint(1, 12))
                        eps[j][i] = -eps[i][j]
                # the standard refinement's values zeta c_ii on the diagonal and
                # zeta (c_ij + c_ji) above it, shifted by eps
                upper = [
                    [c.entry(i, j) + c.entry(j, i) if i < j else 0 for j in range(rank)]
                    for i in range(rank)
                ]
                for i in range(rank):
                    upper[i][i] = c.entry(i, i)
                beta = [
                    [eps[i][j] + zeta.scale(x) for j, x in enumerate(row)]
                    for i, row in enumerate(upper)
                ]
                b = perturb_refinement(standard_refinement(q), *over_lcm(eps))
                for _ in range(5):
                    lam = [rng.randint(-2**70, 2**70) for _ in range(rank)]
                    mu = [rng.choice((0, 1, -3, rng.randint(-2**70, 2**70))) for _ in range(rank)]
                    assert braiding_phase(b, lam, mu) == frac1_bilinear(beta, lam, mu)

    def test_common_denominator_and_numerators(self):
        q = quad_from_bilinear(BilinearData(IntMatrix.from_rows([[1, 1], [0, 2]]), Frac1(1, 6)))
        b = standard_refinement(q)  # beta = [[1/6, 1/6], [0, 1/3]]
        assert b.denominator == 6
        assert b.numerators == IntMatrix.from_rows([[1, 1], [0, 2]])
        shifted = perturb_refinement(b, IntMatrix.from_rows([[0, 1], [-1, 0]]), 4)
        assert shifted.denominator == 12
        assert shifted.numerators == IntMatrix.from_rows([[2, 5], [9, 4]])
        again = perturb_refinement(b, IntMatrix.zeros(2, 2), 1)
        assert fields(again) == fields(b)


class TestDoubleBraiding:
    def test_zero_argument(self):
        b = standard_refinement(rank2_halfpair())
        assert double_braiding(b, (3, -2), (0, 0)) == ZERO

    def test_rank_one_equals_polarization(self):
        b = standard_refinement(quarter_square())
        assert double_braiding(b, (1,), (1,)) == HALF

    def test_rank_two_example(self):
        b = standard_refinement(rank2_halfpair())
        assert double_braiding(b, (1, 0), (0, 1)) == HALF

    def test_refinement_independence_exhaustive(self):
        # the double braiding must see only the polarization, never the choice
        # of refinement: quantify over antisymmetric perturbations
        rng = random.Random(17)
        for r in (1, 2, 3):
            c = rand_matrix(rng, r, r, -2, 2)
            q = quad_from_bilinear(BilinearData(c, Frac1(1, 5)))
            pol = polarize(q)
            base = standard_refinement(q)
            vecs = list(product(range(-1, 2), repeat=r))
            for eps in antisym_perturbations(r):
                b = perturb_refinement(base, *eps)
                for lam in vecs:
                    for mu in vecs:
                        assert double_braiding(b, lam, mu) == pol.evaluate(lam, mu)

    def test_polarization_rank_two_example(self):
        q = rank2_halfpair()
        assert polarize(q).evaluate((1, 0), (0, 1)) == HALF


class TestTwist:
    def test_zero(self):
        assert twist(standard_refinement(quarter_square()), (0,)) == ZERO

    def test_quarter_square_at_three(self):
        assert twist(standard_refinement(quarter_square()), (3,)) == QUARTER

    def test_linear_level(self):
        q = quadratic_form((HALF,), ())  # Q(n) = n/2
        assert twist(standard_refinement(q), (1,)) == HALF

    def test_depends_only_on_form(self):
        rng = random.Random(19)
        q = quad_from_bilinear(BilinearData(rand_matrix(rng, 2, 2, -3, 3), Frac1(1, 6)))
        base = standard_refinement(q)
        for eps in antisym_perturbations(2, dens=(3,), bound=1):
            b = perturb_refinement(base, *eps)
            for lam in product(range(-2, 3), repeat=2):
                assert twist(b, lam) == evaluate(q, lam)

    def test_additive_in_the_level(self):
        rng = random.Random(23)
        for _ in range(20):
            r = rng.randint(1, 2)
            c1, c2 = rand_matrix(rng, r, r, -2, 2), rand_matrix(rng, r, r, -2, 2)
            zeta = Frac1(1, rng.randint(1, 6))
            q1 = quad_from_bilinear(BilinearData(c1, zeta))
            q2 = quad_from_bilinear(BilinearData(c2, zeta))
            b1, b2, b12 = map(standard_refinement, (q1, q2, q1 + q2))
            for lam in product(range(-2, 3), repeat=r):
                assert twist(b12, lam) == twist(b1, lam) + twist(b2, lam)


def test_balancing_identity():
    # theta(lam + mu) - theta(lam) - theta(mu) is the double braiding; at
    # (1, 1) on the quarter square, theta(2) - 2*theta(1) = 0 - 1/2 = 1/2 = b(1, 1)
    b = standard_refinement(quarter_square())
    cases = [(b, (1,), (0,)), (b, (1,), (1,))]
    rng = random.Random(29)
    for _ in range(300):
        r = rng.randint(1, 4)
        q = quad_from_bilinear(BilinearData(rand_matrix(rng, r, r, -3, 3), Frac1(1, rng.randint(1, 12))))
        bd = standard_refinement(q)
        lam1 = tuple(rng.randint(-3, 3) for _ in range(r))
        lam2 = tuple(rng.randint(-3, 3) for _ in range(r))
        cases.append((bd, lam1, lam2))
    for bd, lam, mu in cases:
        lam_mu = tuple(x + y for x, y in zip(lam, mu))
        assert twist(bd, lam_mu) - twist(bd, lam) - twist(bd, mu) == double_braiding(bd, lam, mu)


def assert_additive_in_each_slot(phase, b, triples):
    """The hexagon identities of a pointed braided category: ``phase`` is
    additive in its first and in its second slot on every triple."""
    for l1, l2, l3 in triples:
        s12 = tuple(x + y for x, y in zip(l1, l2))
        s23 = tuple(x + y for x, y in zip(l2, l3))
        assert phase(b, s12, l3) == phase(b, l1, l3) + phase(b, l2, l3)
        assert phase(b, l1, s23) == phase(b, l1, l2) + phase(b, l1, l3)


class TestHexagon:
    @staticmethod
    def seeded_triples():
        vecs = list(product(range(-2, 3), repeat=2))
        rng = random.Random(31)
        return [(rng.choice(vecs), rng.choice(vecs), rng.choice(vecs)) for _ in range(500)]

    def test_trivial(self):
        b = standard_refinement(rank2_halfpair())
        assert_additive_in_each_slot(braiding_phase, b, [((0, 0),) * 3])

    def test_holds_for_bilinear_phases(self):
        b = standard_refinement(rank2_halfpair())
        assert_additive_in_each_slot(braiding_phase, b, self.seeded_triples())

    def test_corrupted_phase_fails_somewhere(self):
        b = standard_refinement(rank2_halfpair())

        def corrupted(data, lam, mu):
            bad = QUARTER if lam == (1, 0) else ZERO
            return braiding_phase(data, lam, mu) + bad

        with pytest.raises(AssertionError):
            assert_additive_in_each_slot(corrupted, b, self.seeded_triples())
