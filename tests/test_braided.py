import random
from itertools import product

import pytest

from qtorus import braided
from qtorus import (
    BilinearData,
    BraidedData,
    Frac1,
    GradedObject,
    IntMatrix,
    balancing_check,
    braiding_phase,
    double_braiding,
    evaluate,
    fuse,
    hexagon_check,
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
    b = standard_refinement(quarter_square())
    assert balancing_check(b, (1,), (0,))
    # theta(2) - 2*theta(1) = 0 - 1/2 = 1/2 = b(1,1)
    assert balancing_check(b, (1,), (1,))
    rng = random.Random(29)
    for _ in range(300):
        r = rng.randint(1, 4)
        q = quad_from_bilinear(BilinearData(rand_matrix(rng, r, r, -3, 3), Frac1(1, rng.randint(1, 12))))
        bd = standard_refinement(q)
        lam1 = tuple(rng.randint(-3, 3) for _ in range(r))
        lam2 = tuple(rng.randint(-3, 3) for _ in range(r))
        assert balancing_check(bd, lam1, lam2)


class TestHexagon:
    def test_trivial(self):
        b = standard_refinement(rank2_halfpair())
        z = (0, 0)
        assert hexagon_check(b, z, z, z)

    def test_holds_for_bilinear_phases(self):
        b = standard_refinement(rank2_halfpair())
        vecs = list(product(range(-2, 3), repeat=2))
        rng = random.Random(31)
        for _ in range(500):
            l1, l2, l3 = rng.choice(vecs), rng.choice(vecs), rng.choice(vecs)
            assert hexagon_check(b, l1, l2, l3)

    def test_corrupted_phase_fails_somewhere(self, monkeypatch):
        b = standard_refinement(rank2_halfpair())

        def corrupted(data, lam, mu):
            bad = QUARTER if lam == (1, 0) else ZERO
            return braiding_phase(data, lam, mu) + bad

        monkeypatch.setattr(braided, "braiding_phase", corrupted)
        vecs = list(product(range(-2, 3), repeat=2))
        assert not all(
            hexagon_check(b, l1, l2, l3)
            for l1 in vecs
            for l2 in vecs
            for l3 in vecs[:5]
        )


class TestFuse:
    def test_unit_law(self):
        unit = GradedObject(2, {(0, 0): 1})
        w = GradedObject(2, {(1, 0): 2, (0, 3): 1})
        assert fields(fuse(unit, w)) == fields(w)
        assert fields(fuse(w, unit)) == fields(w)

    def test_single_lines_add(self):
        v = GradedObject(1, {(1,): 1})
        assert fields(fuse(v, v)) == fields(GradedObject(1, {(2,): 1}))

    def test_convolution(self):
        v = GradedObject(1, {(0,): 1, (1,): 2})
        w = GradedObject(1, {(1,): 3})
        assert fields(fuse(v, w)) == fields(GradedObject(1, {(1,): 3, (2,): 6}))

    def test_commutative_and_associative(self):
        rng = random.Random(37)
        for _ in range(25):
            objs = []
            for _ in range(3):
                support = {
                    tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(1, 3)
                    for _ in range(rng.randint(1, 4))
                }
                objs.append(GradedObject(2, support))
            a, b, c = objs
            assert fields(fuse(a, b)) == fields(fuse(b, a))
            assert fields(fuse(fuse(a, b), c)) == fields(fuse(a, fuse(b, c)))

    def test_rank_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fuse(GradedObject(1, {(1,): 1}), GradedObject(2, {(1, 0): 1}))

    def test_multiplicity_validation(self):
        with pytest.raises(Exception):
            GradedObject(1, {(0,): 0})

    def test_entries_must_be_integers(self):
        # a float or bool entry is refused, not truncated to an int
        for support in ({(2.7,): 1}, {(True,): 1}, {(1,): 1.5}, {(1,): True}):
            with pytest.raises(ShapeMismatch):
                GradedObject(1, support)
        assert GradedObject(2, {(2, -3): 4}).support == {(2, -3): 4}
