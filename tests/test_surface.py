import random

import pytest

from qtorus import (
    FgAbGroup,
    IntMatrix,
    LatticeLocalSystem,
    SurfaceGroup,
    build_complex,
    cohomology_presentations,
    fox_derivative,
    invariants_coinvariants_check,
    twisted_cohomology,
)
from qtorus.lattice import hstack
from qtorus.errors import (
    BadGeneratorIndex,
    DimensionMismatch,
    NonUnimodular,
    RelationViolated,
)

from helpers import _int_power, rand_unimodular, random_local_system


def sign_rep():
    """Genus 1, rank 1, rho(a) = 1, rho(b) = -1."""
    one = IntMatrix.from_rows([[1]])
    return LatticeLocalSystem(1, 1, [one, IntMatrix.from_rows([[-1]])])


class TestSurfaceGroup:
    def test_relator_genus_one(self):
        assert SurfaceGroup(1).relator() == (1, 2, -1, -2)

    def test_relator_genus_two(self):
        assert SurfaceGroup(2).relator() == (1, 2, -1, -2, 3, 4, -3, -4)

    def test_genus_zero(self):
        g = SurfaceGroup(0)
        assert g.num_generators == 0
        assert g.relator() == ()

    def test_negative_genus(self):
        with pytest.raises(DimensionMismatch):
            SurfaceGroup(-1)


class TestLocalSystemValidation:
    def test_wrong_count(self):
        with pytest.raises(DimensionMismatch):
            LatticeLocalSystem(1, 1, [IntMatrix.identity(1)])

    def test_non_unimodular(self):
        two = IntMatrix.from_rows([[2]])
        with pytest.raises(NonUnimodular):
            LatticeLocalSystem(1, 1, [two, IntMatrix.identity(1)])

    def test_relation_violated(self):
        # rho(a), rho(b) non-commuting unimodular pair
        p = IntMatrix.from_rows([[1, 1], [0, 1]])
        q = IntMatrix.from_rows([[1, 0], [1, 1]])
        with pytest.raises(RelationViolated):
            LatticeLocalSystem(2, 1, [p, q])

    def test_relation_violated_by_last_handle_only(self):
        # two handles (T, T^k) satisfy the relation; the third is a
        # noncommuting pair, so only the last commutator is nontrivial
        rng = random.Random(37)
        t = rand_unimodular(rng, 2)
        p = IntMatrix.from_rows([[1, 1], [0, 1]])
        q = IntMatrix.from_rows([[1, 0], [1, 1]])
        good = [t, _int_power(t, 2), IntMatrix.identity(2), t]
        LatticeLocalSystem(2, 2, good)
        with pytest.raises(RelationViolated):
            LatticeLocalSystem(2, 3, good + [p, q])

    def test_letter_lookup(self):
        rho = sign_rep()
        assert rho.matrix(1) == IntMatrix.identity(1)
        assert rho.matrix(-2) == IntMatrix.from_rows([[-1]])
        with pytest.raises(BadGeneratorIndex):
            rho.matrix(0)
        with pytest.raises(BadGeneratorIndex):
            rho.matrix(3)

    def test_word_matrix_inverts(self):
        rng = random.Random(5)
        rho = random_local_system(rng, 2, 2)
        w = (1, 3, -2, 4, -1)
        back = tuple(-x for x in reversed(w))
        assert rho.word_matrix(w) @ rho.word_matrix(back) == IntMatrix.identity(2)


class TestFoxDerivative:
    def test_single_positive_letter(self):
        rho = LatticeLocalSystem.trivial(2, 1)
        assert fox_derivative((1,), 0, rho) == IntMatrix.identity(2)

    def test_single_negative_letter(self):
        rho = sign_rep()
        # d/db (b^-1) = -rho(b)^-1 = 1 here since rho(b) = -1
        assert fox_derivative((-2,), 1, rho) == IntMatrix.from_rows([[1]])

    def test_trivial_relator_vanishes(self):
        rho = LatticeLocalSystem.trivial(3, 1)
        rel = SurfaceGroup(1).relator()
        for j in range(2):
            assert fox_derivative(rel, j, rho).is_zero()

    def test_sign_rep_relator(self):
        rho = sign_rep()
        rel = SurfaceGroup(1).relator()
        assert fox_derivative(rel, 0, rho) == IntMatrix.from_rows([[2]])
        assert fox_derivative(rel, 1, rho) == IntMatrix.from_rows([[0]])

    def test_product_rule(self):
        # d(uv) = du + rho(u) dv, checked on a random splitting
        rng = random.Random(7)
        rho = random_local_system(rng, 2, 2)
        word = (1, -3, 2, 4, -1, 3)
        u, v = word[:3], word[3:]
        for j in range(4):
            whole = fox_derivative(word, j, rho)
            split = fox_derivative(u, j, rho) + rho.word_matrix(u) @ fox_derivative(v, j, rho)
            assert whole == split

    def test_bad_index(self):
        rho = sign_rep()
        with pytest.raises(BadGeneratorIndex):
            fox_derivative((1,), 2, rho)


class TestComplex:
    def test_trivial_coefficients(self):
        cx = build_complex(LatticeLocalSystem.trivial(2, 1))
        assert cx.d0.is_zero() and cx.d1.is_zero()
        assert (cx.d0.rows, cx.d0.cols) == (4, 2)
        assert (cx.d1.rows, cx.d1.cols) == (2, 4)

    def test_sign_rep_differentials(self):
        cx = build_complex(sign_rep())
        assert cx.d0 == IntMatrix.from_rows([[0], [-2]])
        assert cx.d1 == IntMatrix.from_rows([[2, 0]])

    def test_composite_vanishes(self):
        rng = random.Random(11)
        for _ in range(25):
            g, r = rng.randint(1, 2), rng.randint(1, 3)
            cx = build_complex(random_local_system(rng, g, r))
            assert (cx.d1 @ cx.d0).is_zero()

    def test_genus_zero_complex(self):
        cx = build_complex(LatticeLocalSystem.trivial(3, 0))
        assert (cx.d0.rows, cx.d1.cols) == (0, 0)


class TestCohomology:
    def test_trivial_coefficients_all_small(self):
        for g in range(1, 4):
            for r in range(1, 4):
                h = twisted_cohomology(LatticeLocalSystem.trivial(r, g))
                assert h.h0 == FgAbGroup(r)
                assert h.h1 == FgAbGroup(2 * g * r)
                assert h.h2 == FgAbGroup(r)

    def test_sign_rep(self):
        h = twisted_cohomology(sign_rep())
        assert h.h0 == FgAbGroup(0)
        assert h.h1 == FgAbGroup(0, (2,))
        assert h.h2 == FgAbGroup(0, (2,))

    def test_genus_zero(self):
        h = twisted_cohomology(LatticeLocalSystem.trivial(2, 0))
        assert h == (FgAbGroup(2), FgAbGroup(0), FgAbGroup(2))

    def test_euler_characteristic(self):
        rng = random.Random(13)
        for _ in range(60):
            g, r = rng.randint(1, 2), rng.randint(1, 3)
            rho = random_local_system(rng, g, r)
            h = twisted_cohomology(rho)
            assert h.h0.free_rank - h.h1.free_rank + h.h2.free_rank == (2 - 2 * g) * r

    def test_conjugation_invariance(self):
        rng = random.Random(17)
        from helpers import rand_unimodular

        for _ in range(20):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            t = rand_unimodular(rng, r)
            from qtorus import inverse_unimodular

            ti = inverse_unimodular(t)
            conj = LatticeLocalSystem(r, g, [t @ m @ ti for m in rho.mon])
            assert twisted_cohomology(rho) == twisted_cohomology(conj)

    def test_torsion_matches_dual_system(self):
        # H^1 torsion is invariant under rho -> transpose-inverse
        rng = random.Random(19)
        from qtorus import inverse_unimodular

        for _ in range(20):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            dual = LatticeLocalSystem(
                r, g, [inverse_unimodular(m).transpose() for m in rho.mon]
            )
            a, b = twisted_cohomology(rho).h1, twisted_cohomology(dual).h1
            assert a.torsion == b.torsion

    def test_invariants_coinvariants(self):
        rng = random.Random(23)
        assert invariants_coinvariants_check(sign_rep(), twisted_cohomology(sign_rep()))
        for _ in range(40):
            g, r = rng.randint(1, 2), rng.randint(1, 3)
            rho = random_local_system(rng, g, r)
            assert invariants_coinvariants_check(rho, twisted_cohomology(rho))


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


def altered(g):
    """Groups that differ from ``g`` in free rank or in torsion."""
    out = [
        FgAbGroup(g.free_rank + 1, g.torsion),
        FgAbGroup(g.free_rank, g.torsion + (2 * g.torsion[-1] if g.torsion else 2,)),
    ]
    if g.free_rank:
        out.append(FgAbGroup(g.free_rank - 1, g.torsion))
    return out


class TestGroupsOnlyRoute:
    @pytest.mark.parametrize("family", ["trivial", "sign", "shear", "pair"])
    def test_matches_presentations(self, family):
        # twisted_cohomology reads H^1 without generators; the presentations
        # route reads it through generator representatives
        rng = random.Random(f"groups-{family}")
        torsion = 0
        for genus in range(1, 5):
            for rank in range(1, 5):
                rho = family_system(rng, family, genus, rank)
                h = twisted_cohomology(rho)
                assert h == cohomology_presentations(rho).triple
                assert invariants_coinvariants_check(rho, h)
                torsion += bool(h.h1.torsion or h.h2.torsion)
        if family == "sign":
            assert torsion >= 8

    def test_check_rejects_altered_h0_or_h2(self):
        rng = random.Random(31)
        systems = [sign_rep(), LatticeLocalSystem.trivial(2, 2)]
        systems += [family_system(rng, f, 2, 3) for f in ("sign", "shear", "pair")]
        for rho in systems:
            h = twisted_cohomology(rho)
            assert invariants_coinvariants_check(rho, h)
            for wrong in altered(h.h0):
                assert not invariants_coinvariants_check(rho, h._replace(h0=wrong))
            for wrong in altered(h.h2):
                assert not invariants_coinvariants_check(rho, h._replace(h2=wrong))


class TestSingleWalk:
    @pytest.mark.parametrize("family", ["trivial", "sign", "shear", "pair"])
    def test_d1_matches_fox_derivatives(self, family):
        # build_complex sums the stored letter transports; fox_derivative
        # walks the relator again for each generator
        rng = random.Random(f"walk-{family}")
        for genus in range(5):
            for rank in range(1, 5):
                rho = family_system(rng, family, genus, rank)
                relator = SurfaceGroup(genus).relator()
                if genus:
                    fox = hstack([fox_derivative(relator, j, rho) for j in range(2 * genus)])
                else:
                    fox = IntMatrix.zeros(rank, 0)
                assert build_complex(rho).d1 == fox


class TestPresentations:
    def test_generators_are_cocycles(self):
        rng = random.Random(29)
        for _ in range(15):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            pres = cohomology_presentations(random_local_system(rng, g, r))
            d1 = pres.complex.d1
            for vec in pres.h1.all_gens():
                col = IntMatrix.from_columns([vec], rows=len(vec))
                assert (d1 @ col).is_zero()

    def test_h0_basis_is_invariant(self):
        pres = cohomology_presentations(LatticeLocalSystem.trivial(2, 1))
        assert pres.h0_basis.cols == 2
        assert (pres.complex.d0 @ pres.h0_basis).is_zero()

    def test_counts_match_groups(self):
        pres = cohomology_presentations(sign_rep())
        assert pres.triple.h1 == FgAbGroup(0, (2,))
        assert len(pres.h1.all_gens()) == pres.triple.h1.free_rank + len(pres.triple.h1.torsion)
