import math
import random

import pytest

from qtorus import (
    BilinearData,
    FgAbGroup,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    LevelInput,
    block_report,
    bunt_report,
    cohomology_presentations,
    commutator_pairing,
    enumerate_components,
    pairing_on_cocycles,
    pi2_character,
    section_space,
)
from qtorus.errors import BadComponent, DimensionMismatch, InvariantViolation, NotInvariant
from qtorus.forms import HALF, ZERO, SymmetricForm
from qtorus.lattice import inverse_unimodular

from helpers import rand_unimodular, random_invariant_level, random_local_system


def trivial_level(genus, rank, zeta_den, c=None):
    rho = LatticeLocalSystem.trivial(rank, genus)
    if c is None:
        c = IntMatrix.identity(rank)
    return LevelInput(BilinearData(c, Frac1(1, zeta_den)), rho)


def sign_rep():
    return LatticeLocalSystem(
        1, 1, [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])]
    )


class TestSectionSpace:
    def test_trivial_genus_one(self):
        s = section_space(LatticeLocalSystem.trivial(1, 1))
        assert (s.pi0, s.pi1, s.pi2) == (FgAbGroup(1), FgAbGroup(2), FgAbGroup(1))

    def test_trivial_genus_two_rank_two(self):
        s = section_space(LatticeLocalSystem.trivial(2, 2))
        assert (s.pi0, s.pi1, s.pi2) == (FgAbGroup(2), FgAbGroup(8), FgAbGroup(2))

    def test_sign_rep_orders_the_degrees(self):
        # pi0 reads top cohomology, pi2 reads invariants
        s = section_space(sign_rep())
        assert s.pi0 == FgAbGroup(0, (2,))
        assert s.pi1 == FgAbGroup(0, (2,))
        assert s.pi2 == FgAbGroup(0)


class TestLevelInput:
    def test_rank_mismatch(self):
        rho = LatticeLocalSystem.trivial(2, 1)
        with pytest.raises(DimensionMismatch):
            LevelInput(BilinearData(IntMatrix.identity(1), HALF), rho)

    def test_not_invariant(self):
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        rho = LatticeLocalSystem(2, 1, [swap, IntMatrix.identity(2)])
        c = IntMatrix.from_rows([[1, 0], [0, 0]])
        with pytest.raises(NotInvariant):
            LevelInput(BilinearData(c, Frac1(1, 3)), rho)

    def test_invariant_accepted(self):
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        rho = LatticeLocalSystem(2, 1, [swap, IntMatrix.identity(2)])
        level = LevelInput(BilinearData(IntMatrix.identity(2), Frac1(1, 3)), rho)
        assert level.pairing.rank == 2


class TestPairingOnCocycles:
    def test_symplectic_shape_genus_one(self):
        # trivial coefficients: the two loops pair by the polarization
        level = trivial_level(1, 1, 3)
        p, rho = level.pairing, level.rho
        assert pairing_on_cocycles(p, rho, (1, 0), (0, 1)) == Frac1(2, 3)
        assert pairing_on_cocycles(p, rho, (0, 1), (1, 0)) == Frac1(1, 3)
        assert pairing_on_cocycles(p, rho, (1, 0), (1, 0)) == ZERO

    def test_genus_two_is_a_direct_sum(self):
        level = trivial_level(2, 1, 4)
        p, rho = level.pairing, level.rho
        val = p.evaluate((1,), (1,))
        for i in range(4):
            for j in range(4):
                got = pairing_on_cocycles(p, rho, unit4(i), unit4(j))
                if (i, j) == (0, 1) or (i, j) == (2, 3):
                    assert got == val
                elif (i, j) == (1, 0) or (i, j) == (3, 2):
                    assert got == -val
                else:
                    assert got == ZERO

    def test_zero_level_kills_everything(self):
        level = trivial_level(1, 2, 1)  # zeta = 1/1 = 0 in Q/Z
        p, rho = level.pairing, level.rho
        for u in ((1, 0, 0, 0), (0, 1, 1, 0)):
            for v in ((0, 0, 0, 1), (1, 1, 1, 1)):
                assert pairing_on_cocycles(p, rho, u, v) == ZERO

    def test_wrong_length(self):
        level = trivial_level(1, 1, 2)
        with pytest.raises(DimensionMismatch):
            pairing_on_cocycles(level.pairing, level.rho, (1,), (0, 1))

    def test_matches_simplicial_route(self):
        from qtorus import class_of, cup_evaluate, triangulate

        rng = random.Random(41)
        for _ in range(12):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = LevelInput(random_invariant_level(rng, rho), rho)
            t = triangulate(g)
            gens = cohomology_presentations(rho).h1.all_gens()
            for u in gens:
                for v in gens:
                    fast = pairing_on_cocycles(level.pairing, rho, u, v)
                    slow = cup_evaluate(
                        class_of(u, t, rho), class_of(v, t, rho), level.pairing, t, rho
                    )
                    assert fast == slow


def family_level(rng, family, genus, rank):
    """A level with a nonzero phase, invariant under trivial, sign or shear monodromy."""
    den = rng.randint(2, 6)
    zeta = Frac1(rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1]), den)
    c = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    eye = [[int(i == j) for j in range(rank)] for i in range(rank)]
    if family == "trivial":
        mats = [IntMatrix.from_rows(eye)] * (2 * genus)
    elif family == "sign":
        signs = [[rng.choice((1, -1)) for _ in range(rank)] for _ in range(2 * genus)]
        # a flip of e_i alone negates b(e_i, e_j), so that value must be 0 or 1/2
        for i in range(rank):
            for j in range(i + 1, rank):
                if any(s[i] != s[j] for s in signs):
                    half = den // 2 if den % 2 == 0 and rng.random() < 0.5 else 0
                    c[j][i] = -c[i][j] + half
        mats = [
            IntMatrix(rank, rank, [s[i] if i == j else 0 for i in range(rank) for j in range(rank)])
            for s in signs
        ]
    else:
        # commuting shears e_j -> e_j + a_j e_0, in a random basis; the form is
        # invariant when every term touching e_0 is an integer (rank 1 has no shear)
        shears = []
        for _ in range(2 * genus):
            m = [row[:] for row in eye]
            m[0][1:] = [rng.randint(-3, 3) for _ in range(rank - 1)]
            shears.append(IntMatrix.from_rows(m))
        if rank > 1:
            c[0][0] = den * rng.randint(-1, 1)
        for j in range(1, rank):
            c[j][0] = -c[0][j] + den * rng.randint(-1, 1)
        t = rand_unimodular(rng, rank)
        t_inv = inverse_unimodular(t)
        mats = [t @ m @ t_inv for m in shears]
        c = (t_inv.transpose() @ IntMatrix.from_rows(c) @ t_inv).row_lists()
    rho = LatticeLocalSystem(rank, genus, mats)
    return LevelInput(BilinearData(IntMatrix.from_rows(c), zeta), rho)


class TestGramRoute:
    @pytest.mark.parametrize("family", ["trivial", "sign", "shear"])
    def test_matches_per_pair_reference(self, family):
        rng = random.Random(f"gram-{family}")
        nonzero = 0
        for genus in range(1, 5):
            for rank in range(1, 4):
                level = family_level(rng, family, genus, rank)
                gens = cohomology_presentations(level.rho).h1.all_gens()
                reference = tuple(
                    tuple(pairing_on_cocycles(level.pairing, level.rho, u, v) for v in gens)
                    for u in gens
                )
                assert commutator_pairing(level) == reference
                assert block_report(level, components=[]).omega == reference
                nonzero += any(x for row in reference for x in row)
        assert nonzero >= 6  # at least half the cases pair nontrivially

    def test_non_invariant_shift_raises(self):
        flip = IntMatrix.from_rows([[1, 0], [0, -1]])
        rho = LatticeLocalSystem(2, 1, [flip, IntMatrix.identity(2)])
        level = LevelInput(BilinearData(IntMatrix.identity(2), Frac1(1, 3)), rho)
        # the flip negates b(e_0, e_1) = 1/3, so b(e_0, (rho(a) - 1) e_1) = -2/3
        level.pairing = SymmetricForm(
            2, ((Frac1(2, 3), Frac1(1, 3)), (Frac1(1, 3), Frac1(2, 3)))
        )
        with pytest.raises(InvariantViolation, match="representative"):
            pi2_character(level, (0, 0))
        with pytest.raises(InvariantViolation, match="representative"):
            block_report(level)


def unit4(i):
    v = [0, 0, 0, 0]
    v[i] = 1
    return tuple(v)


class TestCommutatorPairing:
    def test_genus_one_matrix(self):
        omega = commutator_pairing(trivial_level(1, 1, 3))
        assert omega == (
            (ZERO, Frac1(2, 3)),
            (Frac1(1, 3), ZERO),
        )

    def test_zero_level(self):
        omega = commutator_pairing(trivial_level(2, 1, 1))
        assert all(x == ZERO for row in omega for x in row)

    def test_additive_in_zeta(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        c = IntMatrix.identity(1)
        om3 = commutator_pairing(LevelInput(BilinearData(c, Frac1(1, 3)), rho))
        om4 = commutator_pairing(LevelInput(BilinearData(c, Frac1(1, 4)), rho))
        mixed = commutator_pairing(LevelInput(BilinearData(c, Frac1(1, 3) + Frac1(1, 4)), rho))
        for i in range(2):
            for j in range(2):
                assert mixed[i][j] == om3[i][j] + om4[i][j]

    def test_additive_in_c(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        zeta = Frac1(1, 5)
        c1, c2 = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[3]])
        oma = commutator_pairing(LevelInput(BilinearData(c1, zeta), rho))
        omb = commutator_pairing(LevelInput(BilinearData(c2, zeta), rho))
        omab = commutator_pairing(LevelInput(BilinearData(c1 + c2, zeta), rho))
        for i in range(2):
            for j in range(2):
                assert omab[i][j] == oma[i][j] + omb[i][j]

    def test_sign_rep_torsion_only(self):
        level = LevelInput(BilinearData(IntMatrix.identity(1), HALF), sign_rep())
        omega = commutator_pairing(level)
        assert len(omega) == 1  # H^1 = Z/2: a single torsion generator


class TestPi2Character:
    def test_values_against_polarization(self):
        level = trivial_level(1, 1, 4)  # b(m, n) = mn/2
        assert pi2_character(level, (0,)) == (ZERO,)
        assert pi2_character(level, (1,)) == (HALF,)
        assert pi2_character(level, (-1,)) == (HALF,)

    def test_no_invariants_no_values(self):
        level = LevelInput(BilinearData(IntMatrix.identity(1), HALF), sign_rep())
        assert pi2_character(level, (1,)) == ()

    def test_wrong_length(self):
        with pytest.raises(BadComponent):
            pi2_character(trivial_level(1, 1, 2), (1, 0))

    def test_constant_on_components(self):
        rng = random.Random(43)
        for _ in range(15):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = LevelInput(random_invariant_level(rng, rho), rho)
            d1 = cohomology_presentations(rho).complex.d1
            d = tuple(rng.randint(-2, 2) for _ in range(r))
            w = tuple(rng.randint(-2, 2) for _ in range(d1.cols))
            shifted = tuple(a + b for a, b in zip(d, d1.mul_vec(w)))
            assert pi2_character(level, shifted) == pi2_character(level, d)


class TestBlockStructure:
    def test_zero_level_block(self):
        rep = block_report(trivial_level(1, 1, 1))
        assert rep.block_dim == 1
        assert rep.radical_rank == 2

    def test_dimension_pattern_genus_one(self):
        for n in (1, 2, 3, 5, 8):
            rep = block_report(trivial_level(1, 1, 2 * n))
            assert rep.block_dim == n
            assert rep.radical_rank == (2 if n == 1 else 0)

    def test_dimension_pattern_genus_two(self):
        for n in (2, 3):
            rep = block_report(trivial_level(2, 1, 2 * n))
            assert rep.block_dim == n * n
            assert rep.radical_rank == 0

    def test_brute_force_group_order(self):
        # |(Z/N)^2g| = block_dim^2 * #radical, counting radical vectors directly
        for g, n in ((1, 2), (1, 3), (1, 4), (2, 2)):
            level = trivial_level(g, 1, 2 * n)
            rep = block_report(level)
            f = 2 * g
            from itertools import product as iproduct

            omega = rep.omega
            count = 0
            for v in iproduct(range(n), repeat=f):
                if all(
                    sum_frac(omega[i][j].scale(v[j]) for j in range(f)) == ZERO
                    for i in range(f)
                ):
                    count += 1
            assert rep.block_dim**2 * count == n**f

    def test_components_default_enumeration(self):
        pres = cohomology_presentations(LatticeLocalSystem.trivial(1, 1))
        assert enumerate_components(pres) == [(-1,), (0,), (1,)]
        assert enumerate_components(pres, free_bound=2) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_components_torsion(self):
        pres = cohomology_presentations(sign_rep())
        assert enumerate_components(pres) == [(0,), (1,)]

    def test_explicit_components_order(self):
        rep = block_report(trivial_level(1, 1, 4), components=[(2,), (0,)])
        assert [b.component for b in rep.blocks] == [(2,), (0,)]
        assert rep.blocks[0].pi2_character == (ZERO,)  # b(1, 2) = 1 = 0 mod 1

    def test_bad_component_length(self):
        with pytest.raises(BadComponent):
            block_report(trivial_level(1, 1, 2), components=[(1, 0)])

    def test_blocks_share_level_data(self):
        rep = block_report(trivial_level(1, 1, 6))
        for b in rep.blocks:
            assert b.omega == rep.omega
            assert b.radical_rank == rep.radical_rank
            assert b.block_dim == rep.block_dim


def sum_frac(items):
    total = ZERO
    for x in items:
        total = total + x
    return total


class TestBuntReport:
    def test_groups_match_section_space(self):
        rng = random.Random(47)
        for _ in range(8):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = LevelInput(random_invariant_level(rng, rho), rho)
            space = section_space(rho)
            rep = bunt_report(level)
            assert (rep.pi0, rep.pi1, rep.pi2) == (space.pi0, space.pi1, space.pi2)

    def test_label_and_blocks(self):
        level = trivial_level(1, 1, 4)
        rep = bunt_report(level)
        assert rep.component_label == "first_chern_class"
        assert rep.blocks == block_report(level).blocks
