import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    BilinearData,
    FgAbGroup,
    Frac1,
    GerbeBlock,
    IntMatrix,
    LatticeLocalSystem,
    LevelInput,
    block_report,
    cohomology_presentations,
    enumerate_components,
)
from qtorus import gerbe, selfcheck
from qtorus.errors import BadComponent, DimensionMismatch, InvariantViolation, NotInvariant
from qtorus.errors import ShapeMismatch
from qtorus.forms import HALF, ZERO, SymmetricForm, polarize, quad_from_bilinear
from qtorus.gerbe import _heisenberg_dimensions, omega_numerators
from qtorus.lattice import inverse_unimodular, smith_normal_form

from helpers import (
    closed,
    components_by_product,
    dense_omega_numerators,
    densify,
    family_system,
    fraction_det,
    fraction_rank,
    global_json,
    groups_json,
    heisenberg_by_smith,
    omega_closed,
    omega_of,
    pairing_gram_by_letters,
    pairing_on_cocycles_per_term,
    rand_matrix,
    rand_unimodular,
    random_invariant_level,
    random_local_system,
)


def trivial_level(genus, rank, zeta_den, c=None):
    rho = LatticeLocalSystem.trivial(rank, genus)
    if c is None:
        c = IntMatrix.identity(rank)
    return LevelInput(BilinearData(c, Frac1(1, zeta_den)), rho)


def sign_rep():
    return LatticeLocalSystem(
        1, 1, [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])]
    )


def chi_of(level, component):
    rep = block_report(level, components=[component])
    return closed(rep, rep.blocks[0].pi2_character)


def section_space_json(level):
    """The pi_n groups a global report writes, as (pi0, pi1, pi2)."""
    s = global_json("global", level, components=[])["section_space"]
    groups = (s[k] for k in ("pi0", "pi1", "pi2"))
    return tuple(FgAbGroup(g["free_rank"], tuple(g["torsion"])) for g in groups)


class TestSectionSpace:
    def test_trivial_genus_one(self):
        s = section_space_json(trivial_level(1, 1, 2))
        assert s == (FgAbGroup(1), FgAbGroup(2), FgAbGroup(1))

    def test_trivial_genus_two_rank_two(self):
        s = section_space_json(trivial_level(2, 2, 2))
        assert s == (FgAbGroup(2), FgAbGroup(8), FgAbGroup(2))

    def test_sign_rep_orders_the_degrees(self):
        # pi0 reads top cohomology, pi2 reads invariants
        s = section_space_json(LevelInput(BilinearData(IntMatrix.identity(1), HALF), sign_rep()))
        assert s == (FgAbGroup(0, (2,)), FgAbGroup(0, (2,)), FgAbGroup(0))


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

    def test_no_elimination_on_an_inverted_local_system(self, monkeypatch):
        # the local system inverted every generator once at construction, which
        # proved them unimodular; the invariance check does not eliminate again
        from qtorus import lattice

        rng = random.Random(48)
        rho = random_local_system(rng, 2, 2)
        bilinear = random_invariant_level(rng, rho)
        calls = []
        gauss_jordan = lattice._gauss_jordan

        def counting(a):
            calls.append(a)
            return gauss_jordan(a)

        monkeypatch.setattr(lattice, "_gauss_jordan", counting)
        LevelInput(bilinear, rho)
        assert calls == []
        LatticeLocalSystem(rho.rank, rho.genus, rho.mon)
        assert len(calls) == 2 * rho.genus  # the spy sees construction's inversions


def closed_form(pairing, rho, u, v):
    """omega(u, v) from the package's one closed form: entry (0, 1) of W on [u, v]."""
    return Frac1(densify(omega_numerators(rho, pairing, [u, v])).entry(0, 1), pairing.denominator)


class TestPairingOnCocycles:
    def test_symplectic_shape_genus_one(self):
        # trivial coefficients: the two loops pair by the polarization
        level = trivial_level(1, 1, 3)
        p, rho = level.pairing, level.rho
        assert closed_form(p, rho, (1, 0), (0, 1)) == Frac1(2, 3)
        assert closed_form(p, rho, (0, 1), (1, 0)) == Frac1(1, 3)
        assert closed_form(p, rho, (1, 0), (1, 0)) == ZERO

    def test_genus_two_is_a_direct_sum(self):
        level = trivial_level(2, 1, 4)
        p, rho = level.pairing, level.rho
        val = p.evaluate((1,), (1,))
        for i in range(4):
            for j in range(4):
                got = closed_form(p, rho, unit4(i), unit4(j))
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
                assert closed_form(p, rho, u, v) == ZERO

    def test_matches_simplicial_route(self):
        from qtorus import class_of, cup_evaluate, triangulate

        rng = random.Random(41)
        for _ in range(12):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = LevelInput(random_invariant_level(rng, rho), rho)
            t = triangulate(g)
            gens = cohomology_presentations(rho).h1.all_gens()
            w = densify(omega_numerators(rho, level.pairing, gens))
            for i, u in enumerate(gens):
                for j, v in enumerate(gens):
                    slow = cup_evaluate(
                        class_of(u, t, rho), class_of(v, t, rho), level.pairing, t, rho
                    )
                    assert Frac1(w.entry(i, j), level.pairing.denominator) == slow


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
    def test_matches_per_term_formula(self, family):
        # u^T P v / N against the per-term Frac1 walk, on H^1 generators and on
        # arbitrary vectors (the formula is bilinear, not only on cocycles)
        rng = random.Random(f"letters-{family}")
        for genus in range(1, 5):
            for rank in range(1, 4):
                level = family_level(rng, family, genus, rank)
                rho, p = level.rho, level.pairing
                n = 2 * genus * rank
                vectors = list(cohomology_presentations(rho).h1.all_gens()[:3])
                vectors += [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3)]
                w = densify(omega_numerators(rho, p, vectors))
                for i, u in enumerate(vectors):
                    for j, v in enumerate(vectors):
                        got = Frac1(w.entry(i, j), p.denominator)
                        assert got == pairing_on_cocycles_per_term(p, rho, u, v)

    @pytest.mark.parametrize("family", ["trivial", "sign", "shear"])
    def test_matches_per_pair_reference(self, family):
        rng = random.Random(f"gram-{family}")
        nonzero = 0
        for genus in range(1, 5):
            for rank in range(1, 4):
                level = family_level(rng, family, genus, rank)
                gens = cohomology_presentations(level.rho).h1.all_gens()
                reference = tuple(
                    tuple(
                        pairing_on_cocycles_per_term(level.pairing, level.rho, u, v)
                        for v in gens
                    )
                    for u in gens
                )
                assert omega_of(level) == reference
                nonzero += any(x for row in reference for x in row)
        assert nonzero >= 6  # at least half the cases pair nontrivially

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_the_dense_product(self, data):
        # the row-by-row product against G^T @ P @ G on the same P, on H^1
        # generators and on arbitrary vectors, small or wider than 64 bits
        genus = data.draw(st.integers(0, 4), label="genus")
        rank = data.draw(st.integers(1, 4), label="rank")
        family = data.draw(st.sampled_from(["random", "shear", "sign", "pair"]), label="family")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        if family == "random":
            rho = random_local_system(rng, genus, rank)
        else:
            rho = family_system(rng, family, genus, rank)
        # the product needs no invariance, so any level gives a valid P
        zeta = Frac1(rng.randrange(1, 12), 12)
        pairing = polarize(quad_from_bilinear(BilinearData(rand_matrix(rng, rank, rank, -3, 3), zeta)))
        n = 2 * genus * rank
        entry = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
        vectors = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
        if data.draw(st.booleans(), label="with H^1 generators"):
            vectors = list(cohomology_presentations(rho).h1.all_gens()) + vectors
        w = densify(omega_numerators(rho, pairing, vectors))
        assert w == dense_omega_numerators(rho, pairing, vectors)
        assert densify(omega_numerators(rho, pairing, [])) == IntMatrix(0, 0, ())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_gram_is_linear_in_b(self, data):
        # selfcheck compares the two routes only on a basis of the symmetric
        # B, which covers every level because P, and with it W = G^T P G, is
        # exactly linear in B: on the test families at rank 1-4 and on
        # selfcheck's own, whose shears have rank 1 or 2
        source = data.draw(st.sampled_from(["helpers", "selfcheck"]), label="source")
        genus = data.draw(st.integers(1, 4), label="genus")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        if source == "helpers":
            family = data.draw(st.sampled_from(["trivial", "sign", "shear", "pair"]), label="family")
            rank = data.draw(st.integers(1, 4), label="rank")
            rho = family_system(rng, family, genus, rank)
        else:
            family = data.draw(st.sampled_from(selfcheck._FAMILIES), label="family")
            rank = data.draw(st.integers(1, 2), label="rank")
            rho = selfcheck._local_system(rng, genus, rank, family)
        entry = st.integers(-(2**40), 2**40)

        def symmetric(label):
            upper = data.draw(st.lists(entry, min_size=rank * (rank + 1) // 2,
                                       max_size=rank * (rank + 1) // 2), label=label)
            m = [[0] * rank for _ in range(rank)]
            for (i, j), x in zip(((i, j) for i in range(rank) for j in range(i, rank)), upper):
                m[i][j] = m[j][i] = x
            return IntMatrix.from_rows(m)

        b1, b2 = symmetric("B1"), symmetric("B2")
        k = data.draw(entry, label="k")
        p1, p2 = densify(gerbe._pairing_gram(rho, b1)), densify(gerbe._pairing_gram(rho, b2))
        assert densify(gerbe._pairing_gram(rho, b1 + b2)) == p1 + p2
        kb1 = IntMatrix(rank, rank, [k * x for x in b1.entries])
        assert densify(gerbe._pairing_gram(rho, kb1)) == IntMatrix(p1.rows, p1.cols, [k * x for x in p1.entries])

    @pytest.mark.parametrize("genus", [16, 32])
    @pytest.mark.parametrize("family", ["trivial", "sign", "shear"])
    def test_matches_the_dense_product_at_report_scale(self, family, genus):
        # every H^1 generator of a rank 4 system, as a report pairs them
        rng = random.Random(f"report-{family}-{genus}")
        rho = family_system(rng, family, genus, 4)
        level = BilinearData(rand_matrix(rng, 4, 4, -3, 3), Frac1(rng.randrange(1, 12), 12))
        pairing = polarize(quad_from_bilinear(level))
        gens = cohomology_presentations(rho).h1.all_gens()
        w = densify(omega_numerators(rho, pairing, gens))
        assert w == dense_omega_numerators(rho, pairing, gens)
        assert not w.is_zero()

    def test_matches_the_dense_product_on_edge_supports(self):
        rng = random.Random(29)
        level = BilinearData(rand_matrix(rng, 3, 3, -3, 3), Frac1(5, 12))
        pairing = polarize(quad_from_bilinear(level))
        # f = 0: genus 0 has no coordinates at all
        rho = LatticeLocalSystem.trivial(3, 0)
        cases = [(rho, pairing, []), (rho, pairing, [(), ()])]
        # f = 0: the sign rep's H^1 is a single torsion generator
        sign = LevelInput(BilinearData(IntMatrix.identity(1), HALF), sign_rep())
        pres = cohomology_presentations(sign.rho)
        assert pres.h1.free_gens == () and len(pres.h1.torsion_gens) == 1
        cases.append((sign.rho, sign.pairing, pres.h1.all_gens()))
        # a coordinate that no vector touches, though P's row and column there
        # are nonzero, and a vector given twice
        rho = family_system(rng, "shear", 2, 3)
        p = densify(gerbe._pairing_gram(rho, pairing.numerators))
        assert any(p.row(0)) and any(p.column(0))
        u, v = ([0] + [rng.randint(-3, 3) for _ in range(11)] for _ in range(2))
        cases += [(rho, pairing, vectors) for vectors in ([u, v], [u, v, u], [u, u])]
        for case in cases:
            assert densify(omega_numerators(*case)) == dense_omega_numerators(*case)
        w = densify(omega_numerators(rho, pairing, [u, v, u]))
        assert w.row(0) == w.row(2) and w.column(0) == w.column(2) and not w.is_zero()
        with pytest.raises(ShapeMismatch):
            omega_numerators(rho, pairing, [u, v[:-1]])

    def test_gram_matches_the_letter_walk(self):
        # P walked one handle at a time against the letter-by-letter walk over
        # every row, for any integer B: invariant levels alone would leave
        # B S_j = 0 on the commuting families, and the term that a later
        # generator adds to finished rows would never run
        off_handle = []

        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
            genus = data.draw(st.integers(0, 5), label="genus")
            rank = data.draw(st.integers(1, 4), label="rank")
            family = data.draw(st.sampled_from(["random", "shear", "sign", "pair"]), label="family")
            rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
            if family == "random":
                rho = random_local_system(rng, genus, rank)
            else:
                rho = family_system(rng, family, genus, rank)
            entry = st.integers(-4, 4) | st.integers(-(2**70), 2**70)
            b = IntMatrix(rank, rank, data.draw(st.lists(entry, min_size=rank**2, max_size=rank**2)))
            p = densify(gerbe._pairing_gram(rho, b))
            reference = pairing_gram_by_letters(rho, b)
            assert p == reference
            # a nonzero entry right of its row's handle block comes from a
            # later handle's generator: the off-handle term
            handle = 2 * rank
            off_handle.append(any(
                reference.entry(x, k)
                for x in range(reference.rows)
                for k in range((x // handle + 1) * handle, reference.cols)
            ))

        check()
        assert sum(off_handle) >= 20

    @pytest.mark.parametrize("family", ["trivial", "shear"])
    def test_gram_work_grows_linearly_in_genus(self, monkeypatch, family):
        # the letters of a handle pair only its own 2r rows, at most 5r row
        # pairings per handle (r after b, 2r after each inverse); with B S_j = 0
        # no finished row is paired again. The letter-by-letter walk pairs
        # every nonzero row at every letter, about 4g^2 r row pairings.
        calls = [0]
        pair_row = gerbe._pair_row

        def counting(*args):
            calls[0] += 1
            pair_row(*args)

        monkeypatch.setattr(gerbe, "_pair_row", counting)
        rank = 2
        rng = random.Random(f"gram-work-{family}")
        for genus in (4, 8, 16):
            if family == "trivial":
                rho = LatticeLocalSystem.trivial(rank, genus)
            else:
                # powers of one shear commute, so every handle's commutator is 1
                mats = [IntMatrix.from_rows([[1, rng.randint(-3, 3)], [0, 1]]) for _ in range(2 * genus)]
                rho = LatticeLocalSystem(rank, genus, mats)
            # b(e_0, -) = 0 and Q(e_0) = 0, so the shears preserve the level
            c = IntMatrix.from_rows([[0, 2], [-2, rng.randint(1, 3)]])
            level = LevelInput(BilinearData(c, Frac1(1, 5)), rho)
            calls[0] = 0
            gerbe._pairing_gram(rho, level.pairing.numerators)
            if family == "trivial":
                assert calls[0] == 2 * rank * genus  # letters b and a^-1 pair r rows each
            else:
                assert rank * genus <= calls[0] <= 5 * rank * genus

    def test_non_invariant_shift_raises(self):
        flip = IntMatrix.from_rows([[1, 0], [0, -1]])
        rho = LatticeLocalSystem(2, 1, [flip, IntMatrix.identity(2)])
        level = LevelInput(BilinearData(IntMatrix.identity(2), Frac1(1, 3)), rho)
        # the flip negates b(e_0, e_1) = 1/3, so b(e_0, (rho(a) - 1) e_1) = -2/3
        level.pairing = SymmetricForm(
            2, ((Frac1(2, 3), Frac1(1, 3)), (Frac1(1, 3), Frac1(2, 3)))
        )
        with pytest.raises(InvariantViolation, match="representative"):
            block_report(level, components=[(0, 0)])
        with pytest.raises(InvariantViolation, match="representative"):
            block_report(level)



def shear_job_level(genus, rank, seed):
    """A level of the benchmark's shear-job shape, seeded by the string ``seed``.

    Each generator maps e_j to e_j + a_j e_0 for j > 0, the first with
    a_1 = 1. These shears commute, and every term of c touching e_0 is a
    multiple of the phase's denominator, so b(e_0, -) = 0 and the level is
    invariant.
    """
    rng = random.Random(seed)
    den = rng.randint(2, 6)
    zeta = Frac1(rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1]), den)
    mats = []
    for _ in range(2 * genus):
        m = [[int(i == j) for j in range(rank)] for i in range(rank)]
        m[0][1:] = [rng.randint(-3, 3) for _ in range(rank - 1)]
        mats.append(m)
    mats[0][0][1] = 1
    c = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    c[0][0] = den * rng.randint(-1, 1)
    for j in range(1, rank):
        c[j][0] = -c[0][j] + den * rng.randint(-1, 1)
    rho = LatticeLocalSystem(rank, genus, [IntMatrix.from_rows(m) for m in mats])
    return LevelInput(BilinearData(IntMatrix.from_rows(c), zeta), rho)


class TestSparseStorage:
    # P and W are {column: entry} rows from the relator to the report: at
    # g64 r4 they store what their block structure allows, not the
    # (2gr)^2 = 262 144 entries of a dense P or the f^2 of a dense W
    GENUS, RANK = 64, 4

    def stored(self, level, gens):
        """(entries P stores, entries W stores), after the bounds on both."""
        rho, width = level.rho, 2 * self.RANK
        p = gerbe._pairing_gram(rho, level.pairing.numerators)
        assert len(p) == 2 * self.GENUS * self.RANK
        for x, row in enumerate(p):  # one handle block per row, at most 2r entries
            start = x // width * width
            assert all(start <= k < start + width for k in row)
        w = omega_numerators(rho, level.pairing, gens)
        assert len(w) == len(gens) and sum(map(len, w)) <= width * len(gens)
        return sum(map(len, p)), sum(map(len, w))

    def test_trivial_monodromy(self):
        g, r = self.GENUS, self.RANK
        level = trivial_level(g, r, 6)  # c = I, zeta = 1/6
        gens = cohomology_presentations(level.rho).h1.all_gens()
        p, w = self.stored(level, gens)
        assert p > 0 and w > 0
        # a full B: each letter b and a^-1 pairs r rows with r columns
        full = LevelInput(BilinearData(IntMatrix(r, r, [1] * r * r), Frac1(1, 7)), level.rho)
        assert all(full.pairing.numerators.entries)
        p, w = self.stored(full, gens)
        assert p == r * 2 * g * r

    def test_commuting_shears(self):
        # the benchmark's genus_shear slot 0, variant 0 recipe, at g64 r4
        level = shear_job_level(self.GENUS, self.RANK, "genus_shear:0:0")
        assert not any(level.pairing.numerators.row(0))  # b(e_0, -) = 0
        gens = cohomology_presentations(level.rho).h1.all_gens()
        p, w = self.stored(level, gens)
        assert p > 0 and w > 0


class TestOmegaChecks:
    # _omega reads only W's stored entries, each against its mirror, which
    # reads as 0 when it is missing, and reduces them into zero-filled rows

    @staticmethod
    def omega(monkeypatch, rho, n, w):
        """_omega on ``rho``'s H^1 generators, with omega_numerators returning ``w`` at N = n."""
        monkeypatch.setattr(gerbe, "omega_numerators", lambda rho, pairing, gens: w)
        pairing = SymmetricForm(1, ((Frac1(1, n),),))  # only its denominator is read
        return gerbe._omega(rho, cohomology_presentations(rho), pairing)

    def test_a_missing_entry_whose_mirror_is_nonzero_fails(self, monkeypatch):
        rho = LatticeLocalSystem.trivial(1, 1)  # two free generators
        for w in ([{1: 1}, {}], [{}, {0: 1}]):
            with pytest.raises(InvariantViolation, match="not antisymmetric"):
                self.omega(monkeypatch, rho, 4, w)

    def test_stored_zeros_and_multiples_of_n_pass(self, monkeypatch):
        rho = LatticeLocalSystem.trivial(1, 1)
        for w in ([{0: 0, 1: 4}, {0: -8, 1: 0}], [{1: 4}, {}], [{}, {}], [{0: 4}, {}]):
            assert self.omega(monkeypatch, rho, 4, w) == ((0, 0), (0, 0))
        assert self.omega(monkeypatch, rho, 4, [{1: 5}, {0: -1}]) == ((0, 1), (3, 0))
        assert self.omega(monkeypatch, rho, 4, [{1: -1}, {0: 9}]) == ((0, 3), (1, 0))

    def test_diagonal(self, monkeypatch):
        # a torsion generator's diagonal needs only 2 W[i][i] = 0 mod N; a
        # free one's must be 0 mod N
        rho = sign_rep()  # H^1 = Z/2, one torsion generator
        assert self.omega(monkeypatch, rho, 4, [{0: 2}]) == ((2,),)
        assert self.omega(monkeypatch, rho, 4, [{0: -6}]) == ((2,),)
        with pytest.raises(InvariantViolation, match="not antisymmetric"):
            self.omega(monkeypatch, rho, 4, [{0: 1}])
        with pytest.raises(InvariantViolation, match="nonzero free diagonal"):
            self.omega(monkeypatch, LatticeLocalSystem.trivial(1, 1), 4, [{0: 2}, {}])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_dense_product_mod_n(self, data):
        family = data.draw(
            st.sampled_from(["trivial", "sign", "shear", "pair", "sign rep"]), label="family"
        )
        genus = data.draw(st.integers(0, 4), label="genus")
        rank = data.draw(st.integers(1, 4), label="rank")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        rho = sign_rep() if family == "sign rep" else family_system(rng, family, genus, rank)
        pairing = LevelInput(random_invariant_level(rng, rho), rho).pairing
        pres = cohomology_presentations(rho)
        n = pairing.denominator
        dense = dense_omega_numerators(rho, pairing, pres.h1.all_gens())
        expected = tuple(tuple(x % n for x in dense.row(i)) for i in range(dense.rows))
        assert gerbe._omega(rho, pres, pairing) == expected


def unit_form(rank, n):
    """B = I over N: the form with entries 1/N on the diagonal."""
    return SymmetricForm(
        rank, tuple(tuple(Frac1(1, n) if i == j else ZERO for j in range(rank)) for i in range(rank))
    )


def free_block(rho, pairing, gens, free):
    """W's integer block on the first ``free`` vectors, as {column: entry} rows."""
    w = omega_numerators(rho, pairing, gens)
    return [{j: x for j, x in w[i].items() if j < free} for i in range(free)]


def is_antisymmetric(rows):
    return all(x == -rows[j].get(i, 0) for i, row in enumerate(rows) for j, x in row.items())


class TestPoincareDuality:
    # monodromy that preserves a unimodular integer form B exactly makes the
    # cup pairing perfect on H^1's free part, so W's integer free block is
    # antisymmetric with determinant 1: an oracle for every entry of W at
    # report scale, where the cochain route samples a few. B = I is preserved
    # by trivial and diagonal-sign monodromy

    @pytest.mark.parametrize("genus", [16, 32])
    @pytest.mark.parametrize("family", ["trivial", "sign"])
    def test_free_block_is_unimodular(self, monkeypatch, family, genus):
        rng = random.Random(f"duality-{family}-{genus}")
        rho = family_system(rng, family, genus, 4)
        pairing = unit_form(4, 5)
        assert pairing.numerators == IntMatrix.identity(4)
        pres = cohomology_presentations(rho)
        gens, free = list(pres.h1.all_gens()), len(pres.h1.free_gens)
        block = free_block(rho, pairing, gens, free)
        assert free > 0 and is_antisymmetric(block) and fraction_det(block) == 1
        # the check sees a sublattice of index 2: doubling a generator gives 4
        doubled = [tuple(2 * x for x in gens[0])] + gens[1:]
        block = free_block(rho, pairing, doubled, free)
        assert is_antisymmetric(block) and fraction_det(block) == 4
        # and selfcheck's P + 1 fault, on the diagonal of P at the first
        # coordinate the free generators touch (0 on the trivial systems)
        k = min(i for g in gens[:free] for i, x in enumerate(g) if x)
        pairing_gram = gerbe._pairing_gram

        def off_by_one(rho, b):
            p = pairing_gram(rho, b)
            p[k][k] = p[k].get(k, 0) + 1
            return p

        monkeypatch.setattr(gerbe, "_pairing_gram", off_by_one)
        block = free_block(rho, pairing, gens, free)
        assert not (is_antisymmetric(block) and fraction_det(block) == 1)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("b,det_b", [([[2, 1], [1, 2]], 3), ([[3, 0], [0, 3]], 9)])
    def test_free_block_det_is_det_b_to_the_2g(self, b, det_b, genus):
        # on a trivial system H^1 is Z^(2g) (x) Z^r, and W is the intersection
        # form (x) B, so its free block has |det| = |det B|^(2g) whatever B:
        # 9, 81, 729 for [[2, 1], [1, 2]], and 3^(4g) for B = 3 I. Only for
        # B = d I is that d^(2g r)
        rho = LatticeLocalSystem.trivial(2, genus)
        pairing = SymmetricForm(2, tuple(tuple(Frac1(x, 7) for x in row) for row in b))
        assert pairing.numerators == IntMatrix.from_rows(b)
        pres = cohomology_presentations(rho)
        gens, free = list(pres.h1.all_gens()), len(pres.h1.free_gens)
        assert free == len(gens) == 4 * genus
        block = free_block(rho, pairing, gens, free)
        assert is_antisymmetric(block)
        assert abs(fraction_det(block)) == det_b ** (2 * genus)

def unit4(i):
    v = [0, 0, 0, 0]
    v[i] = 1
    return tuple(v)


class TestCommutatorPairing:
    def test_genus_one_matrix(self):
        omega = omega_of(trivial_level(1, 1, 3))
        assert omega == (
            (ZERO, Frac1(2, 3)),
            (Frac1(1, 3), ZERO),
        )

    def test_zero_level(self):
        omega = omega_of(trivial_level(2, 1, 1))
        assert all(x == ZERO for row in omega for x in row)

    def test_additive_in_zeta(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        c = IntMatrix.identity(1)
        om3 = omega_of(LevelInput(BilinearData(c, Frac1(1, 3)), rho))
        om4 = omega_of(LevelInput(BilinearData(c, Frac1(1, 4)), rho))
        mixed = omega_of(LevelInput(BilinearData(c, Frac1(1, 3) + Frac1(1, 4)), rho))
        for i in range(2):
            for j in range(2):
                assert mixed[i][j] == om3[i][j] + om4[i][j]

    def test_additive_in_c(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        zeta = Frac1(1, 5)
        c1, c2 = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[3]])
        oma = omega_of(LevelInput(BilinearData(c1, zeta), rho))
        omb = omega_of(LevelInput(BilinearData(c2, zeta), rho))
        omab = omega_of(LevelInput(BilinearData(c1 + c2, zeta), rho))
        for i in range(2):
            for j in range(2):
                assert omab[i][j] == oma[i][j] + omb[i][j]

    def test_sign_rep_torsion_only(self):
        level = LevelInput(BilinearData(IntMatrix.identity(1), HALF), sign_rep())
        omega = omega_of(level)
        assert len(omega) == 1  # H^1 = Z/2: a single torsion generator

    def test_one_frac1_per_residue(self, monkeypatch):
        # omega and chi leave gerbe as residues mod N and build no Frac1; the
        # renderer writes one Frac1 per residue, not one per entry: g4 r4 has
        # 32 x 32 omega entries, 81 blocks and N = 3
        from qtorus import cli

        level = trivial_level(4, 4, 3)
        rho, pairing = level.rho, level.pairing
        pres = cohomology_presentations(rho)
        reps = enumerate_components(pres)
        made = []
        init = Frac1.__init__

        def counting(self, num, den=1):
            made.append((num, den))
            init(self, num, den)

        monkeypatch.setattr(Frac1, "__init__", counting)
        omega = gerbe._omega(rho, pres, pairing)
        chis = gerbe._pi2_characters(rho, pres, pairing, reps)
        assert len(omega) == 32 and len(chis) == len(reps) == 81 and made == []
        w = densify(omega_numerators(rho, pairing, pres.h1.all_gens()))
        assert omega == tuple(tuple(x % pairing.denominator for x in w.row(i)) for i in range(32))
        rep = block_report(level)
        del made[:]
        blocks = cli._blocks_json(rep)
        assert len(blocks) == 81 and len(made) <= pairing.denominator
        monkeypatch.undo()
        omega_text = [[str(x) for x in row] for row in omega_closed(rep)]
        assert all(b["omega"] == omega_text for b in blocks)
        for b, block in zip(blocks, rep.blocks):
            assert b["pi2_character"] == [str(x) for x in closed(rep, block.pi2_character)]
        # N comes from the input and may be huge: the renderer writes only the
        # residues that occur
        big = 10**12
        rep = block_report(trivial_level(1, 1, big), components=[(0,)])
        del made[:]
        monkeypatch.setattr(Frac1, "__init__", counting)
        (block,) = cli._blocks_json(rep)
        assert len(made) <= 3  # the residues 0, 2 and N - 2
        monkeypatch.undo()
        assert block["omega"] == [["0/1", f"1/{big // 2}"], [f"{big // 2 - 1}/{big // 2}", "0/1"]]
        assert omega_closed(rep) == ((ZERO, Frac1(2, big)), (Frac1(-2, big), ZERO))


class TestPi2Character:
    def test_values_against_polarization(self):
        level = trivial_level(1, 1, 4)  # b(m, n) = mn/2
        assert chi_of(level, (0,)) == (ZERO,)
        assert chi_of(level, (1,)) == (HALF,)
        assert chi_of(level, (-1,)) == (HALF,)

    def test_no_invariants_no_values(self):
        level = LevelInput(BilinearData(IntMatrix.identity(1), HALF), sign_rep())
        assert chi_of(level, (1,)) == ()

    def test_wrong_length(self):
        with pytest.raises(BadComponent):
            block_report(trivial_level(1, 1, 2), components=[(1, 0)])

    @pytest.mark.parametrize("family", ["trivial", "sign", "shear"])
    def test_characters_match_the_matrix_product(self, family):
        # enumerated representatives and explicit ones far outside the
        # enumerated box, small or wider than 64 bits, take the same route
        rng = random.Random(f"chi-{family}")
        checked = 0
        for genus in range(1, 4):
            for rank in range(1, 5):
                level = family_level(rng, family, genus, rank)
                rho, pairing = level.rho, level.pairing
                pres = cohomology_presentations(rho)
                chi = IntMatrix.from_rows(pres.h0_basis, rank) @ pairing.numerators
                reps = enumerate_components(pres)
                for bound in (7, 10**6, 2**70):
                    reps.append(tuple(rng.randint(-bound, bound) for _ in range(rank)))
                got = gerbe._pi2_characters(rho, pres, pairing, reps)
                n = pairing.denominator
                assert got == [tuple(x % n for x in chi.mul_vec(rep)) for rep in reps]
                checked += any(any(c) for c in got)
        assert checked  # some system has a nonzero character

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
            assert chi_of(level, shifted) == chi_of(level, d)


# N = 1, prime powers, composites and a prime beyond trial division's reach
HEISENBERG_MODULI = (1, 4, 8, 9, 27, 32, 6, 12, 30, 36, 210, 2**89 - 1)


@st.composite
def free_blocks(draw):
    """(N, W, f): W's leading f x f block has entries in [0, N).

    The block is antisymmetric mod N with zero diagonal, or arbitrary. Its
    entries come from a palette of a few residues, so a pivot often fails to
    divide its row and column. Some indices are zeroed in both row and
    column, and one may repeat another in both, which keeps the lift's rank
    below the count of nonzero rows and columns. W may have further rows and
    columns, as torsion generators give it, which the count must not read.
    """
    n = draw(st.sampled_from(HEISENBERG_MODULI))
    f = draw(st.integers(0, 7))
    residue = st.sampled_from(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
    rows = [[0] * f for _ in range(f)]
    if draw(st.booleans()):
        for i in range(f):
            for j in range(i + 1, f):
                x = draw(residue)
                rows[i][j], rows[j][i] = x, -x % n
    else:
        rows = [[draw(residue) for _ in range(f)] for _ in range(f)]
    index = st.integers(0, f - 1)
    if f:
        for i in draw(st.sets(index, max_size=f)):
            rows[i] = [0] * f
            for row in rows:
                row[i] = 0
    if f >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
        for row in rows:
            row[j] = row[i]
    size = f + draw(st.integers(0, 2))
    entries = [
        rows[i][j] if i < f and j < f else draw(residue) for i in range(size) for j in range(size)
    ]
    return n, IntMatrix(size, size, entries), f


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

            omega = omega_closed(rep)
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

    def test_components_free_then_torsion(self):
        # H^2 = Z^2 + (Z/2)^2 at rank 4, on generators that mix coordinates:
        # the free coefficients are the outer loops, the torsion ones the inner
        p = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        flip = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        a = p @ flip @ inverse_unimodular(p)
        pres = cohomology_presentations(LatticeLocalSystem(4, 1, [a, IntMatrix.identity(4)]))
        assert pres.h2.group == FgAbGroup(2, (2, 2))
        (f1, f2), (t1, t2) = pres.h2.free_gens, pres.h2.torsion_gens
        expected = []
        for x in range(-1, 2):
            for y in range(-1, 2):
                for s in range(2):
                    for t in range(2):
                        expected.append(
                            tuple(x * f1[i] + y * f2[i] + s * t1[i] + t * t2[i] for i in range(4))
                        )
        assert len(set(expected)) == 36
        assert enumerate_components(pres) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3),
        st.sampled_from([(), (2, 2), (2, 4), (3,)]),
        st.booleans(),
        st.integers(0, 2),
        st.integers(0, 2**32),
    )
    def test_components_match_the_product_enumeration(self, free, torsion, acyclic, bound, seed):
        # genus 1, monodromy (A, 1) with A block diagonal in a random basis:
        # H^2 = Z^r / im(A - 1) takes a Z from each block [1], Z/2 from [-1],
        # Z/3 from an order 3 rotation, Z/4 from [[5, 4], [1, 1]], and nothing
        # from [[2, 1], [1, 1]], whose A - 1 is unimodular
        blocks = [[[1]]] * free + [
            {2: [[-1]], 3: [[0, -1], [1, -1]], 4: [[5, 4], [1, 1]]}[t] for t in torsion
        ]
        if acyclic or not blocks:  # rank 0 is not a system; H^2 = 0 needs a block
            blocks.append([[2, 1], [1, 1]])
        rank = sum(len(b) for b in blocks)
        a = [[0] * rank for _ in range(rank)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                a[at + i][at : at + len(row)] = row
            at += len(b)
        t = rand_unimodular(random.Random(seed), rank)
        a = t @ IntMatrix.from_rows(a) @ inverse_unimodular(t)
        pres = cohomology_presentations(LatticeLocalSystem(rank, 1, [a, IntMatrix.identity(rank)]))
        assert pres.h2.group == FgAbGroup(free, torsion)
        reps = enumerate_components(pres, bound)
        assert reps == components_by_product(pres, bound)
        assert len(reps) == (2 * bound + 1) ** free * math.prod(torsion)
        assert all(len(rep) == rank for rep in reps)

    def test_explicit_components_order(self):
        rep = block_report(trivial_level(1, 1, 4), components=[(2,), (0,)])
        assert [b.component for b in rep.blocks] == [(2,), (0,)]
        assert closed(rep, rep.blocks[0].pi2_character) == (ZERO,)  # b(1, 2) = 1 = 0 mod 1

    def test_bad_component_length(self):
        with pytest.raises(BadComponent):
            block_report(trivial_level(1, 1, 2), components=[(1, 0)])

    def test_radical_rank_reads_the_reduced_lift(self):
        # one omega on (Z/3)^3, two integer lifts W with omega = W / 3
        n = 3
        reduced = IntMatrix.from_rows([[0, 1, 1], [2, 0, 1], [2, 2, 0]])
        antisymmetric = IntMatrix.from_rows([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        assert list(smith_normal_form(reduced).diagonal()) == [1, 1, 6]
        assert list(smith_normal_form(antisymmetric).diagonal()) == [1, 1, 0]
        # the block order, prod N / gcd(N, d_i), does not depend on the lift
        for w in (reduced, antisymmetric):
            order = math.prod(n // math.gcd(n, d) for d in smith_normal_form(w).diagonal())
            assert order == 9
        # the radical rank is read from the lift reduced into [0, N), which is
        # what a report holds: rank 3, so 0, where the antisymmetric lift's
        # rank would give 1
        assert fraction_rank(reduced) == 3 and fraction_rank(antisymmetric) == 2
        assert [[x % n for x in row] for row in antisymmetric.row_lists()] == reduced.row_lists()
        assert _heisenberg_dimensions(n, reduced.row_lists(), 3) == (0, 3)
        rep = block_report(trivial_level(1, 1, 3))
        assert rep.denominator == 3 and rep.omega == ((0, 2), (1, 0))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_heisenberg_count_matches_the_smith_route(self, data):
        n, w, f = data.draw(free_blocks())
        radical, order = heisenberg_by_smith(n, w, f)
        dim = math.isqrt(order)
        if dim * dim == order:
            assert _heisenberg_dimensions(n, w.row_lists(), f) == (radical, dim)
        else:
            with pytest.raises(InvariantViolation, match="perfect square"):
                _heisenberg_dimensions(n, w.row_lists(), f)

    def test_lift_rank_is_exact(self):
        # 2^61 - 1 at N = 2^64: a lift rank read mod that prime would be 0
        assert _heisenberg_dimensions(2**64, [[2**61 - 1]], 1) == (0, 2**32)
        # a repeated row keeps the rank below the nonzero count on any field
        w = IntMatrix.from_rows([[0, 1, 2], [5, 0, 3], [0, 1, 2]])
        assert _heisenberg_dimensions(6, w.row_lists(), 3) == (1, 6)
        assert heisenberg_by_smith(6, w, 3) == (1, 36)
        # full rank
        assert _heisenberg_dimensions(3, [[0, 1], [2, 0]], 2) == (0, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lift_rank_stays_within_hadamard(self, data):
        # every row whose content is taken is p * row - x * pivot_row, whose
        # entries are at most 2 H^2, with H the product of the row norms
        if data.draw(st.booleans()):
            n, w, f = data.draw(free_blocks())
            a = [[x % n for x in w.row(i)[:f]] for i in range(f)]
        else:
            n = data.draw(st.sampled_from(HEISENBERG_MODULI))
            f = data.draw(st.integers(4, 8))
            a = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=f, max_size=f),
                                   min_size=f, max_size=f))
        bound = 2 * math.prod(sum(x * x for x in row) for row in a if any(row))
        seen = []

        def gcd(*entries):
            seen.append(max(map(abs, entries)))
            return math.gcd(*entries)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gerbe, "math", types.SimpleNamespace(gcd=gcd))
            rank = gerbe._lift_rank(a)
        assert rank == fraction_rank(IntMatrix(f, f, [x for row in a for x in row]))
        assert max(seen, default=0) <= bound

    def test_blocks_share_level_data(self):
        # a block holds only what depends on its component; the report writes
        # the level's omega, radical rank and block dimension into every block
        assert GerbeBlock._fields == ("component", "pi2_character")
        level = trivial_level(1, 1, 6)
        rep = block_report(level)
        blocks = global_json("global", level)["blocks"]
        assert len(blocks) == len(rep.blocks) == 3
        omega = [[str(x) for x in row] for row in omega_closed(rep)]
        for b, block in zip(blocks, rep.blocks):
            assert b == {
                "component": list(block.component),
                "omega": omega,
                "pi2_character": [str(x) for x in closed(rep, block.pi2_character)],
                "radical_rank": rep.radical_rank,
                "block_dim": rep.block_dim,
            }
            assert b["omega"] is blocks[0]["omega"]


def sum_frac(items):
    total = ZERO
    for x in items:
        total = total + x
    return total


class TestBuntReport:
    """``bunt`` is the ``global`` report with a ``bun_t`` label."""

    def test_groups_match_section_space(self):
        rng = random.Random(47)
        for _ in range(8):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = LevelInput(random_invariant_level(rng, rho), rho)
            bun_t = global_json("bunt", level)["bun_t"]
            assert list(bun_t) == ["pi0", "component_label", "pi1", "pi2"]
            del bun_t["component_label"]
            assert bun_t == groups_json(cohomology_presentations(rho).triple)

    def test_label_and_blocks(self):
        level = trivial_level(1, 1, 4)
        bunt = global_json("bunt", level, components=[(2,), (0,)])
        glob = global_json("global", level, components=[(2,), (0,)])
        assert list(bunt) == ["task", "surface", "level", "bun_t", "section_space", "blocks",
                              "conventions"]
        assert bunt["task"] == "bunt" and glob["task"] == "global"
        assert bunt["bun_t"]["component_label"] == "first_chern_class"
        assert bunt["blocks"] == glob["blocks"]
        assert [b["component"] for b in bunt["blocks"]] == [[2], [0]]
