import random
from collections import Counter

import pytest

from qtorus import (
    FgAbGroup,
    IntMatrix,
    LatticeLocalSystem,
    build_complex,
    cohomology_presentations,
    invariants_coinvariants_check,
    inverse_unimodular,
    smith_normal_form,
)
from qtorus import cli, cochain, gerbe, lattice, surface, triangulate
from qtorus.gerbe import _pairing_gram
from qtorus.lattice import flat_mul
from qtorus.surface import _fraction_free_rank
from qtorus.errors import (
    DimensionMismatch,
    NonUnimodular,
    RelationViolated,
)

from helpers import (
    COMMUTING_BAD_HANDLES,
    BadLetter,
    _int_power,
    family_system,
    fox_derivative,
    fraction_rank,
    hstack,
    rand_matrix,
    rand_unimodular,
    random_local_system,
    reference_walk,
    relator,
    subquotient,
    subquotient_with_generators,
    table_products,
    word_matrix,
)


def spy_on_smith_forms(monkeypatch):
    """Every Smith form surface and lattice compute from now on, with its input's shape."""
    results = []

    def spy(a):
        res = smith_normal_form(a)
        results.append(((a.rows, a.cols), res))
        return res

    monkeypatch.setattr(surface, "smith_normal_form", spy)
    monkeypatch.setattr(lattice, "smith_normal_form", spy)
    return results


def kernel_matrix(a):
    """The kernel vectors of snf(a) as the columns of a matrix, for the dense helpers."""
    return IntMatrix.from_sparse(smith_normal_form(a).kernel_basis(), a.cols).transpose()


def built(res):
    """The transforms of a Smith form that something has read, and so built."""
    return {"u", "v"} & vars(res).keys()


def sign_rep():
    """Genus 1, rank 1, rho(a) = 1, rho(b) = -1."""
    one = IntMatrix.from_rows([[1]])
    return LatticeLocalSystem(1, 1, [one, IntMatrix.from_rows([[-1]])])


class TestLocalSystemValidation:
    def test_wrong_count(self):
        with pytest.raises(DimensionMismatch):
            LatticeLocalSystem(1, 1, [IntMatrix.identity(1)])
        with pytest.raises(DimensionMismatch):
            LatticeLocalSystem(1, -1, [])

    def test_non_unimodular(self):
        two = IntMatrix.from_rows([[2]])
        with pytest.raises(NonUnimodular):
            LatticeLocalSystem(1, 1, [two, IntMatrix.identity(1)])

    def test_construction_runs_no_smith_form(self, monkeypatch):
        # a determinant of ab or an inversion of ba is the unimodularity
        # check, each a fraction-free elimination, not a Smith form, and the
        # generators' inverses, built when first read, invert ba the same way
        mats = family_system(random.Random("no-snf"), "pair", 3, 3).mon
        calls = []

        def spy(a):
            calls.append((a.rows, a.cols))
            return smith_normal_form(a)

        monkeypatch.setattr(surface, "smith_normal_form", spy)
        monkeypatch.setattr(lattice, "smith_normal_form", spy)
        rho = LatticeLocalSystem(3, 3, mats)
        assert calls == []
        assert [m @ inv for m, inv in zip(mats, rho.mon_inv)] == [IntMatrix.identity(3)] * 6

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

    def test_word_matrix_inverts(self):
        # mon_inv inverts mon letter by letter, read by index as the oracle does
        rng = random.Random(5)
        rho = random_local_system(rng, 2, 2)
        w = (1, 3, -2, 4, -1)
        back = tuple(-x for x in reversed(w))
        assert word_matrix(rho, w) @ word_matrix(rho, back) == IntMatrix.identity(2)


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
        rel = relator(1)
        for j in range(2):
            assert fox_derivative(rel, j, rho).is_zero()

    def test_sign_rep_relator(self):
        rho = sign_rep()
        rel = relator(1)
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
            split = fox_derivative(u, j, rho) + word_matrix(rho, u) @ fox_derivative(v, j, rho)
            assert whole == split

    def test_bad_index(self):
        rho = sign_rep()
        with pytest.raises(BadLetter):
            fox_derivative((1,), 2, rho)
        with pytest.raises(BadLetter):
            fox_derivative((3,), 0, rho)


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
                h = cohomology_presentations(LatticeLocalSystem.trivial(r, g)).triple
                assert h.h0 == FgAbGroup(r)
                assert h.h1 == FgAbGroup(2 * g * r)
                assert h.h2 == FgAbGroup(r)

    def test_sign_rep(self):
        h = cohomology_presentations(sign_rep()).triple
        assert h.h0 == FgAbGroup(0)
        assert h.h1 == FgAbGroup(0, (2,))
        assert h.h2 == FgAbGroup(0, (2,))

    def test_genus_zero(self):
        h = cohomology_presentations(LatticeLocalSystem.trivial(2, 0)).triple
        assert h == (FgAbGroup(2), FgAbGroup(0), FgAbGroup(2))

    def test_euler_characteristic(self):
        rng = random.Random(13)
        for _ in range(60):
            g, r = rng.randint(1, 2), rng.randint(1, 3)
            rho = random_local_system(rng, g, r)
            h = cohomology_presentations(rho).triple
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
            assert cohomology_presentations(rho).triple == cohomology_presentations(conj).triple

    def test_torsion_matches_dual_system(self):
        # universal coefficients and Poincare duality for the dual system
        # rho^v = (rho^-1)^T: H^0 and H^2 swap ranks, H^1 keeps its rank, and
        # the torsions of H^1 and H^2 swap; H^1's torsion alone need not match
        rng = random.Random(36)
        systems = [random_local_system(rng, rng.randint(1, 3), rng.randint(1, 4))
                   for _ in range(120)]
        systems += [family_system(rng, ("trivial", "sign", "shear", "pair")[k % 4],
                                  rng.randint(1, 3), rng.randint(1, 4)) for k in range(120)]
        systems += [family_system(random.Random("dual-g8r4"), "pair", 8, 4),
                    family_system(random.Random("dual-g16r2"), "sign", 16, 2)]
        for rho in systems:
            dual = LatticeLocalSystem(
                rho.rank, rho.genus, [inverse_unimodular(m).transpose() for m in rho.mon]
            )
            h, d = (cohomology_presentations(s).triple for s in (rho, dual))
            ranks = (d.h0.free_rank, d.h1.free_rank, d.h2.free_rank)
            assert ranks == (h.h2.free_rank, h.h1.free_rank, h.h0.free_rank)
            assert (d.h1.torsion, d.h2.torsion) == (h.h2.torsion, h.h1.torsion)

    def test_invariants_coinvariants(self):
        rng = random.Random(23)
        rho = sign_rep()
        assert invariants_coinvariants_check(rho, cohomology_presentations(rho).triple)
        for _ in range(40):
            g, r = rng.randint(1, 2), rng.randint(1, 3)
            rho = random_local_system(rng, g, r)
            assert invariants_coinvariants_check(rho, cohomology_presentations(rho).triple)


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
        # the triple is read off the two Smith diagonals, H^1 off coker d0;
        # the generator presentations read each group again, H^1 off snf(x)
        rng = random.Random(f"groups-{family}")
        torsion = 0
        for genus in range(5):
            for rank in range(1, 5):
                rho = family_system(rng, family, genus, rank)
                pres = cohomology_presentations(rho)
                h = pres.triple
                assert h.h1 == pres.h1.group
                assert h.h2 == pres.h2.group
                assert h.h0 == FgAbGroup(len(pres.h0_basis))
                assert invariants_coinvariants_check(rho, h)
                torsion += bool(h.h1.torsion or h.h2.torsion)
        if family == "sign":
            assert torsion >= 8

    @pytest.mark.parametrize("family", ["sign", "pair"])
    def test_h1_matches_subquotient(self, family):
        # H^1 read off coker d0 against ker d1 / im d0 computed directly, at
        # the genera and ranks of the handle-pair benchmark jobs
        rng = random.Random(f"coker-{family}")
        torsion = 0
        for genus in range(8, 14):
            for rank in (3, 4):
                rho = family_system(rng, family, genus, rank)
                cx = build_complex(rho)
                h1 = cohomology_presentations(rho).triple.h1
                assert h1 == subquotient(kernel_matrix(cx.d1), cx.d0)
                torsion += bool(h1.torsion)
        if family == "sign":
            assert torsion >= 6

    def test_two_smith_forms(self, monkeypatch):
        # the groups alone: snf(d0) and snf(d1), and no transform of either
        rho = family_system(random.Random(3), "pair", 3, 2)
        results = spy_on_smith_forms(monkeypatch)
        cohomology_presentations(rho)
        assert [(shape, built(res)) for shape, res in results] == [
            ((12, 2), set()),
            ((2, 12), set()),
        ]

    def test_surface_report_builds_no_transform(self, monkeypatch):
        # d0 and d1 for the triple, the coinvariants matrix in the check
        rho = family_system(random.Random(5), "pair", 13, 4)
        results = spy_on_smith_forms(monkeypatch)
        assert invariants_coinvariants_check(rho, cohomology_presentations(rho).triple)
        assert [(shape, built(res)) for shape, res in results] == [
            ((104, 4), set()),
            ((4, 104), set()),
            ((4, 104), set()),
        ]

    def test_check_rejects_altered_h0_or_h2(self):
        rng = random.Random(31)
        systems = [sign_rep(), LatticeLocalSystem.trivial(2, 2)]
        systems += [family_system(rng, f, 2, 3) for f in ("sign", "shear", "pair")]
        for rho in systems:
            h = cohomology_presentations(rho).triple
            assert invariants_coinvariants_check(rho, h)
            for wrong in altered(h.h0):
                assert not invariants_coinvariants_check(rho, h._replace(h0=wrong))
            for wrong in altered(h.h2):
                assert not invariants_coinvariants_check(rho, h._replace(h2=wrong))

    def test_h0_check_eliminates_on_the_rank_rows(self, monkeypatch):
        # rank A = rank A^T: at the handle-pair benchmark's genera and ranks the
        # Bareiss oracle gets the r x 2gr side, not the 2gr x r stack, and it
        # still rejects every altered H^0
        shapes = []

        def spy(a):
            shapes.append((a.rows, a.cols))
            return _fraction_free_rank(a)

        monkeypatch.setattr(surface, "_fraction_free_rank", spy)
        rng = random.Random("rank-rows")
        for genus in range(8, 14):
            for rank in (3, 4):
                rho = family_system(rng, "pair", genus, rank)
                h = cohomology_presentations(rho).triple
                del shapes[:]
                assert invariants_coinvariants_check(rho, h)
                assert shapes == [(rho.rank, 2 * genus * rank)]
                for wrong in altered(h.h0):
                    assert not invariants_coinvariants_check(rho, h._replace(h0=wrong))


class TestSingleWalk:
    @pytest.mark.parametrize("family", ["trivial", "sign", "shear", "pair"])
    def test_d1_matches_fox_derivatives(self, family):
        # build_complex sums the stored letter transports; fox_derivative
        # walks the relator again for each generator
        rng = random.Random(f"walk-{family}")
        for genus in range(5):
            for rank in range(1, 5):
                rho = family_system(rng, family, genus, rank)
                if genus:
                    fox = hstack([fox_derivative(relator(genus), j, rho) for j in range(2 * genus)])
                else:
                    fox = IntMatrix.zeros(rank, 0)
                assert build_complex(rho).d1 == fox


def _handle_products(rho, commuting: bool) -> list[IntMatrix]:
    """ba for each handle (a, b) whose ab == ba is ``commuting``, in handle order."""
    return [b @ a for a, b in zip(rho.mon[::2], rho.mon[1::2]) if (a @ b == b @ a) == commuting]


def _records(frames, rank) -> tuple[list[tuple], list[IntMatrix]]:
    """A letter walk grouped by handle: (X, Y, Z, Q, S_a, S_b) flat per handle, and d1's blocks.

    Each generator's block sums eps * transport over its letters, so S_a and
    S_b come from the letters, not from the closed form X - Z and Y - Q.
    """
    blocks = [IntMatrix.zeros(rank, rank)] * (len(frames) // 2)
    for j, eps, frame in frames:
        blocks[j] = blocks[j] + frame if eps == 1 else blocks[j] - frame
    records = [
        tuple(frame.entries for _, _, frame in frames[4 * h : 4 * h + 4])
        + (blocks[2 * h].entries, blocks[2 * h + 1].entries)
        for h in range(len(frames) // 4)
    ]
    return records, blocks


class TestHandleWalk:
    # construction unwinds the relator a handle at a time and inverts only a
    # non-commuting handle's ba; the reference walks it a letter at a time,
    # inverting each generator by its Smith form

    @staticmethod
    def _systems():
        rng = random.Random("handle-walk")
        for _ in range(60):
            yield random_local_system(rng, rng.randint(1, 4), rng.randint(1, 4))
        for family in ("trivial", "sign", "shear", "pair"):
            for genus in range(1, 5):
                for rank in range(1, 5):
                    yield family_system(rng, family, genus, rank)

    def test_frames_d1_and_inverses_match_the_letter_walk(self):
        noncommuting = 0
        for rho in self._systems():
            frames, inv = reference_walk(rho)
            eye = IntMatrix.identity(rho.rank)
            records, blocks = _records(frames, rho.rank)
            assert [h[:6] for h in rho.handles] == records
            assert [h.ba_inv for h in rho.handles] == [
                None if a @ b == b @ a else a_inv @ b_inv
                for a, b, a_inv, b_inv in zip(rho.mon[::2], rho.mon[1::2], inv[::2], inv[1::2])
            ]
            assert build_complex(rho).d1 == hstack(blocks)
            assert "mon_inv" not in vars(rho)  # built when first read
            assert rho.mon_inv == tuple(inv)
            assert all(m_inv @ m == eye for m, m_inv in zip(rho.mon, rho.mon_inv))
            noncommuting += any(a @ b != b @ a for a, b in zip(rho.mon[::2], rho.mon[1::2]))
        assert noncommuting >= 5  # random_local_system's [p, q, q, p] handles

    def test_at_most_one_elimination_per_handle(self, monkeypatch):
        # construction inverts each non-commuting handle's ba and nothing else,
        # and takes one determinant of each commuting handle's ab that is not
        # I; reading the inverses afterwards inverts each remaining ba != I once
        inverted, eliminations, determinants = [], [], []
        gauss_jordan, det = lattice._gauss_jordan, surface.det

        def spy(a):
            inverted.append(a)
            return inverse_unimodular(a)

        def counting(a):
            eliminations.append(a)
            return gauss_jordan(a)

        def counting_det(a):
            determinants.append(a)
            return det(a)

        monkeypatch.setattr(surface, "inverse_unimodular", spy)
        monkeypatch.setattr(lattice, "_gauss_jordan", counting)
        monkeypatch.setattr(surface, "det", counting_det)
        for rho in self._systems():
            eye = IntMatrix.identity(rho.rank)
            del inverted[:], eliminations[:], determinants[:]
            built = LatticeLocalSystem(rho.rank, rho.genus, rho.mon)
            assert inverted == eliminations == _handle_products(rho, False)
            assert determinants == [ab for ab in _handle_products(rho, True) if ab != eye]
            assert len(eliminations) + len(determinants) <= rho.genus
            del inverted[:], eliminations[:], determinants[:]
            built.mon_inv
            assert inverted == eliminations == [ba for ba in _handle_products(rho, True) if ba != eye]
            assert determinants == []
            read = len(eliminations)
            built.mon_inv  # held, not rebuilt
            assert len(eliminations) == read

    def test_a_handle_with_ba_identity_is_not_inverted(self, monkeypatch):
        # b = a^-1: ab = ba = I, so the first handle's commutator, transports and
        # inverses are read off its generators, with no determinant and no
        # elimination; its (ba)^-1 is left unset. The second handle (s, s)
        # commutes too, so construction takes one determinant, of ss, and forms
        # no product; reading the inverses forms ba on each handle and inverts
        # ss once
        t = IntMatrix.from_rows([[2, 1], [1, 1]])
        t_inv = IntMatrix.from_rows([[1, -1], [-1, 2]])
        s = IntMatrix.from_rows([[1, 1], [0, 1]])
        counts = TestIdentityTransports._spy(monkeypatch)
        rho = LatticeLocalSystem(2, 2, [t, t_inv, s, s])
        assert counts == Counter(determinants=1)
        eye = IntMatrix.identity(2)
        assert rho.handles[0] == (eye.entries, t.entries, t_inv.entries, eye.entries,
                                  (eye - t_inv).entries, (t - eye).entries, None)
        before = Counter(counts)
        assert rho.mon_inv[:2] == (t_inv, t)
        # ba on each handle, then (ss)^-1 s and s (ss)^-1
        assert counts - before == Counter(products=4, inversions=1)
        monkeypatch.undo()
        assert [h[:6] for h in rho.handles] == _records(reference_walk(rho)[0], 2)[0]

    @pytest.mark.parametrize("bad", ["a", "b"])
    @pytest.mark.parametrize("commuting", [True, False], ids=["commuting", "noncommuting"])
    def test_a_non_unimodular_generator_is_named(self, bad, commuting):
        # one elimination of ba fails for either factor; det names the first
        # bad one. The handle follows a good one, so its indices are 2 and 3
        t = IntMatrix.from_rows([[1, 1], [0, 1]])
        pairs = {
            (True, "a"): ([[2, 0], [0, 1]], [[1, 0], [0, -1]]),
            (True, "b"): ([[1, 1], [0, 1]], [[3, 0], [0, 3]]),
            (False, "a"): ([[2, 1], [0, 1]], [[1, 0], [1, 1]]),
            (False, "b"): ([[1, 1], [0, 1]], [[1, 0], [1, 0]]),  # b singular
        }
        a, b = (IntMatrix.from_rows(m) for m in pairs[commuting, bad])
        assert (a @ b == b @ a) == commuting
        with pytest.raises(NonUnimodular, match=f"^monodromy matrix {2 if bad == 'a' else 3} is"):
            LatticeLocalSystem(2, 2, [t, t @ t, a, b])

    def test_shapes_are_checked_before_unimodularity(self):
        # a misshapen matrix 3 is reported before a non-unimodular matrix 0,
        # since every shape is checked before any product is formed
        eye = IntMatrix.identity(2)
        bad = IntMatrix.from_rows([[2, 0], [0, 1]])
        tall = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
        with pytest.raises(DimensionMismatch, match="^monodromy matrix 3 must be 2x2$"):
            LatticeLocalSystem(2, 2, [bad, eye, eye, tall])
        with pytest.raises(NonUnimodular, match="^monodromy matrix 0 is not unimodular$"):
            LatticeLocalSystem(2, 2, [bad, eye, eye, eye])


class TestCommutingHandles:
    # ab = ba is tested as EF = FE on E = a - I and F = b - I; a commuting
    # handle is proved unimodular by det(ab) and inverts nothing

    @pytest.mark.parametrize("case", COMMUTING_BAD_HANDLES)
    def test_a_non_unimodular_generator_is_named(self, case):
        # the rule of the inversion route: a's index if |det a| != 1, else b's
        t = IntMatrix.from_rows([[1, 1], [0, 1]])
        a, b, bad = COMMUTING_BAD_HANDLES[case]
        a, b = IntMatrix.from_rows(a), IntMatrix.from_rows(b)
        assert a @ b == b @ a
        with pytest.raises(NonUnimodular) as err:
            LatticeLocalSystem(2, 2, [t, t @ t, a, b])
        assert str(err.value) == f"monodromy matrix {bad} is not unimodular"

    def test_ef_and_fe_agree_exactly_when_ab_and_ba_do(self):
        # b drawn at random (mostly not commuting with a), as a polynomial in
        # a (commuting) or unimodular; ab and ba are a + F + EF and b + E + FE
        rng = random.Random("ef-fe")
        seen = Counter()
        for k in range(300):
            r = rng.randint(1, 4)
            a = rand_matrix(rng, r, r, -2, 2) if k % 2 else rand_unimodular(rng, r)
            eye = IntMatrix.identity(r)
            if k % 3 == 0:
                b = rand_matrix(rng, r, r, -2, 2)
            elif k % 3 == 1:
                c = [rng.randint(-2, 2) for _ in range(3)]
                b = IntMatrix(r, r, [c[0] * x + c[1] * y + c[2] * z
                                     for x, y, z in zip(eye.entries, a.entries, (a @ a).entries)])
            else:
                b = rand_unimodular(rng, r)
            e, f = ([x - y for x, y in zip(m.entries, eye.entries)] for m in (a, b))
            ef, fe = flat_mul(e, f, r), flat_mul(f, e, r)
            assert [x + y + z for x, y, z in zip(a.entries, f, ef)] == list((a @ b).entries)
            assert [x + y + z for x, y, z in zip(b.entries, e, fe)] == list((b @ a).entries)
            assert (ef == fe) == (a @ b == b @ a)
            seen[ef == fe] += 1
        assert min(seen.values()) >= 100

    def test_construction_matches_the_letter_walk_on_400_draws(self):
        # frames, inverses, the triple, H^0's basis and H^1's generators of
        # the built system against those of the complex the letter walk gives
        rng = random.Random(11)
        sources = ["trivial", "sign", "shear", "pair", "random"]
        noncommuting = 0
        for k in range(400):
            genus, rank = rng.randint(1, 4), rng.randint(1, 4)
            if sources[k % 5] == "random":
                rho = random_local_system(rng, genus, rank)
            else:
                rho = family_system(rng, sources[k % 5], genus, rank)
            frames, inv = reference_walk(rho)
            records, blocks = _records(frames, rank)
            assert [h[:6] for h in rho.handles] == records
            assert rho.mon_inv == tuple(inv)
            d0 = IntMatrix(2 * genus * rank, rank, [
                x - (i % rank == j) for m in rho.mon for i, row in enumerate(m.row_lists())
                for j, x in enumerate(row)
            ])
            d1 = hstack(blocks)
            snf0, snf1 = smith_normal_form(d0), smith_normal_form(d1)
            h1 = subquotient_with_generators(kernel_matrix(d1), d0)
            pres = cohomology_presentations(rho)
            assert pres.triple == (FgAbGroup(rank - snf0.rank()), h1.group, snf1.cokernel())
            assert pres.h0_basis == IntMatrix.from_sparse(snf0.kernel_basis(), rank).row_lists()
            assert pres.h1 == h1
            noncommuting += any(h.ba_inv is not None for h in rho.handles)
        assert noncommuting >= 5  # random_local_system's [p, q, q, p] handles

    def test_commuting_handles_form_no_dense_product_and_no_elimination(self, monkeypatch):
        # every prefix stays I, so no transport is a product, and each handle
        # costs two products over stored entries and at most one determinant
        rng = random.Random("commuting")
        systems = [family_system(rng, f, g, r) for f in ("trivial", "sign", "shear", "pair")
                   for g, r in ((8, 3), (13, 4), (2, 16))]
        counts = TestIdentityTransports._spy(monkeypatch)
        for rho in systems:
            built = LatticeLocalSystem(rho.rank, rho.genus, rho.mon)
            assert all(h.ba_inv is None for h in built.handles)
        assert counts.keys() <= {"determinants"} and counts["determinants"] > 0


class TestPresentations:
    @pytest.mark.parametrize("family", ["sign", "pair"])
    def test_only_the_monodromy_is_inverted(self, family, monkeypatch):
        # the quotient generators replay the row log of the Smith form that
        # made them, inverted, onto the basis they are pushed through; these
        # families' handles commute, so nothing is inverted until the
        # generators' inverses are read, which invert each ba that is not I
        mats = family_system(random.Random(f"inv-{family}"), family, 3, 3).mon
        inverted = []

        def spy(a):
            inverted.append(a)
            return inverse_unimodular(a)

        monkeypatch.setattr(surface, "inverse_unimodular", spy)
        monkeypatch.setattr(lattice, "inverse_unimodular", spy)
        rho = LatticeLocalSystem(3, 3, mats)
        cohomology_presentations(rho)
        assert inverted == []
        rho.mon_inv
        assert inverted == [ba for ba in _handle_products(rho, True) if ba != IntMatrix.identity(3)]
        assert inverted  # some ba of each draw is not I

    def test_three_smith_forms_and_none_of_the_kernel_basis(self, monkeypatch):
        # each representative is built by its first reader: h0_basis replays
        # snf(d0)'s column log and h1 snf(d1)'s for a kernel basis, keeping
        # only the kernel columns. The coordinates x of im d0 on that basis,
        # and the generators of h1 and h2, replay logs onto their targets, so
        # no transform is built
        g, r = 4, 3
        rho = family_system(random.Random(41), "pair", g, r)
        k = 2 * g * r - smith_normal_form(build_complex(rho).d1).rank()
        results = spy_on_smith_forms(monkeypatch)
        pres = cohomology_presentations(rho)
        steps = []
        for name in ("h0_basis", "h1", "h2"):
            getattr(pres, name)
            steps.append([(shape, built(res)) for shape, res in results])
        assert steps == [
            [((2 * g * r, r), set()), ((r, 2 * g * r), set())],
            [((2 * g * r, r), set()), ((r, 2 * g * r), set()), ((k, r), set())],
            [((2 * g * r, r), set()), ((r, 2 * g * r), set()), ((k, r), set())],
        ]
        assert pres.h1 is pres.h1  # snf(x) ran once
        assert len(results) == 3

    @pytest.mark.parametrize("family", ["trivial", "sign", "shear", "pair"])
    def test_h1_generators_match_the_exact_solve(self, family):
        # x replayed off snf(d1)'s column log against solve_exact's full Smith
        # form of the kernel basis, and the generators pushed by snf(x)'s row
        # log against the dense K @ U^-1: same group and same generator vectors
        rng = random.Random(f"gens-{family}")
        shapes = [(g, r) for g in range(6) for r in range(1, 5)]
        shapes += {"shear": [(9, 2)], "pair": [(13, 4)]}.get(family, [])
        for genus, rank in shapes:
            pres = cohomology_presentations(family_system(rng, family, genus, rank))
            kernel = kernel_matrix(pres.complex.d1)
            assert pres.h1 == subquotient_with_generators(kernel, pres.complex.d0)

    def test_generators_are_cocycles(self):
        rng = random.Random(29)
        for _ in range(15):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            pres = cohomology_presentations(random_local_system(rng, g, r))
            d1 = pres.complex.d1
            for gen in pres.h1.all_gens():
                assert all(gen.values())  # no zero is stored
                assert (d1 @ IntMatrix.from_sparse([gen], d1.cols).transpose()).is_zero()

    def test_h0_basis_is_invariant(self):
        pres = cohomology_presentations(LatticeLocalSystem.trivial(2, 1))
        assert len(pres.h0_basis) == 2
        assert (pres.complex.d0 @ IntMatrix.from_columns(pres.h0_basis, 2)).is_zero()

    def test_counts_match_groups(self):
        pres = cohomology_presentations(sign_rep())
        assert pres.triple.h1 == FgAbGroup(0, (2,))
        assert len(pres.h1.all_gens()) == pres.triple.h1.free_rank + len(pres.triple.h1.torsion)


def rank_cases(rng):
    """Empty shapes, zero columns, repeated rows and rank-deficient tall products."""
    yield from (IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0))
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 5)
        rows = rand_matrix(rng, m, n, -9, 9).row_lists()
        for j in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[j] = 0
        yield IntMatrix.from_rows(rows)
        rows = rand_matrix(rng, m, n, -9, 9).row_lists()
        yield IntMatrix.from_rows(rows + [[rng.randint(-3, 3) * x for x in rows[0]]] + rows[:2])
        k = rng.randint(0, n - 1)
        tall = rand_matrix(rng, 2 * m + n, k, -9, 9) @ rand_matrix(rng, k, n, -9, 9)
        yield tall
        yield IntMatrix(tall.rows, n, [x * (2**70 + 1) for x in tall.entries])


def test_fraction_free_rank_matches_both_references():
    # each case and its transpose: the H^0 check hands over the wide side
    for case in rank_cases(random.Random(37)):
        for a in (case, case.transpose()):
            want = fraction_rank(a)
            assert _fraction_free_rank(a) == want
            assert smith_normal_form(a).rank() == want


class TestIdentityTransports:
    # a transport equal to the identity forms no product and inverts nothing,
    # in the relator walk, the generators' inverses, omega's Gram matrix and the
    # oracle's transport table; -I is not the identity, so its products are
    # still formed

    @staticmethod
    def _spy(monkeypatch) -> Counter:
        # a product is an IntMatrix @ or one of the Gram matrix's flat products
        counts = Counter()
        matmul, gauss_jordan, det = IntMatrix.__matmul__, lattice._gauss_jordan, surface.det

        def counting_matmul(self, other):
            counts["products"] += 1
            return matmul(self, other)

        def counting_gauss_jordan(a):
            counts["inversions"] += 1
            return gauss_jordan(a)

        def counting_det(a):
            counts["determinants"] += 1
            return det(a)

        def counting(product):
            def spy(*args):
                counts["products"] += 1
                return product(*args)
            return spy

        monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
        monkeypatch.setattr(lattice, "_gauss_jordan", counting_gauss_jordan)
        monkeypatch.setattr(surface, "det", counting_det)
        monkeypatch.setattr(gerbe, "_tmul", counting(gerbe._tmul))
        monkeypatch.setattr(gerbe, "flat_mul", counting(gerbe.flat_mul))
        return counts

    @staticmethod
    def _walks(rho, b, counts) -> list[Counter]:
        """The counts each walk adds: relator walk, inverses, Gram matrix, transport table."""
        steps = []
        for walk in (
            lambda: LatticeLocalSystem(rho.rank, rho.genus, rho.mon),
            lambda: rho.mon_inv,  # built when first read, so the table reads it built
            lambda: _pairing_gram(rho, b),
            lambda: cochain._Transports(triangulate(rho.genus), rho),
        ):
            before = Counter(counts)
            walk()
            steps.append(counts - before)
        return steps

    def test_the_trivial_components_shape_forms_no_product(self, monkeypatch):
        # the g4 r4 shape of the benchmark's components jobs, end to end
        rho = LatticeLocalSystem.trivial(4, 4)
        counts = self._spy(monkeypatch)
        assert self._walks(rho, IntMatrix.identity(4), counts) == [Counter()] * 4
        spec = cli.JobSpec({
            "task": "global",
            "surface": {"genus": 4, "rank": 4},
            "level": {"c_matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                      "zeta": "1/4"},
        }, "global")
        cli._run_global(spec)
        assert counts["inversions"] == 0

    def test_a_sign_system_with_minus_identity_still_forms_products(self, monkeypatch):
        # generators -I, I, diag(1, -1), -I: the identity costs nothing. Both
        # handles commute, so the relator walk takes one determinant of each
        # ab (-I, then diag(-1, 1)), inverts nothing and forms no product;
        # every prefix is I, so no frame is a product. Reading the inverses
        # forms ba on the second handle only (b = I on the first), inverts
        # both, and forms (ba)^-1 b and a (ba)^-1 for diag(1, -1) and -I.
        # The Gram matrix's transports are X, Y, Z, Q = I, -I, I, I on the first
        # handle, which forms D_b^T B, -Y^T B and B Y (D_a = -S_a = 0), and
        # I, diag(1, -1), -I, I on the second, which forms D_a^T B, D_b^T B,
        # -Y^T B, [D_a^T B; -Y^T B] Z and B Y, and the off-handle blocks of the
        # first handle's rows with S_a and with S_b. The table forms as many
        # products as the non-identity transports its words name
        eye = IntMatrix.identity(2)
        flip = IntMatrix.from_rows([[1, 0], [0, -1]])
        rho = LatticeLocalSystem(2, 2, [-eye, eye, flip, -eye])
        transports = [eye, -eye, eye, eye, eye, flip, -eye, eye]
        assert [f for h in rho.handles for f in h[:4]] == [m.entries for m in transports]
        assert not any(rho.handles[0].s_a)
        t = triangulate(2)
        twin = LatticeLocalSystem(2, 2, rho.mon)  # its words read its inverses, not rho's
        walk = table_products(t, twin)  # the relator is the polygon's boundary word
        counts = self._spy(monkeypatch)
        steps = self._walks(rho, IntMatrix.from_rows([[2, 1], [1, 2]]), counts)
        assert walk > 0
        assert steps == [
            Counter(determinants=2),
            Counter(products=1 + 2, inversions=2),
            Counter(products=3 + 7),
            Counter(products=walk),
        ]
