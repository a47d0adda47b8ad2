import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    SymmetricForm,
    TwistedCochain,
    checked_classes,
    class_of,
    coboundary,
    cocycle_check,
    cohomology_presentations,
    cup_evaluate,
    cup_tensor,
    holonomies,
    pair_cup,
    polarize,
    quad_from_bilinear,
    triangulate,
)
from qtorus.errors import NotACocycle, NotInKernel, ShapeMismatch, UnsupportedGenus
from qtorus.forms import ZERO
from qtorus.gerbe import _pairing_gram, omega_numerators
from qtorus.selfcheck import _local_system

from helpers import (
    coboundary_per_face,
    cup_matrix,
    cup_per_triangle,
    densify,
    family_system,
    fields,
    moves,
    random_invariant_level,
    random_local_system,
)

FIFTH = Frac1(1, 5)


def scalar_pairing(num, den):
    return SymmetricForm(1, ((Frac1(num, den),),))


def sign_rep():
    from qtorus import IntMatrix

    return LatticeLocalSystem(
        1, 1, [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])]
    )


def add_cochains(c1, c2):
    vals = {cell: tuple(a + b for a, b in zip(v, c2.value(cell))) for cell, v in c1.values.items()}
    return TwistedCochain(c1.degree, c1.rank, vals)


def basis_vec(n, *idx):
    v = [0] * n
    for i in idx:
        v[i] += 1
    return tuple(v)


class TestTriangulation:
    def test_cell_counts(self):
        for g in (1, 2, 3):
            t = triangulate(g)
            assert len(t.cells_of_degree(0)) == 2
            assert len(t.cells_of_degree(1)) == 6 * g
            assert len(t.cells_of_degree(2)) == 4 * g
            # closed orientable surface: V - E + F = 2 - 2g
            assert 2 - 6 * g + 4 * g == 2 - 2 * g

    def test_genus_zero_rejected(self):
        with pytest.raises(UnsupportedGenus):
            triangulate(0)

    def test_degree_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            triangulate(1).cells_of_degree(3)

    def test_fundamental_cycle_signs(self):
        # half the triangles run with the polygon, half against
        t = triangulate(2)
        assert sum(tri.sign for tri in t.triangles) == 0
        assert sum(abs(tri.sign) for tri in t.triangles) == 8


class TestCoboundary:
    def test_vertex_cochain_gives_cocycle(self):
        rng = random.Random(3)
        for _ in range(10):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            t = triangulate(g)
            c0 = TwistedCochain(
                0,
                r,
                {cell: tuple(rng.randint(-3, 3) for _ in range(r)) for cell in t.cells_of_degree(0)},
            )
            assert cocycle_check(coboundary(c0, t, rho), t, rho)

    def test_no_coboundary_in_top_degree(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        c2 = TwistedCochain(2, 1, {cell: (1,) for cell in t.cells_of_degree(2)})
        with pytest.raises(ShapeMismatch):
            coboundary(c2, t, rho)

    def test_top_degree_vacuously_closed(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        c2 = TwistedCochain(2, 1, {cell: (7,) for cell in t.cells_of_degree(2)})
        assert cocycle_check(c2, t, rho)

    def test_missing_cell_rejected(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        with pytest.raises(ShapeMismatch):
            cocycle_check(TwistedCochain(1, 1, {("gen", 0): (1,)}), t, rho)

    def test_non_integer_values_rejected(self):
        # a float or bool value is refused, not truncated; ints are stored as given
        cells = triangulate(1).cells_of_degree(1)
        for bad in (1.9, True, "1"):
            with pytest.raises(ShapeMismatch):
                TwistedCochain(1, 1, {c: ((bad,) if c == ("gen", 0) else (0,)) for c in cells})
        c = TwistedCochain(1, 1, {cell: (2**70,) for cell in cells})
        assert c.values == {cell: (2**70,) for cell in cells}

    def test_wrong_rank_rejected(self):
        rho = LatticeLocalSystem.trivial(2, 1)
        t = triangulate(1)
        cells = t.cells_of_degree(1)
        with pytest.raises(ShapeMismatch):
            cocycle_check(TwistedCochain(1, 1, {c: (0,) for c in cells}), t, rho)


class TestClassOf:
    def test_zero_class(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        c = class_of((0, 0), t, rho)
        assert all(v == (0,) for v in c.values.values())

    def test_holonomy_round_trip(self):
        rng = random.Random(7)
        for _ in range(15):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            t = triangulate(g)
            pres = cohomology_presentations(rho)
            for vec in pres.h1.all_gens():
                c = class_of(vec, t, rho)
                assert holonomies(c, t) == tuple(vec)
                assert cocycle_check(c, t, rho)

    def test_not_in_kernel(self):
        # sign representation: the a-holonomy must vanish mod nothing: d1 = (2 0)
        t = triangulate(1)
        with pytest.raises(NotInKernel):
            class_of((1, 0), t, sign_rep())
        c = class_of((0, 1), t, sign_rep())
        assert cocycle_check(c, t, sign_rep())

    def test_wrong_length(self):
        t = triangulate(1)
        with pytest.raises(ShapeMismatch):
            class_of((1, 0, 0), t, LatticeLocalSystem.trivial(1, 1))

    def test_genus_mismatch(self):
        with pytest.raises(ShapeMismatch):
            class_of((0, 0), triangulate(2), LatticeLocalSystem.trivial(1, 1))

    def test_non_integer_entries_rejected(self):
        # (1.9, "1") once gave the class of (1, 1); now no entry is truncated
        t = triangulate(1)
        rho = LatticeLocalSystem.trivial(1, 1)
        for vec in ((1.9, "1"), (1.0, 1), (True, 0)):
            with pytest.raises(ShapeMismatch):
                class_of(vec, t, rho)
            with pytest.raises(ShapeMismatch):
                checked_classes([vec], t, rho)
        assert holonomies(class_of([1, 1], t, rho), t) == (1, 1)


class TestCup:
    def test_orientation_normalization(self):
        # a cup b = +1 at genus one with trivial coefficients
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        p = scalar_pairing(1, 5)
        a = class_of((1, 0), t, rho)
        b = class_of((0, 1), t, rho)
        assert cup_evaluate(a, b, p, t, rho) == FIFTH
        assert cup_evaluate(b, a, p, t, rho) == Frac1(4, 5)

    def test_cup_squares_vanish(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        p = scalar_pairing(1, 5)
        for vec in ((1, 0), (0, 1), (2, 3)):
            c = class_of(vec, t, rho)
            assert cup_evaluate(c, c, p, t, rho) == ZERO

    def test_symplectic_intersection_form(self):
        # trivial coefficients: the generator loops pair symplectically
        for g in (1, 2):
            rho = LatticeLocalSystem.trivial(1, g)
            t = triangulate(g)
            p = scalar_pairing(1, 5)
            classes = [class_of(basis_vec(2 * g, j), t, rho) for j in range(2 * g)]
            for i in range(2 * g):
                for j in range(2 * g):
                    got = cup_evaluate(classes[i], classes[j], p, t, rho)
                    if i % 2 == 0 and j == i + 1:
                        assert got == FIFTH
                    elif j % 2 == 0 and i == j + 1:
                        assert got == Frac1(4, 5)
                    else:
                        assert got == ZERO

    def test_bilinear_and_antisymmetric(self):
        rng = random.Random(11)
        for _ in range(8):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = random_invariant_level(rng, rho)
            p = polarize(quad_from_bilinear(level))
            t = triangulate(g)
            gens = cohomology_presentations(rho).h1.all_gens()
            if not gens:
                continue
            classes = [class_of(v, t, rho) for v in gens]
            for u in classes:
                for v in classes:
                    uv = cup_evaluate(u, v, p, t, rho)
                    vu = cup_evaluate(v, u, p, t, rho)
                    assert uv + vu == ZERO
            # additivity in the first slot
            for iu in range(len(classes)):
                for iv in range(len(classes)):
                    for iw in range(len(classes)):
                        s = tuple(a + b for a, b in zip(gens[iu], gens[iv]))
                        left = cup_evaluate(class_of(s, t, rho), classes[iw], p, t, rho)
                        right = cup_evaluate(classes[iu], classes[iw], p, t, rho) + cup_evaluate(
                            classes[iv], classes[iw], p, t, rho
                        )
                        assert left == right

    def test_coboundary_insensitive(self):
        rng = random.Random(13)
        for _ in range(10):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = random_invariant_level(rng, rho)
            p = polarize(quad_from_bilinear(level))
            t = triangulate(g)
            gens = cohomology_presentations(rho).h1.all_gens()
            if len(gens) < 2:
                continue
            u = class_of(gens[0], t, rho)
            v = class_of(gens[1], t, rho)
            c0 = TwistedCochain(
                0,
                r,
                {cell: tuple(rng.randint(-2, 2) for _ in range(r)) for cell in t.cells_of_degree(0)},
            )
            shifted = add_cochains(u, coboundary(c0, t, rho))
            assert cup_evaluate(shifted, v, p, t, rho) == cup_evaluate(u, v, p, t, rho)
            assert cup_evaluate(v, shifted, p, t, rho) == cup_evaluate(v, u, p, t, rho)

    def test_rejects_non_cocycles(self):
        rho = sign_rep()
        t = triangulate(1)
        p = scalar_pairing(1, 2)
        cells = t.cells_of_degree(1)
        bad = TwistedCochain(1, 1, {c: ((1,) if c == ("gen", 0) else (0,)) for c in cells})
        good = class_of((0, 1), t, rho)
        with pytest.raises(NotACocycle):
            cup_evaluate(bad, good, p, t, rho)
        with pytest.raises(NotACocycle):
            cup_evaluate(good, bad, p, t, rho)

    def test_rejects_wrong_degree(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        p = scalar_pairing(1, 2)
        c0 = TwistedCochain(0, 1, {c: (0,) for c in t.cells_of_degree(0)})
        c1 = class_of((0, 0), t, rho)
        with pytest.raises(NotACocycle):
            cup_evaluate(c0, c1, p, t, rho)


class TestCheckedCup:
    @pytest.mark.parametrize("family", ["trivial", "signs", "shear"])
    def test_agrees_with_cup_evaluate(self, family):
        rng = random.Random(f"checked-{family}")
        for genus in (1, 2, 3):
            for rank in (1, 2):
                rho = _local_system(rng, genus, rank, family)
                p = polarize(quad_from_bilinear(random_invariant_level(rng, rho)))
                t = triangulate(genus)
                gens = cohomology_presentations(rho).h1.all_gens()
                cocycles = checked_classes(gens, t, rho)
                assert [fields(a.cochain) for a in cocycles] == [
                    fields(class_of(g, t, rho)) for g in gens
                ]
                for a in cocycles:
                    for b in cocycles:
                        assert pair_cup(cup_tensor(a, b), p) == cup_evaluate(
                            a.cochain, b.cochain, p, t, rho
                        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_the_per_triangle_sum(self, data):
        # the cup in Lambda (x) Lambda, paired once, equals the sum of one
        # pairing per triangle, for invariant levels and arbitrary symmetric
        # pairings alike
        genus = data.draw(st.integers(1, 3), label="genus")
        rank = data.draw(st.integers(1, 3), label="rank")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        source = data.draw(st.sampled_from(["random", "trivial", "sign", "shear", "pair"]))
        if source == "random":
            rho = random_local_system(rng, genus, rank)
        else:
            rho = family_system(rng, source, genus, rank)
        if data.draw(st.booleans(), label="invariant level"):
            p = polarize(quad_from_bilinear(random_invariant_level(rng, rho)))
        else:
            values = st.builds(Frac1, st.integers(-12, 12), st.integers(1, 12))
            upper = data.draw(st.lists(values, min_size=rank * rank, max_size=rank * rank))
            p = SymmetricForm(rank, tuple(
                tuple(upper[min(i, j) * rank + max(i, j)] for j in range(rank))
                for i in range(rank)
            ))
        gens = cohomology_presentations(rho).h1.all_gens()
        cocycles = checked_classes(gens, triangulate(genus), rho)
        for a in cocycles:
            for b in cocycles:
                assert pair_cup(cup_tensor(a, b), p) == cup_per_triangle(a, b, p)

    def test_rejects_cocycles_of_two_tables(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        t = triangulate(1)
        (a,) = checked_classes([(1, 0)], t, rho)
        (b,) = checked_classes([(0, 1)], t, rho)
        with pytest.raises(ShapeMismatch):
            pair_cup(cup_tensor(a, b), scalar_pairing(1, 2))

    def test_rejects_pairing_of_wrong_rank(self):
        rho = LatticeLocalSystem.trivial(1, 1)
        a, b = checked_classes([(1, 0), (0, 1)], triangulate(1), rho)
        assert pair_cup(cup_tensor(a, b), scalar_pairing(1, 2)) == Frac1(1, 2)
        with pytest.raises(ShapeMismatch):
            pair_cup(cup_tensor(a, b), SymmetricForm(2, ((ZERO, ZERO), (ZERO, ZERO))))


def _oracle_system(family, genus, rank):
    """A seeded shear, pair or random local system."""
    rng = random.Random(f"one-pass-{family}-{genus}-{rank}")
    if family == "random":
        return random_local_system(rng, genus, rank)
    rho = family_system(rng, family, genus, rank)
    # at rank > 1 these families move the faces off the chart's identity
    assert rank == 1 or any(m != IntMatrix.identity(rank) for m in rho.mon)
    return rho


class TestOnePassCheck:
    # the cocycle check carries each triangle's three faces to the chart once
    # and reads both the coboundary and the cup's faces from those values;
    # these tests pin what that pass must still see, on monodromy that makes
    # faces at nonzero transport indices differ from the chart

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("family", ["shear", "pair", "random"])
    def test_any_single_edge_perturbation_is_caught(self, family, genus, rank):
        # every edge cell lies on two triangle sides, and a change there moves
        # each side's coboundary by an invertible matrix times it, so the
        # check must reject every single-edge perturbation of a cocycle
        rho = _oracle_system(family, genus, rank)
        rng = random.Random(f"perturb-{family}-{genus}-{rank}")
        t = triangulate(rho.genus)
        r = rho.rank
        gens = cohomology_presentations(rho).h1.all_gens()
        h1 = [0] * (2 * rho.genus * r)
        for g in gens:
            k = rng.choice((-2, -1, 1, 2))
            h1 = [x + k * y for x, y in zip(h1, g)]
        u = class_of(h1, t, rho)
        assert cocycle_check(u, t, rho)
        p = SymmetricForm(r, tuple(
            tuple(Frac1(1, 2) if i == j else ZERO for j in range(r)) for i in range(r)
        ))
        cup_evaluate(u, u, p, t, rho)  # the unperturbed cocycle passes
        for cell in t.cells_of_degree(1):
            for i in range(r):
                values = dict(u.values)
                bumped = list(values[cell])
                bumped[i] += rng.choice((-3, -2, -1, 1, 2, 3))
                values[cell] = tuple(bumped)
                bad = TwistedCochain(1, r, values)
                assert not cocycle_check(bad, t, rho), (cell, i)
                with pytest.raises(NotACocycle):
                    cup_evaluate(bad, u, p, t, rho)
                with pytest.raises(NotACocycle):
                    cup_evaluate(u, bad, p, t, rho)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("family", ["shear", "pair", "random"])
    def test_coboundary_matches_the_per_face_reference(self, family, genus, rank):
        rho = _oracle_system(family, genus, rank)
        rng = random.Random(f"coboundary-{family}-{genus}-{rank}")
        t = triangulate(rho.genus)
        for _ in range(3):
            c = TwistedCochain(1, rho.rank, {
                cell: tuple(rng.randint(-3, 3) for _ in range(rho.rank))
                for cell in t.cells_of_degree(1)
            })
            assert coboundary(c, t, rho).values == coboundary_per_face(c, t, rho)

    @pytest.mark.parametrize("genus", [1, 2, 3, 8])
    def test_matrix_vector_products_per_checked_cocycle(self, genus, monkeypatch):
        # work guard: a checked cocycle costs one product per radial step and
        # one per triangle face whose transport is not the identity. Of the 4g
        # radial steps, side 0's reads the empty prefix; of the 12g faces, the
        # 8g radial ones and triangle 0's generator face sit there, so each
        # count is at most 4g - 1. The rest are counted from the words the
        # indices name: the coboundary test and the cup's faces share one
        # carried value per face, and the transport table itself is built by
        # matrix products
        rho = family_system(random.Random(f"guard-{genus}"), "pair", genus, 2)
        t = triangulate(genus)
        gens = cohomology_presentations(rho).h1.all_gens()
        assert gens
        steps = sum(
            moves(t, rho, k if eps == 1 else k + 1) for k, (_, eps) in enumerate(t.side_letter)
        )
        faces = sum(moves(t, rho, face.at) for tri in t.triangles for face in tri.faces)
        calls = [0]
        mul_vec = IntMatrix.mul_vec

        def counting_mul_vec(self, vec):
            calls[0] += 1
            return mul_vec(self, vec)

        monkeypatch.setattr(IntMatrix, "mul_vec", counting_mul_vec)
        checked_classes(gens, t, rho)
        monkeypatch.undo()
        assert 0 < steps <= 4 * genus - 1 and 0 < faces <= 4 * genus - 1
        assert calls[0] == len(gens) * (steps + faces)


class TestReportScale:
    # omega's closed form against the oracle on the systems reports run:
    # g16 and g32 at rank 4, plus a g13 handle-pair system like the
    # surface_twisted jobs. Each system draws 8 generator pairs, a generator
    # and one of the 4r from it on, so that where the generators follow the
    # coordinates some pairs hold a handle's two loops; W and the oracle see
    # only the generators those pairs name
    SYSTEMS = [(f, g) for g in (16, 32) for f in ("trivial", "sign", "shear")] + [("pair", 13)]
    RANK, DEN, PAIRS = 4, 7, 8

    def test_sampled_omega_entries_match_the_oracle(self):
        # both routes sum the same term per relator letter over the cocycles
        # class_of builds, so they agree at any level; a random c over 7
        # reads more of P than the few levels these systems preserve
        r = self.RANK
        nonzero = 0
        read_off_handle = set()  # systems whose sampled entries read P between two handles
        for family, genus in self.SYSTEMS:
            rng = random.Random(f"report-scale-{family}-g{genus}")
            rho = family_system(rng, family, genus, r)
            gens = cohomology_presentations(rho).h1.all_gens()
            c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
            p = polarize(quad_from_bilinear(BilinearData(c, Frac1(1, self.DEN))))
            starts = [rng.randrange(len(gens)) for _ in range(self.PAIRS)]
            pairs = [(i, (i + rng.randrange(4 * r)) % len(gens)) for i in starts]
            used = sorted({i for pair in pairs for i in pair})
            at = {i: k for k, i in enumerate(used)}
            sampled = [gens[i] for i in used]
            w = densify(omega_numerators(rho, p, sampled))
            cocycles = checked_classes(sampled, triangulate(genus), rho)
            gram = densify(_pairing_gram(rho, p.numerators))
            for i, j in pairs:
                closed = Frac1(w.entry(at[i], at[j]), p.denominator)
                cup = cup_tensor(cocycles[at[i]], cocycles[at[j]])
                assert closed == pair_cup(cup, p), (family, genus, i, j)
                nonzero += bool(closed)
                if off_handle_value(gram, 2 * r, gens[i], gens[j]) % p.denominator:
                    read_off_handle.add((family, genus))
        assert nonzero >= 10
        # P's blocks between two handles come from _pairing_gram's finished
        # rows; these systems' sampled entries depend on them
        assert {("sign", 32), ("pair", 13)} <= read_off_handle


class TestWholeGram:
    # every entry of W at report scale, not a sample: the closed form's
    # G^T P G against the simplicial cup of all pairs at once, in integers,
    # so a fault in any block of P, on or off the handles, or in G shows
    RANK, DEN = 4, 7

    @pytest.mark.parametrize("family, genus", [("trivial", 16), ("sign", 16), ("shear", 16), ("pair", 13)])
    def test_every_omega_entry_matches_the_oracle(self, family, genus):
        r = self.RANK
        rng = random.Random(f"whole-w-{family}-g{genus}")
        rho = family_system(rng, family, genus, r)
        gens = cohomology_presentations(rho).h1.all_gens()
        c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
        p = polarize(quad_from_bilinear(BilinearData(c, Frac1(1, self.DEN))))
        w = densify(omega_numerators(rho, p, gens))
        assert w.rows == len(gens) >= 2 * (genus - 1) * r and not w.is_zero()
        assert w == cup_matrix(checked_classes(gens, triangulate(genus), rho), p.numerators)


def off_handle_value(gram, width, u, v):
    """u^T P v over the entries of P whose row and column lie in different handles."""
    return sum(
        x * gram.entry(k, l) * y
        for k, x in enumerate(u)
        if x
        for l, y in enumerate(v)
        if y and k // width != l // width
    )


class TestHolonomies:
    def test_reads_generator_cells(self):
        rho = LatticeLocalSystem.trivial(2, 1)
        t = triangulate(1)
        c = class_of((1, 2, 3, 4), t, rho)
        assert holonomies(c, t) == (1, 2, 3, 4)

    def test_wrong_degree(self):
        t = triangulate(1)
        c0 = TwistedCochain(0, 1, {cell: (0,) for cell in t.cells_of_degree(0)})
        with pytest.raises(ShapeMismatch):
            holonomies(c0, t)


class TestOneValidation:
    # class_of's cochain is built from checked integer slices, so neither
    # TwistedCochain.__init__ nor _check_compat runs on it; a cochain
    # from outside keeps both checks at every entry point

    @staticmethod
    def _system():
        rho = family_system(random.Random("validation"), "pair", 2, 2)
        t = triangulate(2)
        u = class_of(cohomology_presentations(rho).h1.all_gens()[0], t, rho)
        pairing = SymmetricForm(2, ((Frac1(1, 2), ZERO), (ZERO, Frac1(1, 2))))
        return rho, t, u, pairing

    def test_class_of_builds_its_cochain_unchecked(self, monkeypatch):
        from qtorus import cochain

        rho, t, u, _ = self._system()
        runs = []
        init, compat = TwistedCochain.__init__, cochain._check_compat

        def counting_init(c, *args):
            runs.append("init")
            init(c, *args)

        def counting_compat(c, table):
            runs.append("compat")
            compat(c, table)

        monkeypatch.setattr(TwistedCochain, "__init__", counting_init)
        monkeypatch.setattr(cochain, "_check_compat", counting_compat)
        assert fields(class_of(holonomies(u, t), t, rho)) == fields(u)
        assert runs == []
        monkeypatch.undo()
        assert fields(TwistedCochain(1, 2, dict(u.values))) == fields(u)  # a checked build agrees

    @pytest.mark.parametrize("fault", ["bool entry", "wrong length", "missing cell", "extra cell"])
    @pytest.mark.parametrize("entry", ["coboundary", "cocycle_check", "cup first", "cup second"])
    def test_outside_cochains_are_checked(self, entry, fault):
        rho, t, u, pairing = self._system()
        values = dict(u.values)
        cell = ("gen", 1)
        if fault == "bool entry":
            values[cell] = (True, 0)
        elif fault == "wrong length":
            values[cell] += (0,)
        elif fault == "missing cell":
            del values[cell]
        else:
            values[("gen", 4)] = (0, 0)
        run = {
            "coboundary": lambda c: coboundary(c, t, rho),
            "cocycle_check": lambda c: cocycle_check(c, t, rho),
            "cup first": lambda c: cup_evaluate(c, u, pairing, t, rho),
            "cup second": lambda c: cup_evaluate(u, c, pairing, t, rho),
        }[entry]
        with pytest.raises(ShapeMismatch):
            run(TwistedCochain(1, 2, values))
