import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    checked_classes,
    cochain,
    cohomology_presentations,
    cup_tensors,
    polarize,
    quad_from_bilinear,
    triangulate,
)
from qtorus.errors import NotInKernel, ShapeMismatch, UnsupportedGenus
from qtorus.gerbe import _pairing_gram, omega_numerators

from helpers import (
    check_values,
    coboundary_per_face,
    cup_matrix,
    densify,
    family_system,
    h1_vectors,
    moves,
    random_invariant_level,
    random_local_system,
    supports,
    vertex_coboundary,
)


def sign_rep():
    return LatticeLocalSystem(
        1, 1, [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])]
    )


def basis_vec(n, *idx):
    v = [0] * n
    for i in idx:
        v[i] += 1
    return tuple(v)


def paired(m, b: IntMatrix) -> int:
    """A cup tensor M paired with integer numerators B: sum of B[k][l] M[k][l]."""
    return sum(x * y for b_row, m_row in zip(b.row_lists(), m) for x, y in zip(b_row, m_row))


class TestTriangulation:
    def test_cell_counts(self):
        for g in (1, 2, 3):
            t = triangulate(g)
            assert len(t.edge_cells) == 6 * g
            assert len(t.triangles) == 4 * g
            # closed orientable surface, two vertices: V - E + F = 2 - 2g
            assert 2 - len(t.edge_cells) + len(t.triangles) == 2 - 2 * g

    def test_genus_zero_rejected(self):
        with pytest.raises(UnsupportedGenus):
            triangulate(0)

    def test_fundamental_cycle_signs(self):
        # half the triangles run with the polygon, half against
        t = triangulate(2)
        assert sum(tri.sign for tri in t.triangles) == 0
        assert sum(abs(tri.sign) for tri in t.triangles) == 8


class TestCoboundary:
    def test_vertex_cochain_gives_cocycle(self):
        # the coboundary of any 0-cochain passes the one-pass check
        rng = random.Random(3)
        for _ in range(10):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            t = triangulate(g)
            cone, base = (tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(2))
            values = vertex_coboundary(cone, base, t, rho)
            assert check_values(values, cochain._Transports(t, rho)) is not None

    def test_wrong_rank_rejected(self):
        # a vector of a rank-1 system is too short for the rank-2 system
        with pytest.raises(ShapeMismatch):
            checked_classes([(0, 0)], triangulate(1), LatticeLocalSystem.trivial(2, 1))


class TestClassOf:
    def test_zero_class(self):
        (c,) = checked_classes([(0, 0)], triangulate(1), LatticeLocalSystem.trivial(1, 1))
        assert all(v == (0,) for v in c.values.values())

    def test_holonomy_round_trip(self):
        # each class holds its vector on the generator loops, and the
        # per-face reference finds its coboundary zero
        rng = random.Random(7)
        for _ in range(15):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            t = triangulate(g)
            gens = h1_vectors(cohomology_presentations(rho))
            for vec, c in zip(gens, checked_classes(gens, t, rho)):
                assert tuple(x for j in range(2 * g) for x in c.values[("gen", j)]) == tuple(vec)
                assert not any(map(any, coboundary_per_face(c.values, t, rho)))

    def test_not_in_kernel(self):
        # sign representation: the a-holonomy must vanish mod nothing: d1 = (2 0)
        t = triangulate(1)
        with pytest.raises(NotInKernel):
            checked_classes([(1, 0)], t, sign_rep())
        (c,) = checked_classes([(0, 1)], t, sign_rep())
        assert not any(map(any, coboundary_per_face(c.values, t, sign_rep())))

    def test_wrong_length(self):
        with pytest.raises(ShapeMismatch):
            checked_classes([(1, 0, 0)], triangulate(1), LatticeLocalSystem.trivial(1, 1))

    def test_genus_mismatch(self):
        with pytest.raises(ShapeMismatch):
            checked_classes([(0, 0)], triangulate(2), LatticeLocalSystem.trivial(1, 1))

    def test_non_integer_entries_rejected(self):
        # (1.9, "1") once gave the class of (1, 1); now no entry is truncated,
        # and ints are stored as given
        t = triangulate(1)
        rho = LatticeLocalSystem.trivial(1, 1)
        for vec in ((1.9, "1"), (1.0, 1), (True, 0)):
            with pytest.raises(ShapeMismatch):
                checked_classes([vec], t, rho)
        (c,) = checked_classes([[2**70, 1]], t, rho)
        assert (c.values[("gen", 0)], c.values[("gen", 1)]) == ((2**70,), (1,))


class TestCup:
    def test_orientation_normalization(self):
        # a cup b = +1 at genus one with trivial coefficients
        cups = cup_tensors(
            checked_classes([(1, 0), (0, 1)], triangulate(1), LatticeLocalSystem.trivial(1, 1))
        )
        assert cups[0][1] == ((1,),)
        assert cups[1][0] == ((-1,),)

    def test_cup_squares_vanish(self):
        vecs = ((1, 0), (0, 1), (2, 3))
        cups = cup_tensors(checked_classes(vecs, triangulate(1), LatticeLocalSystem.trivial(1, 1)))
        assert [cups[i][i] for i in range(3)] == [((0,),)] * 3

    def test_symplectic_intersection_form(self):
        # trivial coefficients: the generator loops pair symplectically
        for g in (1, 2):
            rho = LatticeLocalSystem.trivial(1, g)
            vecs = [basis_vec(2 * g, j) for j in range(2 * g)]
            cups = cup_tensors(checked_classes(vecs, triangulate(g), rho))
            for i in range(2 * g):
                for j in range(2 * g):
                    got = cups[i][j]
                    if i % 2 == 0 and j == i + 1:
                        assert got == ((1,),)
                    elif j % 2 == 0 and i == j + 1:
                        assert got == ((-1,),)
                    else:
                        assert got == ((0,),)

    def test_bilinear_and_antisymmetric(self):
        rng = random.Random(11)
        for _ in range(8):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = random_invariant_level(rng, rho)
            p = polarize(quad_from_bilinear(level))
            t = triangulate(g)
            gens = h1_vectors(cohomology_presentations(rho))
            if not gens:
                continue
            n = len(gens)
            sums = [tuple(map(add, gens[iu], gens[iv])) for iu in range(n) for iv in range(n)]
            cocycles = checked_classes([*gens, *sums], t, rho)
            classes = tuple(cocycles)[:n]
            cups = cup_tensors(cocycles)
            # antisymmetric against an invariant level: W + W^T vanishes mod N
            w = cup_matrix(classes, p.numerators)
            for i in range(n):
                for j in range(n):
                    assert (w.entry(i, j) + w.entry(j, i)) % p.denominator == 0
            # additivity in the first slot, exactly in Lambda (x) Lambda
            for k in range(n * n):
                for c in range(n):
                    left = cups[n + k][c]
                    right = [map(add, x, y) for x, y in zip(cups[k // n][c], cups[k % n][c])]
                    assert left == tuple(map(tuple, right))

    def test_coboundary_insensitive(self):
        # a cocycle plus the coboundary of a 0-cochain pairs the same mod N
        rng = random.Random(13)
        for _ in range(10):
            g, r = rng.randint(1, 2), rng.randint(1, 2)
            rho = random_local_system(rng, g, r)
            level = random_invariant_level(rng, rho)
            p = polarize(quad_from_bilinear(level))
            t = triangulate(g)
            gens = h1_vectors(cohomology_presentations(rho))
            if len(gens) < 2:
                continue
            u, v = checked_classes(gens[:2], t, rho)
            cone, base = (tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(2))
            d = vertex_coboundary(cone, base, t, rho)
            shifted = check_values(
                {cell: tuple(map(add, x, d[cell])) for cell, x in u.values.items()}, u.table
            )
            assert shifted is not None
            w = cup_matrix((shifted, u, v), p.numerators)
            assert (w.entry(0, 2) - w.entry(1, 2)) % p.denominator == 0
            assert (w.entry(2, 0) - w.entry(2, 1)) % p.denominator == 0

    def test_rejects_non_cocycles(self):
        # the sign representation's a-loop value 1 with zero radial values is
        # no cocycle: the check makes no Cocycle of it, so no cup can take it
        t = triangulate(1)
        (good,) = checked_classes([(0, 1)], t, sign_rep())
        bad = {cell: ((1,) if cell == ("gen", 0) else (0,)) for cell in t.edge_cells}
        assert check_values(bad, good.table) is None
        assert check_values(good.values, good.table) is not None


class TestCheckedCup:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_the_per_triangle_sum(self, data):
        # the cup in Lambda (x) Lambda, paired once with integer numerators B,
        # equals cup_matrix's sum of sign * front^T B back over the triangles,
        # for invariant levels and arbitrary symmetric B alike
        genus = data.draw(st.integers(1, 3), label="genus")
        rank = data.draw(st.integers(1, 3), label="rank")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        source = data.draw(st.sampled_from(["random", "trivial", "sign", "shear", "pair"]))
        if source == "random":
            rho = random_local_system(rng, genus, rank)
        else:
            rho = family_system(rng, source, genus, rank)
        if data.draw(st.booleans(), label="invariant level"):
            b = polarize(quad_from_bilinear(random_invariant_level(rng, rho))).numerators
        else:
            upper = data.draw(st.lists(st.integers(-12, 12), min_size=rank**2, max_size=rank**2))
            b = IntMatrix(rank, rank, [
                upper[min(i, j) * rank + max(i, j)] for i in range(rank) for j in range(rank)
            ])
        gens = h1_vectors(cohomology_presentations(rho))
        cocycles = checked_classes(gens, triangulate(genus), rho)
        if not cocycles:
            return
        w = cup_matrix(cocycles, b)
        for i, row in enumerate(cup_tensors(cocycles)):
            for j, m in enumerate(row):
                assert paired(m, b) == w.entry(i, j)


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
        gens = h1_vectors(cohomology_presentations(rho))
        h1 = [0] * (2 * rho.genus * r)
        for g in gens:
            k = rng.choice((-2, -1, 1, 2))
            h1 = [x + k * y for x, y in zip(h1, g)]
        (u,) = checked_classes([h1], t, rho)
        for cell in t.edge_cells:
            for i in range(r):
                values = dict(u.values)
                bumped = list(values[cell])
                bumped[i] += rng.choice((-3, -2, -1, 1, 2, 3))
                values[cell] = tuple(bumped)
                assert check_values(values, u.table) is None, (cell, i)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("family", ["shear", "pair", "random"])
    def test_coboundary_matches_the_per_face_reference(self, family, genus, rank):
        rho = _oracle_system(family, genus, rank)
        rng = random.Random(f"coboundary-{family}-{genus}-{rank}")
        t = triangulate(rho.genus)
        table = cochain._Transports(t, rho)
        for k in (1, 3):
            # a batch of k cochains: column i of each block is cochain i's value
            values = [
                {cell: tuple(rng.randint(-3, 3) for _ in range(rho.rank)) for cell in t.edge_cells}
                for _ in range(k)
            ]
            blocks = {cell: tuple(zip(*(v[cell] for v in values))) for cell in t.edge_cells}
            sums = cochain._alternating_sums(cochain._chart_faces(blocks, table))
            for i, v in enumerate(values):
                column = [tuple(row[i] for row in block) for block in sums]
                assert column == coboundary_per_face(v, t, rho)

    @pytest.mark.parametrize("genus", [1, 2, 3, 8])
    def test_matrix_vector_products_per_checked_cocycle(self, genus, monkeypatch):
        # work guard: a batch of checked cocycles costs one block product per
        # radial step and one per triangle face whose transport is not the
        # identity, the same for one H^1 vector, a matrix-vector product each,
        # as for all of them. Of the 4g radial steps, side 0's reads the empty
        # prefix; of the 12g faces, the 8g radial ones and triangle 0's
        # generator face sit there, so each count is at most 4g - 1. The rest
        # are counted from the words the indices name: the coboundary test and
        # the cup's faces share one carried block per face, and the transport
        # table itself is built by matrix products
        rho = family_system(random.Random(f"guard-{genus}"), "pair", genus, 2)
        t = triangulate(genus)
        gens = h1_vectors(cohomology_presentations(rho))
        assert gens
        steps = sum(
            moves(t, rho, k if eps == 1 else k + 1) for k, (_, eps) in enumerate(t.side_letter)
        )
        faces = sum(moves(t, rho, face.at) for tri in t.triangles for face in tri.faces)
        calls = []  # the number of vectors in each product's block
        times = cochain._times

        def counting_times(m, block):
            calls.append(len(block[0]))
            return times(m, block)

        monkeypatch.setattr(cochain, "_times", counting_times)
        checked_classes(gens[:1], t, rho)
        one = list(calls)
        calls.clear()
        checked_classes(gens, t, rho)
        monkeypatch.undo()
        assert 0 < steps <= 4 * genus - 1 and 0 < faces <= 4 * genus - 1
        assert len(gens) > 1
        assert one == [1] * (steps + faces) and calls == [len(gens)] * (steps + faces)


def _batch_vectors(rho, rng):
    """A local system's H^1 generators and three random integer combinations of them."""
    gens = h1_vectors(cohomology_presentations(rho))
    combos = []
    for _ in range(3):
        coefficients = [rng.randint(-2, 2) for _ in gens]
        combos.append(tuple(map(sum, zip(*([c * x for x in g] for c, g in zip(coefficients, gens))))))
    return gens + combos


class TestAllPairsCup:
    # the oracle carries one column per vector through the walk, the check and
    # the cup; a column mixed up anywhere on the way pairs the wrong vectors

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("family", ["shear", "pair", "random"])
    def test_each_entry_is_the_cup_of_its_two_vector_batch(self, family, genus, rank):
        rho = _oracle_system(family, genus, rank)
        t = triangulate(genus)
        vecs = _batch_vectors(rho, random.Random(f"pairs-{family}-{genus}-{rank}"))
        cups = cup_tensors(checked_classes(vecs, t, rho))
        assert len(cups) == len(vecs) and all(len(row) == len(vecs) for row in cups)
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                assert cups[i][j] == cup_tensors(checked_classes([u, v], t, rho))[0][1], (i, j)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("family", ["shear", "pair", "random"])
    def test_permuting_the_vectors_permutes_the_cups(self, family, genus, rank):
        rho = _oracle_system(family, genus, rank)
        t = triangulate(genus)
        rng = random.Random(f"permute-{family}-{genus}-{rank}")
        vecs = _batch_vectors(rho, rng)
        order = list(range(len(vecs)))
        rng.shuffle(order)
        cups = cup_tensors(checked_classes(vecs, t, rho))
        permuted = cup_tensors(checked_classes([vecs[k] for k in order], t, rho))
        assert permuted == [[cups[a][b] for b in order] for a in order]


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
        # checked_classes builds, so their integers agree at any level; a random c over 7
        # reads more of P than the few levels these systems preserve
        r = self.RANK
        nonzero = 0
        read_off_handle = set()  # systems whose sampled entries read P between two handles
        for family, genus in self.SYSTEMS:
            rng = random.Random(f"report-scale-{family}-g{genus}")
            rho = family_system(rng, family, genus, r)
            gens = h1_vectors(cohomology_presentations(rho))
            c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
            p = polarize(quad_from_bilinear(BilinearData(c, Frac1(1, self.DEN))))
            starts = [rng.randrange(len(gens)) for _ in range(self.PAIRS)]
            pairs = [(i, (i + rng.randrange(4 * r)) % len(gens)) for i in starts]
            used = sorted({i for pair in pairs for i in pair})
            at = {i: k for k, i in enumerate(used)}
            sampled = [gens[i] for i in used]
            w = densify(omega_numerators(rho, p.numerators, supports(sampled)))
            cups = cup_tensors(checked_classes(sampled, triangulate(genus), rho))
            gram = densify(_pairing_gram(rho, p.numerators))
            for i, j in pairs:
                closed = w.entry(at[i], at[j])
                cup = cups[at[i]][at[j]]
                assert closed == paired(cup, p.numerators), (family, genus, i, j)
                nonzero += bool(closed % p.denominator)
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
        gens = h1_vectors(cohomology_presentations(rho))
        c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
        p = polarize(quad_from_bilinear(BilinearData(c, Frac1(1, self.DEN))))
        w = densify(omega_numerators(rho, p.numerators, supports(gens)))
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
        # generator-major: loop j holds entries j * r to (j + 1) * r
        (c,) = checked_classes([(1, 2, 3, 4)], triangulate(1), LatticeLocalSystem.trivial(2, 1))
        assert [c.values[("gen", j)] for j in range(2)] == [(1, 2), (3, 4)]
