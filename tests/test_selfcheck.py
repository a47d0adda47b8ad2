import json
from collections import Counter

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    class_of,
    cohomology_presentations,
    cup_checked,
    cup_evaluate,
    pairing_on_cocycles,
    polarize,
    quad_from_bilinear,
    run_selfcheck,
    triangulate,
)
from qtorus import cochain, selfcheck

SHIFT = Frac1(1, 7)


def test_mismatch_record_replays(monkeypatch):
    # a shifted oracle disagrees on every case; the first record alone must
    # rebuild the local system, the level and both sides of the comparison
    monkeypatch.setattr(
        selfcheck, "cup_checked", lambda *args: cup_checked(*args) + SHIFT
    )
    result = run_selfcheck(5)
    assert not result.ok and result.mismatches
    record = json.loads(json.dumps(result.mismatches[0]))

    mon = [IntMatrix.from_rows(m) for m in record["monodromy"]]
    rho = LatticeLocalSystem(record["rank"], record["genus"], mon)
    level = BilinearData(IntMatrix.from_rows(record["c_matrix"]), Frac1.parse(record["zeta"]))
    pairing = polarize(quad_from_bilinear(level))
    u, v = record["u"], record["v"]
    assert str(pairing_on_cocycles(pairing, rho, u, v)) == record["closed"]

    tri = triangulate(rho.genus)
    simplicial = cup_evaluate(class_of(u, tri, rho), class_of(v, tri, rho), pairing, tri, rho)
    assert str(simplicial + SHIFT) == record["simplicial"]


def test_one_table_and_one_check_per_local_system(monkeypatch):
    # word_matrix runs once per distinct face word of each local system, and
    # the coboundary once per cocycle built: one per H^1 generator
    words = {}  # id(rho) -> (rho, Counter of words); holding rho keeps ids unique
    runs = {}  # id(table) -> (table, coboundary runs)
    word_matrix = LatticeLocalSystem.word_matrix
    coboundary = cochain._coboundary

    def counting_word_matrix(self, word):
        words.setdefault(id(self), (self, Counter()))[1][word] += 1
        return word_matrix(self, word)

    def counting_coboundary(c, table):
        held, n = runs.get(id(table), (table, 0))
        runs[id(table)] = (held, n + 1)
        return coboundary(c, table)

    monkeypatch.setattr(LatticeLocalSystem, "word_matrix", counting_word_matrix)
    monkeypatch.setattr(cochain, "_coboundary", counting_coboundary)
    assert run_selfcheck(5).ok
    monkeypatch.undo()

    assert len(words) == len(runs) == 12  # genus 1-2, rank 1-2, three families
    for (rho, seen), (table, n) in zip(words.values(), runs.values()):
        t = triangulate(rho.genus)
        faces = set(t.prefix_words) | {(j + 1,) for j in range(2 * rho.genus)}
        assert seen == Counter(dict.fromkeys(faces, 1))
        assert table.t.genus == rho.genus and table.rank == rho.rank
        assert n == len(cohomology_presentations(rho).h1.all_gens())


def test_letter_vectors_once_per_generator_and_one_frac1_per_pair(monkeypatch):
    # the closed route walks the relator once per H^1 generator of each local
    # system, whatever the number of levels; each (level, pair) is then one
    # integer sum, reduced to a single Frac1
    walks = {}  # id(rho) -> (rho, vectors walked); holding rho keeps ids unique
    built = []  # Frac1 constructions inside each closed-route pair
    created = [0]
    frac1_init = Frac1.__init__
    letter_vectors = selfcheck.letter_vectors
    pairing_on_letters = selfcheck.pairing_on_letters

    def counting_init(self, num, den=1):
        created[0] += 1
        frac1_init(self, num, den)

    def counting_letter_vectors(rho, u):
        walks.setdefault(id(rho), (rho, []))[1].append(tuple(u))
        return letter_vectors(rho, u)

    def counting_pairing_on_letters(pairing, u, v):
        before = created[0]
        value = pairing_on_letters(pairing, u, v)
        built.append(created[0] - before)
        return value

    monkeypatch.setattr(Frac1, "__init__", counting_init)
    monkeypatch.setattr(selfcheck, "letter_vectors", counting_letter_vectors)
    monkeypatch.setattr(selfcheck, "pairing_on_letters", counting_pairing_on_letters)
    result = run_selfcheck(5)
    monkeypatch.undo()

    assert result.ok
    assert len(walks) == 12  # genus 1-2, rank 1-2, three families
    assert sum(len(walked) for _, walked in walks.values()) == 43
    for rho, walked in walks.values():
        assert walked == [tuple(g) for g in cohomology_presentations(rho).h1.all_gens()]
    assert len(built) > result.cases and set(built) == {1}


def test_each_level_form_built_once(monkeypatch):
    # the form that passed the invariance check is the one the pairing uses
    built = []
    checked = []
    quad_from_bilinear = selfcheck.quad_from_bilinear
    invariance_check = selfcheck.invariance_check

    def counting_quad(level):
        built.append(level)
        return quad_from_bilinear(level)

    def counting_check(q, rho):
        checked.append(q)
        return invariance_check(q, rho)

    monkeypatch.setattr(selfcheck, "quad_from_bilinear", counting_quad)
    monkeypatch.setattr(selfcheck, "invariance_check", counting_check)
    assert run_selfcheck(5).ok
    monkeypatch.undo()
    assert len(built) == len(checked) > 0
