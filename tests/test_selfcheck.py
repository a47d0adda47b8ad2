import json
import random
from collections import Counter

import pytest

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    class_of,
    cohomology_presentations,
    cup_evaluate,
    invariance_check,
    pair_cup,
    polarize,
    quad_from_bilinear,
    run_selfcheck,
    triangulate,
)
from qtorus import cochain, gerbe, selfcheck
from qtorus.forms import probe_images
from qtorus.selfcheck import DEFAULT_SEED

from helpers import family_system, invariant_level_by_forms, pairing_on_cocycles_per_term

SHIFT = Frac1(1, 7)
DECK_SEEDS = (650473, 97695, 560286, 513761, 278011, 206466)  # the benchmark's selfcheck jobs


def _off_by_one_gram(monkeypatch):
    """One wrong entry of every P, so that the closed side disagrees."""
    pairing_gram = gerbe._pairing_gram

    def off_by_one(rho, b):
        p = pairing_gram(rho, b)
        return IntMatrix(p.rows, p.cols, [p.entries[0] + 1, *p.entries[1:]])

    monkeypatch.setattr(gerbe, "_pairing_gram", off_by_one)


def test_mismatch_record_replays(monkeypatch):
    # a shifted oracle disagrees on every case; the first record alone must
    # rebuild the local system, the level and both sides of the comparison
    monkeypatch.setattr(selfcheck, "pair_cup", lambda *args: pair_cup(*args) + SHIFT)
    result = run_selfcheck(5)
    assert not result.ok and result.mismatches
    record = json.loads(json.dumps(result.mismatches[0]))

    mon = [IntMatrix.from_rows(m) for m in record["monodromy"]]
    rho = LatticeLocalSystem(record["rank"], record["genus"], mon)
    level = BilinearData(IntMatrix.from_rows(record["c_matrix"]), Frac1.parse(record["zeta"]))
    pairing = polarize(quad_from_bilinear(level))
    u, v = record["u"], record["v"]
    assert str(pairing_on_cocycles_per_term(pairing, rho, u, v)) == record["closed"]

    tri = triangulate(rho.genus)
    simplicial = cup_evaluate(class_of(u, tri, rho), class_of(v, tri, rho), pairing, tri, rho)
    assert str(simplicial + SHIFT) == record["simplicial"]


def _count_table_products(monkeypatch):
    """Spy on IntMatrix products: a list of (table, products it formed)."""
    tables = []
    matmul = IntMatrix.__matmul__
    build = cochain._Transports.__init__
    count = [0]

    def counting_matmul(self, other):
        count[0] += 1
        return matmul(self, other)

    def counting_build(self, t, rho):
        before = count[0]
        build(self, t, rho)
        tables.append((self, count[0] - before))

    monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(cochain._Transports, "__init__", counting_build)
    return tables


def test_one_table_and_one_check_per_local_system(monkeypatch):
    # each local system's transport table forms 4g products, one per
    # boundary prefix, and the coboundary runs once per cocycle built: one
    # per H^1 generator
    runs = {}  # id(table) -> (table, coboundary runs)
    coboundary = cochain._coboundary

    def counting_coboundary(c, table):
        held, n = runs.get(id(table), (table, 0))
        runs[id(table)] = (held, n + 1)
        return coboundary(c, table)

    tables = _count_table_products(monkeypatch)
    monkeypatch.setattr(cochain, "_coboundary", counting_coboundary)
    rhos = []  # the local systems selfcheck draws, in order
    local_system = selfcheck._local_system

    def recording_local_system(*args):
        rhos.append(local_system(*args))
        return rhos[-1]

    monkeypatch.setattr(selfcheck, "_local_system", recording_local_system)
    assert run_selfcheck(5).ok
    monkeypatch.undo()

    assert len(tables) == len(runs) == len(rhos) == 12  # genus 1-2, rank 1-2, three families
    for rho, (table, products), (held, n) in zip(rhos, tables, runs.values()):
        assert held is table and table.t.genus == rho.genus and table.rank == rho.rank
        assert products == 4 * rho.genus
        assert n == len(cohomology_presentations(rho).h1.all_gens())


def test_transport_table_work_is_linear_in_genus(monkeypatch):
    # one product per boundary side keeps the table linear in the genus:
    # 256 products at g64
    rho = family_system(random.Random(64), "pair", 64, 4)
    tables = _count_table_products(monkeypatch)
    cochain.checked_classes((), triangulate(64), rho)
    monkeypatch.undo()
    assert [products for _, products in tables] == [256]


def test_one_cup_tensor_per_generator_pair(monkeypatch):
    # the integer cup in Lambda (x) Lambda is built once per ordered pair of
    # H^1 generators of each local system, however many levels pair it
    generators = {}  # id(table) -> (table, H^1 generators of its local system)
    tensors = Counter()  # id(table) -> cup_tensor calls
    checked_classes = selfcheck.checked_classes
    cup_tensor = selfcheck.cup_tensor

    def recording_checked_classes(gens, t, rho):
        cocycles = checked_classes(gens, t, rho)
        assert list(gens) == list(cohomology_presentations(rho).h1.all_gens())
        if cocycles:
            generators[id(cocycles[0].table)] = (cocycles[0].table, len(gens))
        return cocycles

    def counting_cup_tensor(a, b):
        tensors[id(a.table)] += 1
        return cup_tensor(a, b)

    monkeypatch.setattr(selfcheck, "checked_classes", recording_checked_classes)
    monkeypatch.setattr(selfcheck, "cup_tensor", counting_cup_tensor)
    result = run_selfcheck(5)
    monkeypatch.undo()

    assert result.ok and result.cases > 12  # several levels per local system
    assert len(generators) == 12  # genus 1-2, rank 1-2, three families
    assert tensors == Counter({key: f * f for key, (_, f) in generators.items()})


def test_a_wrong_cup_tensor_fails_the_check(monkeypatch):
    # the oracle-side twin of a wrong Gram matrix: one wrong entry of every
    # cup tensor becomes a mismatch record, not an agreement
    cup_tensor = selfcheck.cup_tensor

    def off_by_one(a, b):
        m = [list(row) for row in cup_tensor(a, b)]
        m[0][0] += 1
        return tuple(tuple(row) for row in m)

    monkeypatch.setattr(selfcheck, "cup_tensor", off_by_one)
    result = run_selfcheck(DEFAULT_SEED)
    assert not result.ok and result.agreements < result.cases
    record = result.mismatches[0]
    assert record["closed"] != record["simplicial"]


def test_one_gram_per_level_on_the_h1_generators(monkeypatch):
    # the closed side is the reports' W = G^T P G, built on the local
    # system's H^1 generators, in integers: no Frac1 inside it. Two levels
    # with the same pairing have the same omega, so W is built once per
    # distinct (local system, pairing), and every level's pairing is checked
    calls = []  # (rho, pairing entries, generators, Frac1 built inside) per call
    levels = []  # (rho, pairing entries) per level
    current = []  # the local system whose levels are being drawn
    created = [0]
    frac1_init = Frac1.__init__
    omega_numerators = selfcheck.omega_numerators
    checked_classes = selfcheck.checked_classes
    polarize = selfcheck.polarize

    def counting_init(self, num, den=1):
        created[0] += 1
        frac1_init(self, num, den)

    def counting_omega_numerators(rho, pairing, gens):
        before = created[0]
        w = omega_numerators(rho, pairing, gens)
        calls.append((rho, pairing.entries, [tuple(g) for g in gens], created[0] - before))
        return w

    def recording_checked_classes(gens, t, rho):
        current[:] = [rho]
        return checked_classes(gens, t, rho)

    def recording_polarize(quad):
        pairing = polarize(quad)
        levels.append((current[0], pairing.entries))
        return pairing

    monkeypatch.setattr(selfcheck, "checked_classes", recording_checked_classes)
    monkeypatch.setattr(selfcheck, "polarize", recording_polarize)
    monkeypatch.setattr(selfcheck, "omega_numerators", counting_omega_numerators)
    monkeypatch.setattr(Frac1, "__init__", counting_init)
    result = run_selfcheck(5)
    monkeypatch.undo()

    assert result.ok
    assert len(levels) == result.cases
    built = [(id(rho), entries) for rho, entries, _, _ in calls]
    assert len(built) == len(set(built))  # one W per (local system, pairing)
    assert set(built) == {(id(rho), entries) for rho, entries in levels}
    assert len(built) < result.cases  # some levels share a pairing
    assert len({id(rho) for rho, _, _, _ in calls}) == 12  # genus 1-2, rank 1-2, three families
    for rho, _, gens, frac1_built in calls:
        assert gens == [tuple(g) for g in cohomology_presentations(rho).h1.all_gens()]
        assert frac1_built == 0


def test_a_wrong_gram_matrix_fails_the_check(monkeypatch):
    # selfcheck runs the Gram route the reports run: one wrong entry of P
    # becomes a mismatch record, not an agreement and not an internal error
    _off_by_one_gram(monkeypatch)
    result = run_selfcheck(DEFAULT_SEED)
    assert not result.ok and result.agreements < result.cases
    record = result.mismatches[0]
    assert record["closed"] != record["simplicial"]


def test_each_level_form_built_once(monkeypatch):
    # draws are tested on their integers; only an accepted level builds its
    # form, and that form is the one the pairing uses
    built = []
    polarized = []
    quad_from_bilinear = selfcheck.quad_from_bilinear
    polarize = selfcheck.polarize

    def counting_quad(level):
        built.append(quad_from_bilinear(level))
        return built[-1]

    def recording_polarize(quad):
        polarized.append(quad)
        return polarize(quad)

    monkeypatch.setattr(selfcheck, "quad_from_bilinear", counting_quad)
    monkeypatch.setattr(selfcheck, "polarize", recording_polarize)
    result = run_selfcheck(5)
    monkeypatch.undo()
    assert result.ok
    assert len(built) == result.cases
    assert all(q is p for q, p in zip(built, polarized, strict=True))


def test_repeated_pairings_keep_one_record_per_level(monkeypatch):
    # a pairing is checked once per local system, but each failing level
    # still gets its own record, with its own level, and the records of one
    # pairing agree on everything the check found
    _off_by_one_gram(monkeypatch)
    result = run_selfcheck(DEFAULT_SEED)
    monkeypatch.undo()
    assert not result.ok
    assert len(result.mismatches) == result.cases - result.agreements

    found = {}  # (local system, pairing entries) -> what each record found
    for record in json.loads(json.dumps(result.mismatches)):
        mon = [IntMatrix.from_rows(m) for m in record["monodromy"]]
        rho = LatticeLocalSystem(record["rank"], record["genus"], mon)
        level = BilinearData(IntMatrix.from_rows(record["c_matrix"]), Frac1.parse(record["zeta"]))
        assert level.zeta == Frac1(1, record["den"])
        quad = quad_from_bilinear(level)
        assert invariance_check(quad, rho)
        system = (record["genus"], record["rank"], record["family"], json.dumps(record["monodromy"]))
        key = (system, polarize(quad).entries)
        found.setdefault(key, []).append((record["pair"], record["closed"], record["simplicial"]))
    assert any(len(seen) > 1 for seen in found.values())  # some pairings repeat
    for seen in found.values():
        assert all(x == seen[0] for x in seen)


@pytest.mark.parametrize("seed", (1729, 5, 99, *DECK_SEEDS))
def test_sampler_draws_as_the_form_route(seed, monkeypatch):
    # the integer test on (c, den) accepts the same levels from the same
    # random numbers as a full form and invariance_check per draw. stdout
    # shows only counts, so this is what pins the random stream
    verdicts = []
    preserves = selfcheck.preserves

    def recording_preserves(m, n, images):
        verdicts.append(preserves(m, n, images))
        return verdicts[-1]

    monkeypatch.setattr(selfcheck, "preserves", recording_preserves)
    fast, slow = random.Random(seed), random.Random(seed)
    for genus in selfcheck._GENERA:
        for rank in selfcheck._RANKS:
            for family in selfcheck._FAMILIES:
                rho = selfcheck._local_system(fast, genus, rank, family)
                assert selfcheck._local_system(slow, genus, rank, family).mon == rho.mon
                images = probe_images(rho.mon, rank)
                for den in selfcheck._DENOMINATORS:
                    for _ in range(selfcheck._LEVELS_PER_CELL):
                        drawn = selfcheck._invariant_level(fast, rank, images, den)
                        assert drawn == invariant_level_by_forms(slow, rho, den)
                        assert fast.getstate() == slow.getstate()
    assert verdicts.count(False) > 0 and verdicts.count(True) > 0  # draws were rejected
