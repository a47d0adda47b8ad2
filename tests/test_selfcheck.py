import hashlib
import json
import random
from collections import Counter

import pytest

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    QuadraticForm,
    class_of,
    cohomology_presentations,
    cup_evaluate,
    invariance_check,
    polarize,
    quad_from_bilinear,
    run_selfcheck,
    triangulate,
)
from qtorus import cli, cochain, gerbe, selfcheck
from qtorus.forms import HALF, ZERO, SymmetricForm, probe_images
from qtorus.selfcheck import DEFAULT_SEED

from helpers import (
    dense_omega_numerators,
    family_system,
    invariant_level_by_forms,
    pairing_on_cocycles_per_term,
    table_products,
)

DECK_SEEDS = (650473, 97695, 560286, 513761, 278011, 206466)  # the benchmark's selfcheck jobs


def _off_by_one_gram(monkeypatch):
    """One wrong entry of every P, so that the closed side disagrees."""
    pairing_gram = gerbe._pairing_gram

    def off_by_one(rho, b):
        p = pairing_gram(rho, b)
        p[0][0] = p[0].get(0, 0) + 1
        return p

    monkeypatch.setattr(gerbe, "_pairing_gram", off_by_one)


def _off_by_one_cup_tensor(monkeypatch):
    """One wrong entry of every cup tensor, so that the oracle side disagrees."""
    cup_tensor = selfcheck.cup_tensor

    def off_by_one(a, b):
        m = [list(row) for row in cup_tensor(a, b)]
        m[0][0] += 1
        return tuple(tuple(row) for row in m)

    monkeypatch.setattr(selfcheck, "cup_tensor", off_by_one)


def _basis_form(rank, k, l):
    """The basis form with numerators E_kl + E_lk (E_kk when k == l) over N = 2."""
    entries = tuple(
        tuple(HALF if {a, b} == {k, l} else ZERO for b in range(rank)) for a in range(rank)
    )
    return SymmetricForm(rank, entries)


def _record_system(record):
    mon = [IntMatrix.from_rows(m) for m in record["monodromy"]]
    return LatticeLocalSystem(record["rank"], record["genus"], mon)


def test_mismatch_record_replays(monkeypatch):
    # a shifted cup tensor disagrees at every level that pairs its [0][0]
    # entry nontrivially; the first record alone must rebuild the local
    # system, the level and both sides of the comparison
    _off_by_one_cup_tensor(monkeypatch)
    result = run_selfcheck(5)
    assert not result.ok and result.mismatches
    record = json.loads(json.dumps(result.mismatches[0]))
    assert "c_matrix" in record  # a level record, not a basis record

    rho = _record_system(record)
    level = BilinearData(IntMatrix.from_rows(record["c_matrix"]), Frac1.parse(record["zeta"]))
    pairing = polarize(quad_from_bilinear(level))
    u, v = record["u"], record["v"]
    assert str(pairing_on_cocycles_per_term(pairing, rho, u, v)) == record["closed"]

    tri = triangulate(rho.genus)
    simplicial = cup_evaluate(class_of(u, tri, rho), class_of(v, tri, rho), pairing, tri, rho)
    assert str(simplicial + pairing.entries[0][0]) == record["simplicial"]
    assert record["closed"] != record["simplicial"]


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
    # each local system's transport table forms one product per boundary
    # prefix whose previous prefix and letter both differ from the identity,
    # counted from their words, and the cocycle check, which carries a
    # cochain's faces to the chart, runs once per cocycle built: one per H^1
    # generator, each one passing
    runs = {}  # id(table) -> (table, check runs)
    check = cochain._check

    def counting_check(c, table):
        held, n = runs.get(id(table), (table, 0))
        runs[id(table)] = (held, n + 1)
        checked = check(c, table)
        assert checked is not None and checked.table is table
        return checked

    tables = _count_table_products(monkeypatch)
    monkeypatch.setattr(cochain, "_check", counting_check)
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
        assert products == table_products(table.t, rho) <= 4 * rho.genus
        assert n == len(cohomology_presentations(rho).h1.all_gens())


def test_transport_table_work_is_linear_in_genus(monkeypatch):
    # at most one product per boundary side keeps the table linear in the
    # genus: at most 256 at g64, fewer where a prefix or letter is the identity
    rho = family_system(random.Random(64), "pair", 64, 4)
    t = triangulate(64)
    tables = _count_table_products(monkeypatch)
    cochain.checked_classes((), t, rho)
    monkeypatch.undo()
    assert [products for _, products in tables] == [table_products(t, rho)]
    assert 0 < table_products(t, rho) < 256


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
    _off_by_one_cup_tensor(monkeypatch)
    result = run_selfcheck(DEFAULT_SEED)
    assert not result.ok and result.agreements < result.cases
    record = result.mismatches[0]
    assert record["closed"] != record["simplicial"]


def test_one_gram_per_basis_form_on_the_h1_generators(monkeypatch):
    # the closed side is the reports' W = G^T P G, built on the local
    # system's H^1 generators, in integers: no Frac1 inside it. W is linear
    # in the level's numerators, so each local system builds one W per
    # element of the symmetric basis E_kk, E_kl + E_lk (k < l), over N = 2,
    # before any level is drawn, and no level builds a W or a form of its own
    events = []  # ("W", rho, numerators, denominator, generators, Frac1 built) or ("draw", rho)
    current = []  # the local system whose levels are being drawn
    created = [0]
    frac1_init = Frac1.__init__
    omega_numerators = selfcheck.omega_numerators
    checked_classes = selfcheck.checked_classes
    invariant_level = selfcheck._invariant_level

    def counting_init(self, num, den=1):
        created[0] += 1
        frac1_init(self, num, den)

    def counting_omega_numerators(rho, pairing, gens):
        before = created[0]
        w = omega_numerators(rho, pairing, gens)
        gens = [tuple(g) for g in gens]
        events.append(("W", rho, pairing.numerators, pairing.denominator, gens, created[0] - before))
        return w

    def recording_checked_classes(gens, t, rho):
        current[:] = [rho]
        return checked_classes(gens, t, rho)

    def recording_invariant_level(*args):
        events.append(("draw", current[0]))
        return invariant_level(*args)

    def no_polarize(quad):
        raise AssertionError("a level was polarized in a passing run")

    monkeypatch.setattr(selfcheck, "checked_classes", recording_checked_classes)
    monkeypatch.setattr(selfcheck, "_invariant_level", recording_invariant_level)
    monkeypatch.setattr(selfcheck, "polarize", no_polarize)
    monkeypatch.setattr(selfcheck, "omega_numerators", counting_omega_numerators)
    monkeypatch.setattr(Frac1, "__init__", counting_init)
    result = run_selfcheck(5)
    monkeypatch.undo()

    assert result.ok and result.cases > 24
    assert sum(e[0] == "W" for e in events) == 24  # six rank 1 systems with one form, six rank 2 with three
    systems = []  # each local system once, in the order it was checked
    for _, rho, *_ in events:
        if all(rho is not seen for seen in systems):
            systems.append(rho)
    assert len(systems) == 12  # genus 1-2, rank 1-2, three families
    for rho in systems:
        mine = [e for e in events if e[1] is rho]
        first_draw = next(n for n, e in enumerate(mine) if e[0] == "draw")
        assert all(e[0] == "draw" for e in mine[first_draw:])  # no W once levels are drawn
        r = rho.rank
        basis = [_basis_form(r, k, l).numerators for k in range(r) for l in range(k, r)]
        assert [(b, n) for _, _, b, n, _, _ in mine[:first_draw]] == [(b, 2) for b in basis]
        h1 = [tuple(g) for g in cohomology_presentations(rho).h1.all_gens()]
        for _, _, _, _, gens, frac1_built in mine[:first_draw]:
            assert gens == h1
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
    # draws are tested on their integers and kept as BilinearData; a level
    # builds its form only to polarize it. A passing run builds no
    # QuadraticForm at all; when a local system's basis disagrees, each of
    # its drawn levels builds exactly one form, from that level, and that
    # form is the one polarized
    built = []  # (local system, level, form) per form built by selfcheck
    forms_made = [0]  # every QuadraticForm constructed, by any caller
    drawn = []  # (local system, level) per accepted draw
    polarized = []
    bases = []  # (local system, basis verdict) per local system
    quad_from_bilinear = selfcheck.quad_from_bilinear
    polarize = selfcheck.polarize
    basis_disagreement = selfcheck._basis_disagreement
    invariant_level = selfcheck._invariant_level
    quad_init = QuadraticForm.__init__

    def counting_init(self, *args):
        forms_made[0] += 1
        quad_init(self, *args)

    def counting_quad(level):
        built.append((bases[-1][0], level, quad_from_bilinear(level)))
        return built[-1][2]

    def recording_invariant_level(*args):
        level = invariant_level(*args)
        if level is not None:
            drawn.append((bases[-1][0], level))
        return level

    def recording_polarize(quad):
        polarized.append(quad)
        return polarize(quad)

    def recording_basis_disagreement(rho, gens, cups):
        bases.append((rho, basis_disagreement(rho, gens, cups)))
        return bases[-1][1]

    monkeypatch.setattr(QuadraticForm, "__init__", counting_init)
    monkeypatch.setattr(selfcheck, "quad_from_bilinear", counting_quad)
    monkeypatch.setattr(selfcheck, "_invariant_level", recording_invariant_level)
    monkeypatch.setattr(selfcheck, "polarize", recording_polarize)
    monkeypatch.setattr(selfcheck, "_basis_disagreement", recording_basis_disagreement)
    result = run_selfcheck(5)
    assert result.ok
    assert len(drawn) == result.cases > 0
    assert built == [] and forms_made[0] == 0 and polarized == []

    built.clear()
    drawn.clear()
    bases.clear()
    _off_by_one_gram(monkeypatch)
    result = run_selfcheck(5)
    monkeypatch.undo()
    assert not result.ok and len(drawn) == result.cases
    failed = [rho for rho, verdict in bases if verdict is not None]
    assert failed
    expected = [(rho, level) for rho, level in drawn if any(rho is f for f in failed)]
    assert [(rho, level) for rho, level, _ in built] == expected
    assert all(level is drawn_level for (_, level, _), (_, drawn_level) in zip(built, expected))
    assert forms_made[0] == len(built)
    assert len(polarized) == len(built)
    assert all(quad is p for (_, _, quad), p in zip(built, polarized))


def test_repeated_pairings_keep_one_record_per_level(monkeypatch):
    # once a local system's basis disagrees, each of its drawn levels is
    # checked in Q/Z and each failing level gets its own record, with its own
    # level, and the records of one pairing agree on everything they found
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
                        level = selfcheck._invariant_level(fast, rank, images, den)
                        assert level == invariant_level_by_forms(slow, rho, den)
                        assert fast.getstate() == slow.getstate()
    assert verdicts.count(False) > 0 and verdicts.count(True) > 0  # draws were rejected


# sha256 of `qtorus selfcheck --seed s` stdout, as recorded from the
# comparison per level in Q/Z: (correct, under _off_by_one_gram)
STDOUT_SHA256 = {
    1729: ("aed24eb47f5ba8a9f0a03c368b495f04a0888eb51395617aac7351b19f06f743",
           "a86e87e409989206d96054c85a2f7e037f84ac7873489a0191e6f10262142720"),
    650473: ("d01eb072a019d01481cce03dee7038fc2a7f537196fd7137873d9aba95c6411e",
             "fa90196bd99eaaf36f72911fdf646fa34ff443104fc2dc6db41f89beec03c106"),
    97695: ("cc92433639f0ab91522ceb2a79af926c154d1ee468ffcf87f64eb1e178b186f7",
            "c9aed18e5680ca42ed4c23cb466c0cfdd512f9c9a56f6cbb5c4279850a24d2f3"),
    560286: ("d79ba82d0ed94fdaa7b1b6e58ea708b2ebd434b98adcffcc098063a499d0c411",
             "fb8e247be59d00f3da82d5e5e144f692d5061541e5d00a7c09558ba748b38d6f"),
    513761: ("2c924bdddcb3fa9ae3e08d59850585347c56da7ee2328d90249dff4cc22ebd8d",
             "0ea2caa52f6df01f4f099d311224c510af73c4afd52350419fe751507e6ec200"),
    278011: ("9b29c618b59e634fad57450fd5597354832031ff680af2db16690d5864be048c",
             "d4be9f04ff4dfa27ede97263a533af3d3bca4bc4b022f0f3f06f63b7cb3d297d"),
    206466: ("cd85d5d9a232896c33d7c9d049d1529950ebddb6d786ef81a8fc1e2a48fbf28b",
             "0d296ee8e291030e34c4aac4000ea8f7fd3722ba53e788394e66876a7b979fcb"),
    1: ("727cdba3b0804fef98aba926245498b3d66dd561776367ee7034044a718fba2c",
        "5830303180c1ca6e2a753348af379176de10db1f368ca0d24dddb4adf2cbab8c"),
    7: ("f52bc20dd84ee04949fdfe54c859a4e5b38774b35cc0fbf0a1b67f5085cde823",
        "6fcd83e6babfdcc0181a0b15734684848e6e7f1750b250a6420ab86a3e7ea63e"),
    99: ("9cb023447d07b9804088002b1146e26b64071c11352933391d73acd59257a5d8",
         "6d2938b4a87cc761d6379c2cfa7232c3f31eb6a4c04c01bd02c3312c2257b6f2"),
}


def _selfcheck_stdout(capsys, seed):
    code = cli.main(["selfcheck", "--seed", str(seed)])
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


@pytest.mark.parametrize("seed", STDOUT_SHA256)
def test_stdout_is_pinned(seed, capsys, monkeypatch):
    # the comparison on the basis writes the bytes of the comparison per
    # level in Q/Z, both when the routes agree and when P is wrong
    correct, wrong_gram = STDOUT_SHA256[seed]
    assert _selfcheck_stdout(capsys, seed) == (correct, 0)
    _off_by_one_gram(monkeypatch)
    assert _selfcheck_stdout(capsys, seed) == (wrong_gram, 3)


def test_a_fault_at_a_level_never_drawn_fails_the_check(monkeypatch, capsys):
    # P is wrong only for the rank 2 numerators E_00, which no level of seed
    # 18 has: a comparison at the drawn levels alone passes, the one on the
    # basis fails with a record that replays to its two integers
    target = (1, 0, 0, 0)
    pairing_gram = gerbe._pairing_gram

    def wrong_at_target(rho, b):
        p = pairing_gram(rho, b)
        if b.entries == target:
            p[0][0] = p[0].get(0, 0) + 1
        return p

    drawn = []  # the numerators of every drawn level's pairing
    invariant_level = selfcheck._invariant_level

    def recording_invariant_level(rng, r, images, den):
        level = invariant_level(rng, r, images, den)
        if level is not None:
            drawn.append(polarize(quad_from_bilinear(level)).numerators.entries)
        return level

    monkeypatch.setattr(gerbe, "_pairing_gram", wrong_at_target)
    monkeypatch.setattr(selfcheck, "_invariant_level", recording_invariant_level)
    code = cli.main(["selfcheck", "--seed", "18"])
    report = json.loads(capsys.readouterr().out)
    assert len(drawn) == report["cases"] and target not in drawn
    assert code == 3 and not report["ok"] and report["agreements"] == report["cases"]
    assert report["mismatches"] and all("basis" in m for m in report["mismatches"])

    record = report["mismatches"][0]
    assert record["rank"] == 2 and record["basis"] == [0, 0]
    rho = _record_system(record)
    form = _basis_form(rho.rank, *record["basis"])
    u, v = record["u"], record["v"]
    assert dense_omega_numerators(rho, form, [u, v]).entry(0, 1) == record["closed"]
    a, b = cochain.checked_classes([u, v], triangulate(rho.genus), rho)
    m = cochain.cup_tensor(a, b)
    assert m[0][0] == record["simplicial"] != record["closed"]
    monkeypatch.undo()
    assert dense_omega_numerators(rho, form, [u, v]).entry(0, 1) == record["simplicial"]
