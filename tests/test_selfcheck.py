import hashlib
import json
import random
from collections import Counter

import jsonschema
import pytest

from qtorus import (
    REPORT_SCHEMAS,
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    QuadraticForm,
    cohomology_presentations,
    polarize,
    quad_from_bilinear,
    run_selfcheck,
    triangulate,
)
from qtorus import cli, cochain, gerbe, selfcheck
from qtorus.forms import moving_columns
from qtorus.selfcheck import DEFAULT_SEED

from helpers import (
    dense_omega_numerators,
    family_system,
    h1_vectors,
    invariant_level_by_forms,
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


def _off_by_one_gram_at(monkeypatch, target):
    """One wrong entry of P only for the level numerators ``target``, flat."""
    pairing_gram = gerbe._pairing_gram

    def wrong_at_target(rho, b):
        p = pairing_gram(rho, b)
        if b.entries == target:
            p[0][0] = p[0].get(0, 0) + 1
        return p

    monkeypatch.setattr(gerbe, "_pairing_gram", wrong_at_target)


def _off_by_one_cup_tensor(monkeypatch):
    """One wrong entry of every cup tensor, so that the oracle side disagrees."""
    cup_tensors = selfcheck.cup_tensors

    def off_by_one(classes):
        cups = cup_tensors(classes)
        for row in cups:
            for j, m in enumerate(row):
                row[j] = ((m[0][0] + 1, *m[0][1:]), *m[1:])
        return cups

    monkeypatch.setattr(selfcheck, "cup_tensors", off_by_one)


def _basis_matrix(rank, k, l):
    """The basis element E_kl + E_lk (E_kk when k == l) of Sym^2(Z^r), an integer B."""
    return IntMatrix.from_rows([[int({a, b} == {k, l}) for b in range(rank)] for a in range(rank)])


def _record_system(record):
    mon = [IntMatrix.from_rows(m) for m in record["monodromy"]]
    return LatticeLocalSystem(record["rank"], record["genus"], mon)


def _replay(record):
    """A basis record's (closed, simplicial), recomputed from its fields alone.

    The closed side is ``dense_omega_numerators`` on the record's basis matrix
    and its two generators, the simplicial side selfcheck's ``cup_tensors`` of
    their checked classes, so a record made under a fault replays under it.
    """
    rho = _record_system(record)
    k, l = record["basis"]
    u, v = record["u"], record["v"]
    closed = dense_omega_numerators(rho, _basis_matrix(rho.rank, k, l), [u, v]).entry(0, 1)
    m = selfcheck.cup_tensors(cochain.checked_classes([u, v], triangulate(rho.genus), rho))[0][1]
    return closed, (m[k][l] + m[l][k] if k < l else m[k][k])


def test_mismatch_record_replays(monkeypatch):
    # a shifted cup tensor disagrees on the basis matrix E_00 of every local
    # system it fails; each record alone must rebuild the local system, the
    # basis matrix and both sides of the comparison, and with the fault undone
    # the two sides it names agree
    _off_by_one_cup_tensor(monkeypatch)
    result = run_selfcheck(5)
    assert not result.ok and result.mismatches
    records = json.loads(json.dumps(result.mismatches))
    assert all(r["basis"] == [0, 0] and r["closed"] != r["simplicial"] for r in records)
    assert [_replay(r) for r in records] == [(r["closed"], r["simplicial"]) for r in records]
    monkeypatch.undo()
    assert [_replay(r) for r in records] == [(r["closed"], r["closed"]) for r in records]


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
    # batch's faces to the chart, runs once per local system, on one batch
    # that holds every H^1 generator, and passes
    runs = {}  # id(table) -> (table, check runs, vectors checked)
    check = cochain._check

    def counting_check(blocks, table, count):
        held, n, _ = runs.get(id(table), (table, 0, 0))
        runs[id(table)] = (held, n + 1, count)
        checked = check(blocks, table, count)
        assert checked is not None and checked.table is table and len(checked) == count
        return checked

    tables = _count_table_products(monkeypatch)
    monkeypatch.setattr(cochain, "_check", counting_check)
    rhos = []  # the local systems selfcheck draws, in order
    local_system = selfcheck._local_system

    def recording_local_system(*args):
        rhos.append(local_system(*args))
        rhos[-1].mon_inv  # built when first read: outside the table, so not its products
        return rhos[-1]

    monkeypatch.setattr(selfcheck, "_local_system", recording_local_system)
    assert run_selfcheck(5).ok
    monkeypatch.undo()

    assert len(tables) == len(runs) == len(rhos) == 12  # genus 1-2, rank 1-2, three families
    for rho, (table, products), (held, n, count) in zip(rhos, tables, runs.values()):
        assert held is table and table.t.genus == rho.genus and table.rank == rho.rank
        assert products == table_products(table.t, rho) <= 4 * rho.genus
        assert n == 1 and count == len(cohomology_presentations(rho).h1.all_gens())


def test_transport_table_work_is_linear_in_genus(monkeypatch):
    # at most one product per boundary side keeps the table linear in the
    # genus: at most 256 at g64, fewer where a prefix or letter is the identity
    rho = family_system(random.Random(64), "pair", 64, 4)
    t = triangulate(64)
    rho.mon_inv  # built when first read: before the spy, so not the table's products
    tables = _count_table_products(monkeypatch)
    cochain.checked_classes((), t, rho)
    monkeypatch.undo()
    assert [products for _, products in tables] == [table_products(t, rho)]
    assert 0 < table_products(t, rho) < 256


def test_one_cup_tensor_per_generator_pair(monkeypatch):
    # the integer cup in Lambda (x) Lambda is built once per ordered pair of
    # H^1 generators of each local system, however many levels pair it: one
    # all-pairs call per local system, on the batch of all its generators
    generators = {}  # id(table) -> (table, H^1 generators of its local system)
    calls = Counter()  # id(table) -> cup_tensors calls
    tensors = Counter()  # id(table) -> cup tensors returned
    checked_classes = selfcheck.checked_classes
    cup_tensors = selfcheck.cup_tensors

    def recording_checked_classes(gens, t, rho):
        classes = checked_classes(gens, t, rho)
        assert list(map(tuple, gens)) == h1_vectors(cohomology_presentations(rho))
        generators[id(classes.table)] = (classes.table, len(gens))
        return classes

    def counting_cup_tensors(classes):
        cups = cup_tensors(classes)
        calls[id(classes.table)] += 1
        tensors[id(classes.table)] += sum(map(len, cups))
        return cups

    monkeypatch.setattr(selfcheck, "checked_classes", recording_checked_classes)
    monkeypatch.setattr(selfcheck, "cup_tensors", counting_cup_tensors)
    result = run_selfcheck(5)
    monkeypatch.undo()

    assert result.ok and result.cases > 12  # several levels per local system
    assert len(generators) == 12  # genus 1-2, rank 1-2, three families
    assert calls == Counter(dict.fromkeys(generators, 1))
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
    # element of the symmetric basis E_kk, E_kl + E_lk (k < l), an integer B
    # with no denominator, before any level is drawn, and no level builds a W
    # or a form of its own
    events = []  # ("W", rho, numerators, generators, Frac1 built) or ("draw", rho)
    current = []  # the local system whose levels are being drawn
    created = [0]
    frac1_init = Frac1.__init__
    omega_numerators = selfcheck.omega_numerators
    checked_classes = selfcheck.checked_classes
    invariant_level = selfcheck._invariant_level

    def counting_init(self, num, den=1):
        created[0] += 1
        frac1_init(self, num, den)

    def counting_omega_numerators(rho, numerators, gens):
        before = created[0]
        w = omega_numerators(rho, numerators, gens)
        events.append(("W", rho, numerators, gens, created[0] - before))
        return w

    def recording_checked_classes(gens, t, rho):
        current[:] = [rho]
        return checked_classes(gens, t, rho)

    def recording_invariant_level(*args):
        events.append(("draw", current[0]))
        return invariant_level(*args)

    monkeypatch.setattr(selfcheck, "checked_classes", recording_checked_classes)
    monkeypatch.setattr(selfcheck, "_invariant_level", recording_invariant_level)
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
        basis = [_basis_matrix(r, k, l) for k in range(r) for l in range(k, r)]
        assert [b for _, _, b, _, _ in mine[:first_draw]] == basis
        # H^1's {coordinate: entry} rows, handed over as the presentation
        # holds them: one sequence for every basis matrix, not one per call
        h1 = cohomology_presentations(rho).h1.all_gens()
        assert len({id(gens) for _, _, _, gens, _ in mine[:first_draw]}) == 1
        for _, _, _, gens, frac1_built in mine[:first_draw]:
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


def test_no_level_builds_a_form(monkeypatch):
    # a draw is tested on its integers and returned as its flat list of
    # entries: neither a passing run nor one whose basis disagrees builds a
    # QuadraticForm, and every accepted draw is a case
    forms_made = [0]  # every QuadraticForm constructed, by any caller
    drawn = []  # the entries of each accepted draw
    quad_init = QuadraticForm.__init__
    invariant_level = selfcheck._invariant_level

    def counting_init(self, *args):
        forms_made[0] += 1
        quad_init(self, *args)

    def recording_invariant_level(rng, r, moving, den):
        c = invariant_level(rng, r, moving, den)
        if c is not None:
            assert len(c) == r * r and all(type(x) is int for x in c)
            drawn.append(c)
        return c

    monkeypatch.setattr(QuadraticForm, "__init__", counting_init)
    monkeypatch.setattr(selfcheck, "_invariant_level", recording_invariant_level)
    result = run_selfcheck(5)
    assert result.ok and len(drawn) == result.cases > 0 and forms_made[0] == 0

    drawn.clear()
    _off_by_one_gram(monkeypatch)
    result = run_selfcheck(5)
    monkeypatch.undo()
    assert not result.ok and len(drawn) == result.cases > 0 and forms_made[0] == 0


def test_one_record_per_failing_system(monkeypatch):
    # P wrong at the rank 2 numerators E_00 fails the basis of some local
    # systems; each of them gets exactly one record, the basis record of its
    # first disagreement, and its drawn levels count as cases but not as
    # agreements, while every other system's levels are agreements
    verdicts = []  # (local system, basis verdict) per local system
    drawn = []  # levels drawn per local system, in the same order
    basis_disagreement = selfcheck._basis_disagreement
    invariant_level = selfcheck._invariant_level

    def recording_basis_disagreement(rho, gens, cups):
        verdicts.append((rho, basis_disagreement(rho, gens, cups)))
        drawn.append(0)
        return verdicts[-1][1]

    def counting_invariant_level(*args):
        c = invariant_level(*args)
        drawn[-1] += c is not None
        return c

    monkeypatch.setattr(selfcheck, "_basis_disagreement", recording_basis_disagreement)
    monkeypatch.setattr(selfcheck, "_invariant_level", counting_invariant_level)
    _off_by_one_gram_at(monkeypatch, (1, 0, 0, 0))
    result = run_selfcheck(DEFAULT_SEED)
    records = json.loads(json.dumps(result.mismatches))
    assert not result.ok and len(verdicts) == 12  # genus 1-2, rank 1-2, three families
    failed = [(rho, verdict) for rho, verdict in verdicts if verdict is not None]
    assert 0 < len(failed) == len(records) < len(verdicts)
    assert result.cases == sum(drawn)
    assert result.agreements == sum(n for n, (_, v) in zip(drawn, verdicts) if v is None)
    keys = ["genus", "rank", "family", "basis", "pair", "closed", "simplicial", "monodromy", "u", "v"]
    for record, (rho, (k, l, i, j, closed, simplicial)) in zip(records, failed):
        assert list(record) == keys
        assert (record["genus"], record["rank"]) == (rho.genus, rho.rank)
        assert record["monodromy"] == [m.row_lists() for m in rho.mon]
        assert (record["basis"], record["pair"]) == ([k, l], [i, j])
        assert _replay(record) == (record["closed"], record["simplicial"]) == (closed, simplicial)
    monkeypatch.undo()
    assert all(closed == simplicial for closed, simplicial in map(_replay, records))


@pytest.mark.parametrize("seed", (1729, 5, 99, *DECK_SEEDS))
def test_sampler_draws_as_the_form_route(seed, monkeypatch):
    # the integer test on (c, den) accepts the same levels from the same
    # random numbers as a full form compared on Q/Z values at probe vectors
    # per draw. stdout shows only counts, so this is what pins the random
    # stream
    verdicts = []
    preserves = selfcheck.preserves

    def recording_preserves(m, n, moving):
        verdicts.append(preserves(m, n, moving))
        return verdicts[-1]

    monkeypatch.setattr(selfcheck, "preserves", recording_preserves)
    fast, slow = random.Random(seed), random.Random(seed)
    for genus in selfcheck._GENERA:
        for rank in selfcheck._RANKS:
            for family in selfcheck._FAMILIES:
                rho = selfcheck._local_system(fast, genus, rank, family)
                assert selfcheck._local_system(slow, genus, rank, family).mon == rho.mon
                moving = moving_columns(rho.mon, rank)
                for den in selfcheck._DENOMINATORS:
                    for _ in range(selfcheck._LEVELS_PER_CELL):
                        c = selfcheck._invariant_level(fast, rank, moving, den)
                        level = invariant_level_by_forms(slow, rho, den)
                        assert c == (None if level is None else list(level.c.entries))
                        assert fast.getstate() == slow.getstate()
    assert verdicts.count(False) > 0 and verdicts.count(True) > 0  # draws were rejected


# sha256 of `qtorus selfcheck --seed s` stdout: (correct, under
# _off_by_one_gram, where each failing local system writes one basis record)
STDOUT_SHA256 = {
    1729: ("aed24eb47f5ba8a9f0a03c368b495f04a0888eb51395617aac7351b19f06f743",
           "dd57705c629f7562996ee84eae45899506b22345c99e21f3368e4b31d63d0ebf"),
    650473: ("d01eb072a019d01481cce03dee7038fc2a7f537196fd7137873d9aba95c6411e",
             "ddde587cc0b12bf5699d3f5c65b63dcda516d67c7b9dd93bf8b5bcf872434725"),
    97695: ("cc92433639f0ab91522ceb2a79af926c154d1ee468ffcf87f64eb1e178b186f7",
            "622eeadabc704f2ddaf0c3de7de72fbe502ecfcebab74666968124d931794277"),
    560286: ("d79ba82d0ed94fdaa7b1b6e58ea708b2ebd434b98adcffcc098063a499d0c411",
             "f5086eda8c8552df5be29f6d866df621733194e015c2aaeea775ddeac11cf910"),
    513761: ("2c924bdddcb3fa9ae3e08d59850585347c56da7ee2328d90249dff4cc22ebd8d",
             "5b89bb94610fb2feca2558f8b2fff498141640ddf7ed947cf28cf06997bfcbe5"),
    278011: ("9b29c618b59e634fad57450fd5597354832031ff680af2db16690d5864be048c",
             "378e66996e45d29e6a9794d9cd1a72fbf66b7fc9fdb4a4b95d722aa97f808bcc"),
    206466: ("cd85d5d9a232896c33d7c9d049d1529950ebddb6d786ef81a8fc1e2a48fbf28b",
             "b186937a697d39ef30fd12d8736bb68eeb9864d09b21a98adcee3de9d1c9c2bb"),
    1: ("727cdba3b0804fef98aba926245498b3d66dd561776367ee7034044a718fba2c",
        "2e53ec73ec3380776f669763e96d72d73594ff75e6ccf72955f56a44d05ea8ff"),
    7: ("f52bc20dd84ee04949fdfe54c859a4e5b38774b35cc0fbf0a1b67f5085cde823",
        "39c3c9bc9c5ebac619b27605fb79b169200047d22d5a1f600982204f589bdd5c"),
    99: ("9cb023447d07b9804088002b1146e26b64071c11352933391d73acd59257a5d8",
         "5cd2a426aceae7d50afadd7323fb2ae65e9c45b2c01367bed3304cb3e38f7665"),
}


def _selfcheck_stdout(capsys, seed):
    code = cli.main(["selfcheck", "--seed", str(seed)])
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


@pytest.mark.parametrize("seed", STDOUT_SHA256)
def test_stdout_is_pinned(seed, capsys, monkeypatch):
    # the routes agree and exit 0, or P is wrong and the run exits 3 with
    # one basis record per failing local system
    correct, wrong_gram = STDOUT_SHA256[seed]
    assert _selfcheck_stdout(capsys, seed) == (correct, 0)
    _off_by_one_gram(monkeypatch)
    assert _selfcheck_stdout(capsys, seed) == (wrong_gram, 3)


def test_text_report_writes_every_mismatch(monkeypatch, capsys):
    # W[0][1] + 1 at genus 2, rank 2 fails the run; the text report writes
    # each mismatch record on its own line before FAILED, as compact JSON,
    # so the lines read back to the JSON report's records
    omega_numerators = selfcheck.omega_numerators

    def off_by_one(rho, numerators, gens):
        w = omega_numerators(rho, numerators, gens)
        if (rho.genus, rho.rank) == (2, 2):
            w[0][1] = w[0].get(1, 0) + 1
        return w

    monkeypatch.setattr(selfcheck, "omega_numerators", off_by_one)
    out = {}
    for fmt in ("json", "text"):
        code = cli.main(["selfcheck", "--format", fmt])
        out[fmt] = code, capsys.readouterr().out
    report = json.loads(out["json"][1])
    lines = out["text"][1].splitlines()
    assert out["json"][0] == out["text"][0] == 3 and report["mismatches"]
    records = [line for line in lines if line.startswith("mismatch: ")]
    assert lines[-1 - len(records) :] == records + ["FAILED"]
    assert [json.loads(line.removeprefix("mismatch: ")) for line in records] == report["mismatches"]


def test_mismatch_records_follow_the_schema(monkeypatch, capsys):
    # under the P + 1 fault each failing system writes one basis record, and
    # the report schema types every record; a record of another shape fails
    _off_by_one_gram(monkeypatch)
    code = cli.main(["selfcheck", "--seed", "1729"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["mismatches"]
    jsonschema.validate(report, REPORT_SCHEMAS["selfcheck"])
    record = report["mismatches"][0]
    for bad in ({"cell": "x"}, dict(record, cell="x"), dict(record, basis=[0])):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(report, mismatches=[bad]), REPORT_SCHEMAS["selfcheck"])


def test_a_fault_at_a_level_never_drawn_fails_the_check(monkeypatch, capsys):
    # P is wrong only for the rank 2 numerators E_00, which no level of seed
    # 18 has: a comparison at the drawn levels alone passes, the one on the
    # basis fails with a record that replays to its two integers
    target = (1, 0, 0, 0)
    drawn = []  # the numerators of every drawn level's pairing
    invariant_level = selfcheck._invariant_level

    def recording_invariant_level(rng, r, moving, den):
        c = invariant_level(rng, r, moving, den)
        if c is not None:
            level = BilinearData(IntMatrix(r, r, c), Frac1(1, den))
            drawn.append(polarize(quad_from_bilinear(level)).numerators.entries)
        return c

    _off_by_one_gram_at(monkeypatch, target)
    monkeypatch.setattr(selfcheck, "_invariant_level", recording_invariant_level)
    code = cli.main(["selfcheck", "--seed", "18"])
    report = json.loads(capsys.readouterr().out)
    assert len(drawn) == report["cases"] and target not in drawn
    assert code == 3 and not report["ok"] and report["agreements"] < report["cases"]
    assert report["mismatches"] and all("basis" in m for m in report["mismatches"])

    record = report["mismatches"][0]
    assert record["rank"] == 2 and record["basis"] == [0, 0]
    assert _replay(record) == (record["closed"], record["simplicial"])
    assert record["closed"] != record["simplicial"]
    monkeypatch.undo()
    assert _replay(record) == (record["simplicial"], record["simplicial"])
