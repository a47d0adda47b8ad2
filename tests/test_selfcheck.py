import json

from qtorus import (
    BilinearData,
    Frac1,
    IntMatrix,
    LatticeLocalSystem,
    class_of,
    cup_evaluate,
    pairing_on_cocycles,
    polarize,
    quad_from_bilinear,
    run_selfcheck,
    triangulate,
)
from qtorus import selfcheck

SHIFT = Frac1(1, 7)


def test_mismatch_record_replays(monkeypatch):
    # a shifted oracle disagrees on every case; the first record alone must
    # rebuild the local system, the level and both sides of the comparison
    monkeypatch.setattr(
        selfcheck, "cup_evaluate", lambda *args: cup_evaluate(*args) + SHIFT
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
