"""The invariants belong to the surface and the level, not to a presentation of either.

Two moves give a second presentation of the same data, so every invariant
must come out the same:

* a handle slide, a_i -> a_i b_i or b_i -> b_i a_i, is an automorphism of
  the surface group that fixes the relator, since
  [a_i b_i, b_i] = [a_i, b_i] = [a_i, b_i a_i]; the pulled-back local system
  multiplies one monodromy matrix by its partner;
* a change of lattice basis T: rho -> T rho T^-1 and c -> T^-T c T^-1, so
  that q'(T gamma) = q(gamma).

Reports compare on the cohomology triple and the multiset of gcd(N, d_i)
over the invariant factors d_i of omega on all of H^1's generators, which
gives the isomorphism type of the image of H^1 in Hom(H^1, Q/Z). When omega
vanishes on the torsion of H^1, omega's free block and so ``block_dim`` do
not depend on which lifts of the free generators were chosen, and they
compare too. When omega pairs torsion with the free part they do, and
both moves can change v1's ``block_dim``. v1's ``radical_rank`` is left
out: it is the rank over Z of one lift of the free block, and these moves
change it.
"""

import math
import random
from collections import Counter
from itertools import product

import pytest

from qtorus import (
    BilinearData,
    IntMatrix,
    LatticeLocalSystem,
    LevelInput,
    block_report,
    inverse_unimodular,
    smith_normal_form,
)

from helpers import (
    densify,
    family_system,
    full_block_dim,
    rand_unimodular,
    random_invariant_level,
    random_local_system,
)


def handle_slide(rho: LatticeLocalSystem, handle: int, on_b: bool) -> LatticeLocalSystem:
    """rho pulled back along a_i -> a_i b_i, or b_i -> b_i a_i when ``on_b``."""
    mon = list(rho.mon)
    a, b = 2 * handle, 2 * handle + 1
    if on_b:
        mon[b] = mon[b] @ mon[a]
    else:
        mon[a] = mon[a] @ mon[b]
    return LatticeLocalSystem(rho.rank, rho.genus, mon)


def change_basis(level: LevelInput, t: IntMatrix) -> LevelInput:
    """The same level in the lattice basis T: T rho T^-1 and T^-T c T^-1."""
    rho, ti = level.rho, inverse_unimodular(t)
    mon = [t @ m @ ti for m in rho.mon]
    c = ti.transpose() @ level.bilinear.c @ ti
    moved = LatticeLocalSystem(rho.rank, rho.genus, mon)
    return LevelInput(BilinearData(c, level.bilinear.zeta), moved)


def gcd_multiset(n: int, rows) -> list[int]:
    """gcd(N, d_i) over the invariant factors d_i of an integer matrix."""
    a = IntMatrix.from_rows(rows, len(rows))
    return sorted(math.gcd(n, d) for d in smith_normal_form(a).diagonal())


def invariants(level: LevelInput):
    """(triple, omega's gcd multiset, free part), the free part None when omega pairs torsion.

    The free part is ``block_dim`` and the gcd multiset of omega's free block.
    """
    report = block_report(level, components=[])
    n = report.denominator
    f = len(report.presentations.h1.free_gens)
    w = densify(report.omega).row_lists()
    free = None
    if not any(report.omega[f:]):  # the rows store no zero
        free = report.block_dim, gcd_multiset(n, [row[:f] for row in w[:f]])
    return report.presentations.triple, gcd_multiset(n, w), free


def cases():
    """(level, rng) over the shear, sign and pair families and random systems, genus <= 3, rank <= 3.

    Levels are redrawn, a few times at most, until the pairing's denominator
    N exceeds 1: at N = 1 omega is 0 and every block is trivial. A
    zero-phase level, drawn only after every random try and every form mod
    2, 3 and 5 failed to be invariant, is kept rather than redrawn at that
    cost.
    """
    rng = random.Random("invariance")
    for family in ("shear", "sign", "pair", "random"):
        for genus in (1, 2, 3):
            for rank in (1, 2, 3):
                for _ in range(2):
                    if family == "random":
                        rho = random_local_system(rng, genus, rank)
                    else:
                        rho = family_system(rng, family, genus, rank)
                    for _ in range(20):
                        level = LevelInput(random_invariant_level(rng, rho), rho)
                        if level.pairing.denominator > 1 or not level.bilinear.zeta.num:
                            break
                    yield level, rng


@pytest.mark.parametrize("move", ["handle_slide", "change_basis"])
def test_moves_keep_the_invariants(move):
    seen = {"torsion": 0, "torsion_pairs": 0, "blocks": 0}
    for level, rng in cases():
        want = invariants(level)
        for _ in range(3):
            if move == "handle_slide":
                rho = handle_slide(level.rho, rng.randrange(level.rho.genus), rng.random() < 0.5)
                moved = LevelInput(level.bilinear, rho)
            else:
                moved = change_basis(level, rand_unimodular(rng, level.rho.rank))
            assert invariants(moved) == want
            level = moved
        triple, _, free = want
        seen["torsion"] += bool(triple.h1.torsion)
        seen["torsion_pairs"] += free is None
        seen["blocks"] += free is not None and free[0] > 1
    # the moves must meet torsion in H^1, omega on it and nontrivial blocks
    assert seen["torsion"] >= 20 and seen["torsion_pairs"] >= 5 and seen["blocks"] >= 20, seen


def test_full_block_dim_reads_the_torsion_rows():
    # omega on all of H^1, torsion generators included, has a square order
    # on every level (full_block_dim raises otherwise); it is v1's block_dim
    # where omega pairs no torsion, and differs from it on some level where
    # it does, so the torsion rows are read
    differs = 0
    for level, _ in cases():
        report = block_report(level, components=[])
        dim = full_block_dim(report)
        f = len(report.presentations.h1.free_gens)
        if any(report.omega[f:]):
            differs += dim != report.block_dim
        else:
            assert dim == report.block_dim
    assert differs >= 1


def image_order(n: int, omega, moduli) -> int:
    """|{x^T omega mod N : x in D}| for D = prod Z/m_i, by meet in the middle, with no elimination.

    Row i of omega must be killed by m_i, so that x -> x^T omega is a
    homomorphism on D; the image then has |D| / |kernel| elements. The
    coordinates split into two halves of near-equal size; x^T omega mod N
    is tabulated over each half, and the kernel is counted as the pairs of
    values, one from each table, that sum to 0 mod N.
    """
    assert all(not any(m * x % n for x in row) for m, row in zip(moduli, omega))
    size = math.prod(moduli)
    cut, left = 0, 1
    while left * left < size:
        left *= moduli[cut]
        cut += 1

    def table(rows, ms):
        columns = range(len(omega))
        return Counter(
            tuple(sum(c * row[j] for c, row in zip(xs, rows)) % n for j in columns)
            for xs in product(*map(range, ms))
        )

    low, high = table(omega[:cut], moduli[:cut]), table(omega[cut:], moduli[cut:])
    kernel = sum(k * high[tuple(-x % n for x in v)] for v, k in low.items())
    assert size % kernel == 0
    return size // kernel


def test_full_block_dim_counts_the_image_of_omega():
    # ROADMAP item 25's enumeration: the square of full_block_dim is the
    # number of functionals omega(x, -) as x runs over D = (Z/N)^f x prod Z/t_i,
    # H^1 with its free part read mod N, counted without a Smith form
    checked = torsion_pairs = 0
    for level, _ in cases():
        report = block_report(level, components=[])
        n, h1 = report.denominator, report.presentations.triple.h1
        moduli = (n,) * h1.free_rank + h1.torsion
        if math.prod(moduli) > 50_000:
            continue
        omega = densify(report.omega).row_lists()
        assert image_order(n, omega, moduli) == full_block_dim(report) ** 2
        checked += 1
        torsion_pairs += any(report.omega[h1.free_rank:])
    assert checked >= 64 and torsion_pairs >= 16, (checked, torsion_pairs)
