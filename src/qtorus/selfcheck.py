"""Dual-route agreement suite.

The commutator pairing has two independent implementations: a closed
word-combinatorial formula over the surface relator (:mod:`qtorus.gerbe`)
and an explicit simplicial route that triangulates the polygon model,
promotes kernel vectors to twisted cocycles, and evaluates cup products
against the fundamental cycle (:mod:`qtorus.cochain`). This module runs
both over a seeded grid of surfaces, local systems, and levels and demands
entry-exact equality. The grid covers genus 1 and 2, rank 1 and 2, three
monodromy families, and level denominators up to 6. A mismatch record
carries the monodromy, the level and the two generator vectors, so it
replays without the grid.

The closed side is the one reports run: the numerators W = G^T P G of
:func:`qtorus.gerbe.omega_numerators`, read raw, so a wrong W becomes a
mismatch record rather than an internal error. Once per local system, each
H^1 generator becomes a checked cocycle, all over one transport table
(:func:`qtorus.cochain.checked_classes`), and each ordered pair of them its
integer cup in Lambda (x) Lambda (:func:`qtorus.cochain.cup_tensor`), which
no level enters. Each level then builds W once, and each (level, pair) costs
one ``Frac1`` from W and one :func:`qtorus.cochain.pair_cup`: at most r^2
``Frac1`` terms, whatever the genus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cochain import checked_classes, cup_tensor, pair_cup, triangulate
from .forms import BilinearData, Frac1, QuadraticForm, invariance_check, polarize
from .forms import quad_from_bilinear
from .gerbe import omega_numerators
from .lattice import IntMatrix
from .surface import LatticeLocalSystem, cohomology_presentations

DEFAULT_SEED = 1729

_GENERA = (1, 2)
_RANKS = (1, 2)
_FAMILIES = ("trivial", "signs", "shear")
_DENOMINATORS = (1, 2, 3, 4, 5, 6)
_LEVELS_PER_CELL = 2


def _sign_matrices(rng: random.Random, genus: int, rank: int) -> list[IntMatrix]:
    mats = []
    for _ in range(2 * genus):
        mats.append(IntMatrix(rank, rank, [
            (rng.choice((1, -1)) if i == j else 0)
            for i in range(rank)
            for j in range(rank)
        ]))
    return mats


def _shear_matrices(rng: random.Random, genus: int, rank: int) -> list[IntMatrix]:
    """Powers of one shear; any commuting family satisfies the surface relation."""
    if rank == 1:
        return [IntMatrix(1, 1, [-1 if k % 2 == 0 else 1]) for k in range(2 * genus)]
    return [
        IntMatrix(2, 2, [1, rng.randint(-3, 3), 0, 1]) for _ in range(2 * genus)
    ]


def _local_system(rng: random.Random, genus: int, rank: int, family: str) -> LatticeLocalSystem:
    if family == "trivial":
        return LatticeLocalSystem.trivial(rank, genus)
    if family == "signs":
        return LatticeLocalSystem(rank, genus, _sign_matrices(rng, genus, rank))
    return LatticeLocalSystem(rank, genus, _shear_matrices(rng, genus, rank))


def _invariant_level(
    rng: random.Random, rho: LatticeLocalSystem, den: int
) -> tuple[BilinearData, QuadraticForm] | None:
    """Draw a level whose quadratic form the monodromy preserves.

    Random c matrices are filtered through the invariance check; a handful of
    rejection rounds is plenty because each family admits a structured
    fallback (diagonal c for sign actions, a tuned corner for the shear).
    Returns the level with the form that passed the check.
    """
    zeta = Frac1(1, den)
    r = rho.rank
    for attempt in range(40):
        if attempt < 30:
            c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
        elif r == 1:
            c = IntMatrix(1, 1, [rng.randint(-3, 3)])
        else:
            a = den * rng.randint(-1, 1)
            b = rng.randint(-3, 3)
            c = IntMatrix(2, 2, [a, b, -b - a + den * rng.randint(-1, 1), rng.randint(-3, 3)])
        level = BilinearData(c, zeta)
        quad = quad_from_bilinear(level)
        if invariance_check(quad, rho):
            return level, quad
    return None


@dataclass(frozen=True)
class SelfCheckResult:
    seed: int
    cases: int
    agreements: int
    mismatches: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return self.cases >= 100 and self.agreements == self.cases

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "agreements": self.agreements,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def run_selfcheck(seed: int = DEFAULT_SEED) -> SelfCheckResult:
    rng = random.Random(seed)
    cases = 0
    agreements = 0
    mismatches: list[dict] = []
    for genus in _GENERA:
        surface = triangulate(genus)
        for rank in _RANKS:
            for family in _FAMILIES:
                rho = _local_system(rng, genus, rank, family)
                gens = cohomology_presentations(rho).h1.all_gens()
                cocycles = checked_classes(gens, surface, rho)
                cups = [[cup_tensor(a, b) for b in cocycles] for a in cocycles]
                for den in _DENOMINATORS:
                    for _ in range(_LEVELS_PER_CELL):
                        drawn = _invariant_level(rng, rho, den)
                        if drawn is None:
                            continue
                        level, quad = drawn
                        pairing = polarize(quad)
                        w = omega_numerators(rho, pairing, gens)
                        agree = True
                        detail = None
                        for i, gi in enumerate(gens):
                            for j, gj in enumerate(gens):
                                closed = Frac1(w.entry(i, j), pairing.denominator)
                                simplicial = pair_cup(cups[i][j], pairing)
                                if closed != simplicial:
                                    agree = False
                                    detail = {
                                        "genus": genus,
                                        "rank": rank,
                                        "family": family,
                                        "den": den,
                                        "pair": [i, j],
                                        "closed": str(closed),
                                        "simplicial": str(simplicial),
                                        "monodromy": [m.row_lists() for m in rho.mon],
                                        "c_matrix": level.c.row_lists(),
                                        "zeta": str(level.zeta),
                                        "u": list(gi),
                                        "v": list(gj),
                                    }
                                    break
                            if not agree:
                                break
                        cases += 1
                        if agree:
                            agreements += 1
                        elif detail is not None:
                            mismatches.append(detail)
    return SelfCheckResult(seed=seed, cases=cases, agreements=agreements, mismatches=tuple(mismatches))
