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
no level enters.

Levels c / den are drawn by rejection. Each draw is tested on its integers,
(c, den), against the probe images of the local system's monodromy, which
are formed once (:func:`qtorus.forms.probe_images`); an accepted draw is
kept as its ``BilinearData``, and builds its ``QuadraticForm`` only if it
is polarized, below. Both routes are linear in the level's numerators B: the
cup factors through Lambda (x) Lambda, and P is built from B only through
products B (eps F). So each local system compares the routes once, in
integers, on the symmetric basis of Sym^2(Z^r): E_kk, and E_kl + E_lk for
k < l, each a form over N = 2. That is r(r + 1) / 2 calls of
:func:`qtorus.gerbe.omega_numerators`, and each entry W[i][j] is compared
with the cup tensor's M[k][k], or M[k][l] + M[l][k]: no ``Frac1`` and no
:func:`qtorus.cochain.pair_cup`. Every level's B is an integer combination
of the basis, so agreement there is agreement at every level, drawn or
not, and each drawn level counts as a case and an agreement with no W of
its own. When the basis disagrees, each drawn level of that local system
builds its form, is polarized and compared in Q/Z as a report would read
it, and a failing level gets its own record; if none fails, one record
names the basis form, the generator pair and the two integers, so the run
still fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cochain import checked_classes, cup_tensor, pair_cup, triangulate
from .forms import HALF, ZERO, BilinearData, Frac1, SymmetricForm, polarize
from .forms import preserves, probe_images, quad_from_bilinear
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


def _invariant_level(rng: random.Random, r: int, images: list, den: int) -> BilinearData | None:
    """Draw a level c / den whose quadratic form the monodromy preserves.

    Random c matrices are filtered through the integer invariance test on
    (c, den), since zeta = 1/den, against the local system's ``images``
    (:func:`qtorus.forms.probe_images`); a handful of rejection rounds is
    plenty because each family admits a structured fallback (diagonal c for
    sign actions, a tuned corner for the shear). Only the accepted draw
    becomes a ``BilinearData``; no form is built here, since a level's
    ``QuadraticForm`` is needed only when its local system's basis
    disagrees and the level is polarized.
    """
    for attempt in range(40):
        if attempt < 30:
            c = IntMatrix(r, r, [rng.randint(-3, 3) for _ in range(r * r)])
        elif r == 1:
            c = IntMatrix(1, 1, [rng.randint(-3, 3)])
        else:
            a = den * rng.randint(-1, 1)
            b = rng.randint(-3, 3)
            c = IntMatrix(2, 2, [a, b, -b - a + den * rng.randint(-1, 1), rng.randint(-3, 3)])
        if preserves(c, den, images):
            return BilinearData(c, Frac1(1, den))
    return None


def _first_disagreement(
    rho: LatticeLocalSystem, pairing: SymmetricForm, gens: list, cups: list
) -> tuple[int, int, Frac1, Frac1] | None:
    """The first generator pair (i, j) whose two routes differ, with both values."""
    w = omega_numerators(rho, pairing, gens)
    for i, row in enumerate(cups):
        for j, cup in enumerate(row):
            closed = Frac1(w[i].get(j, 0), pairing.denominator)
            simplicial = pair_cup(cup, pairing)
            if closed != simplicial:
                return i, j, closed, simplicial
    return None


def _basis_disagreement(
    rho: LatticeLocalSystem, gens: list, cups: list
) -> tuple[int, int, int, int, int, int] | None:
    """The first basis form (k, l) and generator pair (i, j) whose integers differ.

    Returns (k, l, i, j, closed, simplicial): W[i][j] for the form with
    numerators E_kl + E_lk (E_kk when k == l), and the cup tensor's matching
    entry sum.
    """
    r = rho.rank
    for k in range(r):
        for l in range(k, r):
            entries = tuple(
                tuple(HALF if {a, b} == {k, l} else ZERO for b in range(r)) for a in range(r)
            )
            w = omega_numerators(rho, SymmetricForm(r, entries), gens)
            for i, row in enumerate(cups):
                for j, m in enumerate(row):
                    closed = w[i].get(j, 0)
                    simplicial = m[k][l] + m[l][k] if k < l else m[k][k]
                    if closed != simplicial:
                        return k, l, i, j, closed, simplicial
    return None


@dataclass(frozen=True)
class SelfCheckResult:
    seed: int
    cases: int
    agreements: int
    mismatches: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return self.cases >= 100 and self.agreements == self.cases and not self.mismatches

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
                images = probe_images(rho.mon, rank)
                basis = _basis_disagreement(rho, gens, cups)
                recorded = len(mismatches)
                for den in _DENOMINATORS:
                    for _ in range(_LEVELS_PER_CELL):
                        level = _invariant_level(rng, rank, images, den)
                        if level is None:
                            continue
                        cases += 1
                        # once the basis agrees, no level builds a form or a W
                        verdict = basis and _first_disagreement(
                            rho, polarize(quad_from_bilinear(level)), gens, cups
                        )
                        if verdict is None:
                            agreements += 1
                            continue
                        i, j, closed, simplicial = verdict
                        mismatches.append({
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
                            "u": list(gens[i]),
                            "v": list(gens[j]),
                        })
                if basis is not None and len(mismatches) == recorded:
                    k, l, i, j, closed, simplicial = basis
                    mismatches.append({
                        "genus": genus,
                        "rank": rank,
                        "family": family,
                        "basis": [k, l],
                        "pair": [i, j],
                        "closed": closed,
                        "simplicial": simplicial,
                        "monodromy": [m.row_lists() for m in rho.mon],
                        "u": list(gens[i]),
                        "v": list(gens[j]),
                    })
    return SelfCheckResult(seed=seed, cases=cases, agreements=agreements, mismatches=tuple(mismatches))
