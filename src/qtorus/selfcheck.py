"""Dual-route agreement suite.

The commutator pairing has two independent implementations: a closed
word-combinatorial formula over the surface relator (:mod:`qtorus.gerbe`)
and an explicit simplicial route that triangulates the polygon model,
promotes kernel vectors to twisted cocycles, and evaluates cup products
against the fundamental cycle (:mod:`qtorus.cochain`). This module runs
both over a seeded grid of surfaces and local systems and demands
entry-exact equality. The grid covers genus 1 and 2, rank 1 and 2, and
three monodromy families.

The closed side is the one reports run: the numerators W = G^T P G of
:func:`qtorus.gerbe.omega_numerators`, read raw, so a wrong W becomes a
mismatch record rather than an internal error. W takes H^1's generators as
the presentation's {coordinate: entry} rows. Once per local system, they
are laid out as dense vectors that become one batch of checked cocycles
over one transport table (:func:`qtorus.cochain.checked_classes`), and one
call gives every ordered pair of them its integer cup in Lambda (x) Lambda
(:func:`qtorus.cochain.cup_tensors`).

Both routes are linear in a level's integer numerators B, so each local
system compares them once, in integers, on the symmetric basis of
Sym^2(Z^r): E_kk, and E_kl + E_lk for k < l, each an integer B with no
denominator. Each entry W[i][j] of the basis matrix's W is compared with
the cup tensor's M[k][k], or M[k][l] + M[l][k]. Every level's B is an
integer combination of the basis, so agreement there is agreement at every
level. A local system whose basis disagrees gets one record: the basis
matrix, the generator pair, the two integers, the monodromy and both
generators, so it replays without the grid.

Levels c / den, with den up to 6, are drawn by rejection, each draw
tested on its integers by the reports' :func:`qtorus.forms.preserves`.
A drawn level is a case, and an agreement when its local system's basis
agreed; no level builds a form.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .cochain import checked_classes, cup_tensors, triangulate
from .errors import InvariantViolation, NotInKernel
from .forms import moving_columns, preserves
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


def _invariant_level(rng: random.Random, r: int, moving: list, den: int) -> list[int] | None:
    """Draw a level c / den whose quadratic form the monodromy preserves.

    Random c matrices are filtered through the integer invariance test on
    (c, den), since zeta = 1/den, against the local system's ``moving``
    (:func:`qtorus.forms.moving_columns`); a handful of rejection rounds is
    plenty because each family admits a structured fallback (diagonal c for
    sign actions, a tuned corner for the shear). Returns the accepted c as
    its flat list of entries, or None; no matrix or form is built.
    """
    for attempt in range(40):
        if attempt < 30:
            c = [rng.randint(-3, 3) for _ in range(r * r)]
        elif r == 1:
            c = [rng.randint(-3, 3)]
        else:
            a = den * rng.randint(-1, 1)
            b = rng.randint(-3, 3)
            c = [a, b, -b - a + den * rng.randint(-1, 1), rng.randint(-3, 3)]
        if preserves(c, den, moving):
            return c
    return None


def _basis_disagreement(
    rho: LatticeLocalSystem, gens: list, cups: list
) -> tuple[int, int, int, int, int, int] | None:
    """The first basis matrix (k, l) and generator pair (i, j) whose integers differ.

    Returns (k, l, i, j, closed, simplicial): W[i][j] for B = E_kl + E_lk
    (E_kk when k == l), and the cup tensor's matching entry sum.
    """
    r = rho.rank
    for k in range(r):
        for l in range(k, r):
            basis = IntMatrix(r, r, [int({a, b} == {k, l}) for a in range(r) for b in range(r)])
            w = omega_numerators(rho, basis, gens)
            for i, row in enumerate(cups):
                for j, m in enumerate(row):
                    closed = w[i].get(j, 0)
                    simplicial = m[k][l] + m[l][k] if k < l else m[k][k]
                    if closed != simplicial:
                        return k, l, i, j, closed, simplicial
    return None


class SelfCheckResult(NamedTuple):
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
                vectors = [[g.get(i, 0) for i in range(2 * genus * rank)] for g in gens]
                try:
                    classes = checked_classes(vectors, surface, rho)
                except NotInKernel:  # the routes disagree on H^1; selfcheck reads no user data
                    where = f"genus {genus}, rank {rank}, {family}"
                    raise InvariantViolation(f"the radial walk fails on H^1: {where}") from None
                cups = cup_tensors(classes)
                moving = moving_columns(rho.mon, rank)
                basis = _basis_disagreement(rho, gens, cups)
                drawn = sum(
                    _invariant_level(rng, rank, moving, den) is not None
                    for den in _DENOMINATORS
                    for _ in range(_LEVELS_PER_CELL)
                )
                cases += drawn
                if basis is None:
                    agreements += drawn
                    continue
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
                    "u": vectors[i],
                    "v": vectors[j],
                })
    return SelfCheckResult(seed=seed, cases=cases, agreements=agreements, mismatches=tuple(mismatches))
