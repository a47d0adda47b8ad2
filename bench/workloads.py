"""Seeded job generators for the four benchmark workloads.

Every workload is a fixed deck of slots. A slot fixes the shape of a job
(task, genus, rank, component bound, monodromy family); the entries that fill
the shape (monodromy, level, selfcheck seed) come from one of ``VARIANTS``
variants of that slot, each derived from ``(workload, slot, variant)`` alone.
The run seed only chooses which variant each slot uses in each round and the
order of the slots within a round. So every round costs about the same for
every seed, which keeps the figures comparable across seeds, and the output
fields that do not depend on generator choice can be checked against values
recorded once per variant (``expected.json``, written by ``record.py``).

Within one run a slot never repeats a variant until all of them have been
used, so a cache that spans jobs gains nothing from repeated specs before
round ``VARIANTS + 1``, which no 12-second run reaches.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import count
from math import gcd
from typing import Iterator

VARIANTS = 10
# A 12-second run holds six selfcheck jobs. Selfcheck seeds differ in cost by
# about 8%, so drawing six of a larger pool would make the figures wander with
# the draw; with six, every run times the same jobs and the seed orders them.
SELFCHECK_VARIANTS = 6

# A run's number of rounds is ``--seconds`` over the workload's ``ROUND_S``,
# the normalized seconds one round took at the commit that defined the
# benchmark. It is fixed here, never re-measured, so the number of rounds,
# and with it the jobs behind every order statistic, does not move with the
# program's speed or the machine's.
#
# At 12 seconds, the decks put the median inside one mid-cost shape's
# samples and the tail (the 11th-largest job) inside the largest shape's
# samples, away from either end of them. Where a deck repeats a shape, each
# copy is a slot with variants of its own.

# components: global jobs, trivial or diagonal-sign monodromy.
# (genus, rank, component_bound, number of sign-flipped coordinates)
# g4 r4 jobs take 1.6 s, so eleven of them do not fit a run: here the tail
# falls in the g4 r3 shape, with the g3 r4 and g4 r4 jobs beyond it.
COMPONENT_SLOTS = (
    (1, 3, 2, 0),
    (1, 4, 1, 0),
    (2, 3, 1, 0),
    (2, 3, 2, 1),
    (2, 4, 1, 2),
    (3, 3, 1, 0),
    (3, 4, 1, 1),
    (4, 3, 1, 0),
    (4, 4, 1, 0),
)

# genus_shear: bunt jobs, commuting unipotent shears. (genus, rank)
SHEAR_SLOTS = (
    (5, 2),
    (6, 2),
    (4, 3),
    (9, 2),
    (9, 2),
)

# surface_twisted: surface jobs, handle pairs (T_i, T_i^k). (genus, rank)
TWISTED_SLOTS = (
    (8, 3),
    (8, 4),
    (12, 3),
    (13, 4),
    (13, 4),
)

ROUND_S = {
    "components": 3.33,
    "genus_shear": 1.78,
    "surface_twisted": 1.34,
    "selfcheck": 2.17,
}

WORKLOADS = ("components", "genus_shear", "surface_twisted", "selfcheck")


@dataclass(frozen=True)
class Job:
    """One CLI call: ``qtorus <task> --input <spec file> [extra_args]``."""

    key: str  # "<workload>/<slot>/<variant>"; names the recorded expectation
    task: str
    spec: dict
    extra_args: tuple[str, ...] = ()

    @property
    def slot(self) -> int:
        return int(self.key.split("/")[1])

    def spec_text(self) -> str:
        return json.dumps(self.spec, sort_keys=True) + "\n"

    def digest(self) -> str:
        """Fingerprint of everything the program sees; pins the recorded expectation."""
        text = self.spec_text() + " ".join(self.extra_args)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _identity(r: int) -> list[list[int]]:
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _zeta(rng: random.Random) -> tuple[int, str]:
    """A level phase num/den in lowest terms, den in 2..6: (den, "num/den")."""
    den = rng.randint(2, 6)
    num = rng.choice([n for n in range(1, den) if gcd(n, den) == 1])
    return den, f"{num}/{den}"


def _components_job(slot: int, variant: int) -> Job:
    genus, rank, bound, flips = COMPONENT_SLOTS[slot]
    rng = _rng("components", slot, variant)
    _, zeta = _zeta(rng)
    flipped = sorted(rng.sample(range(rank), flips))
    c = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    # A sign flip on coordinate i preserves the form only when every cross
    # term b(e_i, e_j) it negates vanishes; antisymmetric entries make it so.
    for i in range(rank):
        for j in range(i + 1, rank):
            if i in flipped or j in flipped:
                c[j][i] = -c[i][j]
    surface: dict = {"genus": genus, "rank": rank}
    if flipped:
        signs = [[1] * rank for _ in range(2 * genus)]
        for i in flipped:
            signs[rng.randrange(2 * genus)][i] = -1  # every flipped coordinate acts
            for gen in signs:
                if rng.random() < 0.5:
                    gen[i] = -1
        surface["monodromy"] = [
            [[s[i] if i == j else 0 for j in range(rank)] for i in range(rank)] for s in signs
        ]
    spec = {
        "task": "global",
        "surface": surface,
        "level": {"c_matrix": c, "zeta": zeta},
        "component_bound": bound,
    }
    return Job(f"components/{slot}/{variant}", "global", spec)


def _shear_job(slot: int, variant: int) -> Job:
    genus, rank = SHEAR_SLOTS[slot]
    rng = _rng("genus_shear", slot, variant)
    den, zeta = _zeta(rng)
    mats = []
    for k in range(2 * genus):
        m = _identity(rank)
        for j in range(1, rank):
            m[0][j] = rng.randint(-3, 3)
        mats.append(m)
    mats[0][0][1] = 1  # coinvariants stay Z^(rank-1): a fixed component count
    # The shears move only the first coordinate, by integer combinations of
    # the others; the form is invariant when every term touching the first
    # coordinate has an integer value.
    c = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    c[0][0] = den * rng.randint(-1, 1)
    for j in range(1, rank):
        c[j][0] = -c[0][j] + den * rng.randint(-1, 1)
    spec = {
        "task": "bunt",
        "surface": {"genus": genus, "rank": rank, "monodromy": mats},
        "level": {"c_matrix": c, "zeta": zeta},
        "component_bound": 1,
    }
    return Job(f"genus_shear/{slot}/{variant}", "bunt", spec)


def _elementary_product(rng: random.Random, rank: int, ops: int):
    """A random unimodular matrix and its inverse, as products of row additions."""
    t, t_inv = _identity(rank), _identity(rank)
    for _ in range(ops):
        i, j = rng.sample(range(rank), 2)
        q = rng.choice((-2, -1, 1, 2))
        e, e_inv = _identity(rank), _identity(rank)
        e[i][j], e_inv[i][j] = q, -q
        t, t_inv = _matmul(e, t), _matmul(t_inv, e_inv)
    return t, t_inv


def _power(m: list[list[int]], m_inv: list[list[int]], k: int) -> list[list[int]]:
    out = _identity(len(m))
    for _ in range(abs(k)):
        out = _matmul(out, m if k > 0 else m_inv)
    return out


def _twisted_job(slot: int, variant: int) -> Job:
    genus, rank = TWISTED_SLOTS[slot]
    rng = _rng("surface_twisted", slot, variant)
    mats = []
    for _ in range(genus):
        t, t_inv = _elementary_product(rng, rank, 3)
        k = rng.choice((-2, -1, 2))
        mats += [t, _power(t, t_inv, k)]  # commuting pair: each commutator is 1
    spec = {"task": "surface", "surface": {"genus": genus, "rank": rank, "monodromy": mats}}
    return Job(f"surface_twisted/{slot}/{variant}", "surface", spec)


def _selfcheck_job(slot: int, variant: int) -> Job:
    seed = _rng("selfcheck", variant).randrange(1, 10**6)
    return Job(f"selfcheck/{slot}/{variant}", "selfcheck", {"task": "selfcheck"}, ("--seed", str(seed)))


_MAKERS = {
    "components": (_components_job, len(COMPONENT_SLOTS), VARIANTS),
    "genus_shear": (_shear_job, len(SHEAR_SLOTS), VARIANTS),
    "surface_twisted": (_twisted_job, len(TWISTED_SLOTS), VARIANTS),
    "selfcheck": (_selfcheck_job, 1, SELFCHECK_VARIANTS),
}


def make_job(workload: str, slot: int, variant: int) -> Job:
    maker, _, _ = _MAKERS[workload]
    return maker(slot, variant)


def all_jobs(workload: str) -> list[Job]:
    """Every variant of every slot: the set ``expected.json`` covers."""
    _, slots, variants = _MAKERS[workload]
    return [make_job(workload, s, v) for s in range(slots) for v in range(variants)]


def n_rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of ``seconds``: a constant of the workload, not of the program."""
    return max(1, round(seconds / ROUND_S[workload]))


def describe(workload: str) -> str:
    """The input mix of one round, read from the deck."""
    if workload == "selfcheck":
        return f"selfcheck --seed N jobs, N from a pool of {SELFCHECK_VARIANTS}, 1 per round"
    if workload == "components":
        shapes = [f"g{g} r{r} bound {b}" + (f" flips {f}" if f else "")
                  for g, r, b, f in COMPONENT_SLOTS]
        task = "global jobs, trivial or diagonal-sign monodromy"
    else:
        slots = SHEAR_SLOTS if workload == "genus_shear" else TWISTED_SLOTS
        shapes = [f"g{g} r{r}" for g, r in slots]
        task = ("bunt jobs, commuting unipotent shears" if workload == "genus_shear"
                else "surface jobs, handle pairs (T, T^k)")
    return f"{task}; {len(shapes)} jobs per round: {', '.join(shapes)}"


def rounds(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless rounds of the deck; each round runs every slot once, in seeded order."""
    _, slots, variants = _MAKERS[workload]
    rng = _rng(workload, "run", seed)
    perms = [rng.sample(range(variants), variants) for _ in range(slots)]
    for i in count():
        order = rng.sample(range(slots), slots)
        yield [make_job(workload, s, perms[s][i % variants]) for s in order]
