"""Simplicial cochain model of the closed genus-g surface.

The surface is the 4g-gon with the standard boundary identification, coned
from an interior vertex: 4g triangles, 4g radial edges, 2g identified
boundary loops, and two vertices (cone point and the single boundary
vertex). Each triangle carries a fixed vertex order with the cone point
first, chosen so that every face traverses its edge cell in the cell's
intrinsic direction; this makes the complex a genuine ordered
(delta-complex) structure on which the front/back-face cup product is
defined.

Twisted cochains store one integer vector per cell, read in the chart of the
polygon interior. Because the polygon is simply connected, the coboundary is
the untwisted alternating sum once each face value is transported back to
the chart: a face lying over the boundary word prefix W picks up the
monodromy of W. The orientation is normalized so that at genus 1 with
trivial coefficients the a-loop cup b-loop evaluates to +1.

Each public entry point builds one transport table for its (triangulation,
local system): a list of 6g + 1 matrices, the 4g + 1 boundary prefixes, each
the previous one times a letter, then the 2g generators. Each face holds the
index of its transport; an identity factor or transport costs no product, and
a value at an identity transport is read as it is. Every 1-cocycle is checked
once, when :func:`class_of` builds it or :func:`cup_evaluate` receives it,
in one pass: each triangle's three face values are carried to the chart
once, the coboundary test reads their alternating sum, and the resulting
:class:`Cocycle` keeps the front and back faces from the same values. At
genus g the check costs at most 4g - 1 matrix-vector products, and a cocycle
that :func:`class_of` builds at most 4g - 1 more for its radial walk.
:func:`checked_classes` builds a local system's cocycles over one table,
and :func:`cup_tensor` takes checked cocycles with no further check, so a
caller that pairs N cocycles at many levels checks each one once.

The cup product factors through the coefficients: :func:`cup_tensor` sums
the integer r x r cup of two checked cocycles in Lambda (x) Lambda over the
triangles, and :func:`pair_cup` pairs that tensor with a level, one
``Frac1`` term per nonzero entry read from the pairing's ``entries``. The
tensor does not depend on the level, so a caller that pairs the same
cocycles at many levels builds it once per pair. The oracle never reads the
forms' integer numerators or calls their evaluators, so it shares no
arithmetic with the closed route it checks.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import (
    InvariantViolation,
    NotACocycle,
    NotInKernel,
    ShapeMismatch,
    UnsupportedGenus,
)
from .forms import ZERO, Frac1, SymmetricForm
from .surface import LatticeLocalSystem

Cell = tuple[str, object]  # ("vert","c"|"v"), ("rad",k), ("gen",j), ("tri",k)

_V_CONE: Cell = ("vert", "c")
_V_BASE: Cell = ("vert", "v")

# face slot -> (tail position, head position) in the ordered triangle
_SLOT_ENDS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class _Face(NamedTuple):
    cell: Cell
    at: int  # index of the transport from the chart to this face's position


class _Triangle(NamedTuple):
    sign: int  # contribution to the fundamental cycle
    faces: tuple[_Face, _Face, _Face]  # slots d0, d1, d2


class TriangulatedSurface:
    """Combinatorial tables of the coned 4g-gon; no coefficient data."""

    def __init__(self, genus: int):
        if genus < 1:
            raise UnsupportedGenus("the polygon model needs genus >= 1")
        self.genus = genus
        n = 4 * genus
        self.num_sides = n
        # side k of the polygon carries generator j with exponent eps
        self.side_letter: list[tuple[int, int]] = []
        for k in range(n):
            j = 2 * (k // 4) + (0 if k % 4 in (0, 2) else 1)
            eps = 1 if k % 4 < 2 else -1
            self.side_letter.append((j, eps))
        # a face's transport index (see _Transports): k for the boundary
        # prefix of k sides, n + 1 + j for generator j alone
        self.triangles: list[_Triangle] = []
        for k in range(n):
            j, eps = self.side_letter[k]
            rad_k: Cell = ("rad", k)
            rad_next: Cell = ("rad", (k + 1) % n)
            gen: Cell = ("gen", j)
            if eps == 1:
                # ordered (cone, corner k, corner k+1); agrees with the polygon
                # orientation, so it counts +1 in the fundamental cycle
                faces = (_Face(gen, k), _Face(rad_next, 0), _Face(rad_k, 0))
                self.triangles.append(_Triangle(1, faces))
            else:
                # ordered (cone, corner k+1, corner k): the side is traversed
                # against the polygon, so the triangle counts -1
                faces = (_Face(gen, k + 1), _Face(rad_k, 0), _Face(rad_next, 0))
                self.triangles.append(_Triangle(-1, faces))
        self.edge_cells: list[Cell] = [("rad", k) for k in range(n)] + [
            ("gen", j) for j in range(2 * genus)
        ]
        # oriented edges: (tail face, head face) with transports into the chart
        self.edge_ends: dict[Cell, tuple[_Face, _Face]] = {}
        for k in range(n):
            self.edge_ends[("rad", k)] = (_Face(_V_CONE, 0), _Face(_V_BASE, k))
        for j in range(2 * genus):
            self.edge_ends[("gen", j)] = (_Face(_V_BASE, 0), _Face(_V_BASE, n + 1 + j))
        self._validate()

    # -- structural checks -------------------------------------------------

    def _validate(self) -> None:
        g, n = self.genus, self.num_sides
        v, e, f = 2, len(self.edge_cells), len(self.triangles)
        if v - e + f != 2 - 2 * g:
            raise InvariantViolation("Euler characteristic mismatch")
        occurrences: dict[Cell, list[tuple[int, int]]] = {c: [] for c in self.edge_cells}
        for t, tri in enumerate(self.triangles):
            for slot, face in enumerate(tri.faces):
                occurrences[face.cell].append((t, slot))
        for cell, occ in occurrences.items():
            if len(occ) != 2:
                raise InvariantViolation(f"edge {cell} lies on {len(occ)} triangle sides, not 2")
        # the signed faces must cancel: the triangles form a fundamental cycle
        balance: dict[Cell, int] = {c: 0 for c in self.edge_cells}
        for tri in self.triangles:
            for slot, face in enumerate(tri.faces):
                balance[face.cell] += tri.sign * (1 if slot != 1 else -1)
        if any(balance.values()):
            raise InvariantViolation("triangle orientations do not sum to a cycle")
        if self._count_link_circles(occurrences) != v:
            raise InvariantViolation("some vertex link is not a single circle")

    def _count_link_circles(self, occurrences: dict[Cell, list[tuple[int, int]]]) -> int:
        # walk corner-to-corner around each vertex; every cycle is one link
        # circle, so the number of cycles must equal the number of vertices
        adj = {0: (1, 2), 1: (0, 2), 2: (0, 1)}  # corner position -> face slots
        seen: set[tuple[int, int, int]] = set()  # (triangle, position, exit slot)
        cycles = 0
        for t0 in range(len(self.triangles)):
            for p0 in range(3):
                for s0 in adj[p0]:
                    if (t0, p0, s0) in seen:
                        continue
                    cycles += 1
                    t, p, s = t0, p0, s0
                    while (t, p, s) not in seen:
                        seen.add((t, p, s))
                        a, b = occurrences[self.triangles[t].faces[s].cell]
                        t2, s2 = b if (t, s) == a else a
                        # land on the matching end of the shared edge
                        end = 0 if _SLOT_ENDS[s][0] == p else 1
                        p2 = _SLOT_ENDS[s2][end]
                        other = [x for x in adj[p2] if x != s2][0]
                        t, p, s = t2, p2, other
                    if (t, p, s) != (t0, p0, s0):
                        raise InvariantViolation("corner walk did not close up")
        # each undirected corner was traversed once per exit slot; the walk
        # above visits every (corner, exit) pair exactly once around a cycle,
        # so directed cycles come in orientation pairs
        if cycles % 2:
            raise InvariantViolation("odd number of directed link cycles")
        return cycles // 2

    def cells_of_degree(self, degree: int) -> list[Cell]:
        if degree == 0:
            return [_V_CONE, _V_BASE]
        if degree == 1:
            return list(self.edge_cells)
        if degree == 2:
            return [("tri", k) for k in range(self.num_sides)]
        raise ShapeMismatch(f"no cells in degree {degree}")


class TwistedCochain:
    """Vector-valued cochain; values are read in the polygon chart."""

    __slots__ = ("degree", "rank", "values")

    def __init__(self, degree: int, rank: int, values: Mapping[Cell, tuple[int, ...]]):
        if degree not in (0, 1, 2):
            raise ShapeMismatch(f"degree must be 0, 1 or 2, got {degree}")
        clean = {}
        for cell, vec in values.items():
            v = tuple(vec)
            if any(isinstance(x, bool) or not isinstance(x, int) for x in v):
                raise ShapeMismatch(f"value at {cell} has a non-integer entry: {v}")
            if len(v) != rank:
                raise ShapeMismatch(f"value at {cell} has length {len(v)}, expected {rank}")
            clean[cell] = v
        self._set(degree, rank, clean)

    def _set(self, degree: int, rank: int, values: dict[Cell, tuple[int, ...]]) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "values", values)

    def __setattr__(self, *_):
        raise AttributeError("TwistedCochain is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, TwistedCochain) and (
            (self.degree, self.rank, self.values) == (other.degree, other.rank, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.rank, self.values))

    def value(self, cell: Cell) -> tuple[int, ...]:
        return self.values[cell]


def triangulate(genus: int) -> TriangulatedSurface:
    """Build and validate the coned-polygon model; genus must be >= 1."""
    return TriangulatedSurface(genus)


class _Transports:
    """Monodromy of every face position of one triangulation under one local system.

    A list addressed by the faces' indices, None for the identity. Index
    k <= 4g is the boundary prefix of k sides, index k - 1 times the letter
    on side k - 1, a product unless one factor is the identity; index
    4g + 1 + j is generator j, ``rho.mon[j]``.
    """

    def __init__(self, t: TriangulatedSurface, rho: LatticeLocalSystem):
        if rho.genus != t.genus:
            raise ShapeMismatch(f"local system genus {rho.genus} != triangulation genus {t.genus}")
        self.t = t
        self.rank = rho.rank
        eye = rho.word_matrix(())
        self._matrices = [None]
        for j, eps in t.side_letter:
            prefix, step = self._matrices[-1], rho.matrix(eps * (j + 1))
            prefix = step if prefix is None else prefix if step == eye else prefix @ step
            self._matrices.append(None if prefix == eye else prefix)
        self._matrices += [None if m == eye else m for m in rho.mon]

    def move(self, at: int, value: tuple[int, ...]) -> tuple[int, ...]:
        """``value`` carried from the position with transport index ``at`` back to the chart.

        An identity transport, as at index 0 where two of each triangle's
        three faces sit, returns the value unchanged with no product.
        """
        return value if (m := self._matrices[at]) is None else m.mul_vec(value)


class Cocycle:
    """A 1-cochain that passed the cocycle check, with its cup faces transported.

    Only this module makes one, after the check. ``front`` and ``back`` hold,
    triangle by triangle, the value on the front face [v0, v1] and on the back
    face [v1, v2], both in the chart; :func:`cup_tensor` cups them.
    """

    __slots__ = ("cochain", "table", "front", "back")

    def __init__(
        self, cochain: TwistedCochain, table: _Transports,
        front: tuple[tuple[int, ...], ...], back: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "cochain", cochain)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "front", front)
        object.__setattr__(self, "back", back)

    def __setattr__(self, *_):
        raise AttributeError("Cocycle is immutable")

    def __eq__(self, other) -> bool:  # the transport table is not compared
        return isinstance(other, Cocycle) and (
            (self.cochain, self.front, self.back) == (other.cochain, other.front, other.back)
        )

    def __hash__(self) -> int:
        return hash((self.cochain, self.front, self.back))


def _check_compat(c: TwistedCochain, table: _Transports) -> None:
    if c.rank != table.rank:
        raise ShapeMismatch(f"cochain rank {c.rank} != local system rank {table.rank}")
    want = set(table.t.cells_of_degree(c.degree))
    have = set(c.values.keys())
    if want != have:
        raise ShapeMismatch("cochain does not assign exactly one value per cell of its degree")


def _chart_faces(c: TwistedCochain, table: _Transports) -> list[tuple[tuple[int, ...], ...]]:
    """Each triangle's three face values of a 1-cochain in the chart, slots d0, d1, d2.

    The one pass that transports a 1-cochain: its coboundary and its cup's
    front and back faces are all read from these values.
    """
    move, value = table.move, c.values
    return [
        tuple(move(face.at, value[face.cell]) for face in tri.faces) for tri in table.t.triangles
    ]


def _alternating_sums(faces: list[tuple[tuple[int, ...], ...]]) -> list[tuple[int, ...]]:
    """d0 - d1 + d2 on each triangle: the coboundary's value there."""
    return [tuple(x - y + z for x, y, z in zip(d0, d1, d2)) for d0, d1, d2 in faces]


def _coboundary(c: TwistedCochain, table: _Transports) -> TwistedCochain:
    t, r = table.t, c.rank
    if c.degree == 0:
        out: dict[Cell, tuple[int, ...]] = {}
        for cell in t.edge_cells:
            tail, head = t.edge_ends[cell]
            hv = table.move(head.at, c.value(head.cell))
            tv = table.move(tail.at, c.value(tail.cell))
            out[cell] = tuple(h - x for h, x in zip(hv, tv))
        return TwistedCochain(1, r, out)
    if c.degree == 1:
        sums = _alternating_sums(_chart_faces(c, table))
        return TwistedCochain(2, r, {("tri", k): v for k, v in enumerate(sums)})
    raise ShapeMismatch("no coboundary out of degree 2")


def _check(c: TwistedCochain, table: _Transports) -> Cocycle | None:
    """The checked form of a compatible 1-cochain, or None when its coboundary is nonzero."""
    faces = _chart_faces(c, table)
    if any(map(any, _alternating_sums(faces))):
        return None
    return Cocycle(c, table, tuple(f[2] for f in faces), tuple(f[0] for f in faces))


def coboundary(
    c: TwistedCochain, t: TriangulatedSurface, rho: LatticeLocalSystem
) -> TwistedCochain:
    """Twisted coboundary; raises in degree 2 where no higher cells exist."""
    table = _Transports(t, rho)
    _check_compat(c, table)
    return _coboundary(c, table)


def cocycle_check(c: TwistedCochain, t: TriangulatedSurface, rho: LatticeLocalSystem) -> bool:
    """True when the twisted coboundary vanishes identically.

    Degree-2 cochains are cocycles vacuously: the complex stops there.
    """
    table = _Transports(t, rho)
    _check_compat(c, table)
    if c.degree == 1:
        return _check(c, table) is not None
    return c.degree == 2 or not any(map(any, _coboundary(c, table).values.values()))


def cup_tensor(a: Cocycle, b: Cocycle) -> tuple[tuple[int, ...], ...]:
    """The cup of two checked 1-cocycles of one local system in Lambda (x) Lambda.

    An r x r integer matrix M, evaluated on the fundamental cycle by the
    front face/back face rule: on each ordered triangle, the value of ``a``
    on the edge out of the first vertex times the value of ``b`` on the edge
    into the last vertex, both transported to the chart, so that
    M[k][l] = sum over triangles of sign * front_a[k] * back_b[l]. No level
    enters; :func:`pair_cup` pairs M with one.
    """
    if a.table is not b.table:
        raise ShapeMismatch("the cocycles were built over different transport tables")
    r = a.table.rank
    m = [[0] * r for _ in range(r)]
    for tri, x, y in zip(a.table.t.triangles, a.front, b.back):
        for xk, row in zip(x, m):
            if xk:
                xk *= tri.sign
                for l, yl in enumerate(y):
                    if yl:
                        row[l] += xk * yl
    return tuple(tuple(row) for row in m)


def pair_cup(m: Sequence[Sequence[int]], pairing: SymmetricForm) -> Frac1:
    """The level's pairing b : Lambda (x) Lambda -> Q/Z applied to a cup tensor.

    One ``Frac1`` term, ``pairing.entries[k][l]`` scaled by M[k][l], per
    nonzero entry of M, so at most r^2 terms whatever the genus.
    """
    if pairing.rank != len(m):
        raise ShapeMismatch(f"pairing rank {pairing.rank} != local system rank {len(m)}")
    total = ZERO
    for m_row, row in zip(m, pairing.entries):
        for mkl, value in zip(m_row, row):
            if mkl:
                total = total + value.scale(mkl)
    return total


def cup_evaluate(
    c1: TwistedCochain,
    c2: TwistedCochain,
    pairing: SymmetricForm,
    t: TriangulatedSurface,
    rho: LatticeLocalSystem,
) -> Frac1:
    """Pair two 1-cocycles against the fundamental class.

    Checks both arguments, then takes their integer cup in Lambda (x) Lambda
    with :func:`cup_tensor` and pairs it through the pairing's ``Frac1``
    entries with :func:`pair_cup`. The pairing must be monodromy invariant
    for the result to be well defined; callers own that check.
    """
    if c1.degree != 1 or c2.degree != 1:
        raise NotACocycle("cup evaluation is defined on a pair of 1-cocycles")
    if pairing.rank != rho.rank:
        raise ShapeMismatch(f"pairing rank {pairing.rank} != local system rank {rho.rank}")
    table = _Transports(t, rho)
    _check_compat(c1, table)
    a = _check(c1, table)
    if a is None:
        raise NotACocycle("first argument is not a cocycle")
    _check_compat(c2, table)
    b = _check(c2, table)
    if b is None:
        raise NotACocycle("second argument is not a cocycle")
    return pair_cup(cup_tensor(a, b), pairing)


def _class_of(h1_vector: Sequence[int], table: _Transports) -> Cocycle:
    t, r = table.t, table.rank
    g = t.genus
    vec = tuple(h1_vector)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in vec):
        raise ShapeMismatch(f"holonomy vector {vec} has a non-integer entry")
    if len(vec) != 2 * g * r:
        raise ShapeMismatch(f"expected a vector of length {2 * g * r}, got {len(vec)}")
    loop_values = [vec[j * r : (j + 1) * r] for j in range(2 * g)]
    values: dict[Cell, tuple[int, ...]] = {("gen", j): loop_values[j] for j in range(2 * g)}
    radial = [0] * r
    values[("rad", 0)] = tuple(radial)
    for k in range(t.num_sides):
        j, eps = t.side_letter[k]
        step = table.move(k if eps == 1 else k + 1, loop_values[j])
        radial = [a + eps * s for a, s in zip(radial, step)]
        if k + 1 < t.num_sides:
            values[("rad", k + 1)] = tuple(radial)
    if any(radial):
        raise NotInKernel("holonomy data does not close up around the polygon")
    cochain = object.__new__(TwistedCochain)  # length-r int tuples per edge: no validation
    cochain._set(1, r, values)
    checked = _check(cochain, table)
    if checked is None:
        raise InvariantViolation("the radial walk closed up on a non-cocycle")
    return checked


def class_of(
    h1_vector: Sequence[int], t: TriangulatedSurface, rho: LatticeLocalSystem
) -> TwistedCochain:
    """Simplicial 1-cocycle with prescribed holonomy on each boundary loop.

    The input lists one integer vector per generator loop (concatenated,
    generator-major). Values on the radial edges are forced by the cocycle
    condition triangle by triangle around the polygon; the walk closes up
    exactly when the input lies in the kernel of the degree-1 differential,
    otherwise NotInKernel is raised. The result is then checked once.
    """
    return _class_of(h1_vector, _Transports(t, rho)).cochain


def checked_classes(
    h1_vectors: Sequence[Sequence[int]], t: TriangulatedSurface, rho: LatticeLocalSystem
) -> tuple[Cocycle, ...]:
    """:func:`class_of` of each vector, checked, over one transport table."""
    table = _Transports(t, rho)
    return tuple(_class_of(v, table) for v in h1_vectors)


def holonomies(c: TwistedCochain, t: TriangulatedSurface) -> tuple[int, ...]:
    """Concatenated loop values of a 1-cochain, generator-major."""
    if c.degree != 1:
        raise ShapeMismatch("holonomies are read off 1-cochains")
    out: list[int] = []
    for j in range(2 * t.genus):
        out.extend(c.value(("gen", j)))
    return tuple(out)
