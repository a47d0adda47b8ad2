"""Simplicial cochain model of the closed genus-g surface: omega's oracle.

The surface is the 4g-gon with the standard boundary identification, coned
from an interior vertex: 4g triangles, 4g radial edges, 2g identified
boundary loops, and two vertices (cone point and the single boundary
vertex). Each triangle carries a fixed vertex order with the cone point
first, chosen so that every face traverses its edge cell in the cell's
intrinsic direction; this makes the complex a genuine ordered
(delta-complex) structure on which the front/back-face cup product is
defined.

A twisted 1-cochain stores one integer vector per edge, read in the chart
of the polygon interior. Because the polygon is simply connected, the
coboundary is the untwisted alternating sum once each face value is
transported back to the chart: a face lying over the boundary word prefix
W picks up the monodromy of W. The orientation is normalized so that at
genus 1 with trivial coefficients the a-loop cup b-loop evaluates to +1.

The oracle has one route. :func:`checked_classes` builds one transport
table for its (triangulation, local system): a list of 6g + 1 matrices,
the 4g + 1 boundary prefixes, each the previous one times a letter, then
the 2g generators, each letter's matrix read by index off the local
system's ``mon`` or ``mon_inv``. Each face holds the index of its
transport; an identity factor or transport costs no product, and a value at
an identity transport is read as it is. Each H^1 vector becomes the
1-cochain with that holonomy on the generator loops, its radial values
forced triangle by triangle around the polygon, and is checked once, in one
pass: each triangle's three face values are carried to the chart once, the
coboundary test reads their alternating sum, and the resulting
:class:`Cocycle` keeps the front and back faces from the same values. At
genus g the radial walk and the check each cost at most 4g - 1
matrix-vector products.

:func:`cup_tensor` sums the integer r x r cup of two checked cocycles in
Lambda (x) Lambda over the triangles. No level enters: the caller pairs the
tensor with a level's numerators, so the oracle reads no form and shares
no arithmetic with the closed route it checks.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import InvariantViolation, NotInKernel, ShapeMismatch, UnsupportedGenus, _Frozen
from .surface import LatticeLocalSystem

Cell = tuple[str, int]  # an edge: ("rad", k) or ("gen", j)

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


def triangulate(genus: int) -> TriangulatedSurface:
    """Build and validate the coned-polygon model; genus must be >= 1."""
    return TriangulatedSurface(genus)


class _Transports:
    """Monodromy of every face position of one triangulation under one local system.

    A list addressed by the faces' indices, None for the identity. Index
    k <= 4g is the boundary prefix of k sides, index k - 1 times the letter
    on side k - 1, a product unless one factor is the identity; index
    4g + 1 + j is generator j, ``rho.mon[j]``; a letter x_j^-1 reads
    ``rho.mon_inv[j]``. A matrix is the identity when its entries are I's.
    """

    def __init__(self, t: TriangulatedSurface, rho: LatticeLocalSystem):
        if rho.genus != t.genus:
            raise ShapeMismatch(f"local system genus {rho.genus} != triangulation genus {t.genus}")
        self.t = t
        r = self.rank = rho.rank
        eye = (((1,) + (0,) * r) * r)[: r * r]  # I's entries: a 1 every r + 1 places
        self._matrices = [None]
        for j, eps in t.side_letter:
            prefix, step = self._matrices[-1], (rho.mon if eps == 1 else rho.mon_inv)[j]
            if step.entries != eye:
                prefix = step if prefix is None else prefix @ step
            self._matrices.append(None if prefix is None or prefix.entries == eye else prefix)
        self._matrices += [None if m.entries == eye else m for m in rho.mon]

    def move(self, at: int, value: tuple[int, ...]) -> tuple[int, ...]:
        """``value`` carried from the position with transport index ``at`` back to the chart.

        An identity transport, as at index 0 where two of each triangle's
        three faces sit, returns the value unchanged with no product.
        """
        return value if (m := self._matrices[at]) is None else m.mul_vec(value)


class Cocycle(_Frozen):
    """A 1-cochain that passed the cocycle check, with its cup faces transported.

    Only this module makes one, after the check. ``values`` is a read-only
    view of its integer vector on each edge, in the chart, so a checked
    cocycle stays as checked. ``front`` and ``back`` hold, triangle by
    triangle, the value on the front face [v0, v1] and on the back face
    [v1, v2], both in the chart; :func:`cup_tensor` cups them.
    """

    __slots__ = ("values", "table", "front", "back")

    def __init__(
        self, values: Mapping[Cell, tuple[int, ...]], table: _Transports,
        front: tuple[tuple[int, ...], ...], back: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "front", front)
        object.__setattr__(self, "back", back)


def _chart_faces(
    values: Mapping[Cell, tuple[int, ...]], table: _Transports
) -> list[tuple[tuple[int, ...], ...]]:
    """Each triangle's three face values of a 1-cochain in the chart, slots d0, d1, d2.

    The one pass that transports a 1-cochain: its coboundary and its cup's
    front and back faces are all read from these values.
    """
    move = table.move
    return [
        tuple(move(face.at, values[face.cell]) for face in tri.faces) for tri in table.t.triangles
    ]


def _alternating_sums(faces: list[tuple[tuple[int, ...], ...]]) -> list[tuple[int, ...]]:
    """d0 - d1 + d2 on each triangle: the coboundary's value there."""
    return [tuple(x - y + z for x, y, z in zip(d0, d1, d2)) for d0, d1, d2 in faces]


def _check(values: Mapping[Cell, tuple[int, ...]], table: _Transports) -> Cocycle | None:
    """The checked form of a 1-cochain's edge values, or None when its coboundary is nonzero."""
    faces = _chart_faces(values, table)
    if any(map(any, _alternating_sums(faces))):
        return None
    return Cocycle(values, table, tuple(f[2] for f in faces), tuple(f[0] for f in faces))


def cup_tensor(a: Cocycle, b: Cocycle) -> tuple[tuple[int, ...], ...]:
    """The cup of two checked 1-cocycles of one local system in Lambda (x) Lambda.

    An r x r integer matrix M, evaluated on the fundamental cycle by the
    front face/back face rule: on each ordered triangle, the value of ``a``
    on the edge out of the first vertex times the value of ``b`` on the edge
    into the last vertex, both transported to the chart, so that
    M[k][l] = sum over triangles of sign * front_a[k] * back_b[l]. No level
    enters; the caller pairs M with one.
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
    checked = _check(values, table)
    if checked is None:
        raise InvariantViolation("the radial walk closed up on a non-cocycle")
    return checked


def checked_classes(
    h1_vectors: Sequence[Sequence[int]], t: TriangulatedSurface, rho: LatticeLocalSystem
) -> tuple[Cocycle, ...]:
    """The checked 1-cocycle of each H^1 vector, all over one transport table.

    Each vector lists one integer vector per generator loop (concatenated,
    generator-major), the cocycle's value on that loop. Values on the radial
    edges are forced by the cocycle condition triangle by triangle around
    the polygon; the walk closes up exactly when the vector lies in the
    kernel of the degree-1 differential, otherwise NotInKernel is raised.
    """
    table = _Transports(t, rho)
    return tuple(_class_of(v, table) for v in h1_vectors)
