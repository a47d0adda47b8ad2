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
table for its (triangulation, local system), the 4g + 1 boundary prefixes,
and takes its k H^1 vectors together: each edge holds an r x k block,
column i for vector i, and a transport other than the identity moves a
block as one r x r by r x k product. The radial walk forces the radial
blocks triangle by triangle around the polygon, and one check carries each
triangle's three face blocks to the chart once: the coboundary test reads
their alternating sum, and :class:`CheckedClasses` keeps the front and back
faces from the same blocks. At genus g the walk and the check each cost at
most 4g - 1 block products, however many vectors the batch holds.

:func:`cup_tensors` sums the integer r x r cup of every ordered pair of a
batch's cocycles in Lambda (x) Lambda at once. No level enters: the caller
pairs each tensor with a level's numerators, so the oracle reads no form
and shares no arithmetic with the closed route it checks.
"""

from __future__ import annotations

from operator import add, itemgetter, mul, sub
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import InvariantViolation, NotInKernel, ShapeMismatch, UnsupportedGenus, _Frozen
from .surface import LatticeLocalSystem

Cell = tuple[str, int]  # an edge: ("rad", k) or ("gen", j)
Block = tuple[tuple[int, ...], ...]  # r rows of k entries: row a holds entry a of each vector

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
        # prefix of k sides
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


def _times(m, block: Block) -> Block:
    """The r x r matrix ``m`` times an r x k block: row a sums the block's rows times m's row a."""
    r = len(block)
    return tuple(
        tuple(map(sum, zip(*map(map, (x.__mul__ for x in m.entries[a * r : (a + 1) * r]), block))))
        for a in range(r)
    )


class _Transports:
    """Monodromy of every face position of one triangulation under one local system.

    A list addressed by the faces' indices, None for the identity (entries
    I's): index k <= 4g is the boundary prefix of k sides, index k - 1 times
    the letter on side k - 1, a product unless one factor is the identity.
    x_j reads ``rho.mon[j]``, and x_j^-1 reads ``rho.mon_inv[j]``.
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

    def move(self, at: int, block: Block) -> Block:
        """``block`` carried from transport index ``at`` to the chart; no product at I."""
        return block if (m := self._matrices[at]) is None else _times(m, block)


class Cocycle(NamedTuple):
    """One vector's column of a :class:`CheckedClasses`: its edge values, read-only, and faces."""

    values: Mapping[Cell, tuple[int, ...]]
    table: _Transports
    front: tuple[tuple[int, ...], ...]
    back: tuple[tuple[int, ...], ...]


class CheckedClasses(_Frozen):
    """k 1-cochains over one transport table that passed the cocycle check together.

    ``blocks`` is a read-only view of the r x k block on each edge, ``front``
    and ``back`` the blocks on each triangle's front face [v0, v1] and back
    face [v1, v2], all in the chart. ``classes[i]`` builds vector i's view.
    """

    __slots__ = ("blocks", "table", "front", "back", "count")

    def __init__(self, blocks: dict[Cell, Block], table: _Transports, front, back, count: int):
        fields = (MappingProxyType(blocks), table, front, back, count)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> Cocycle:
        i = range(self.count)[i]  # past the end raises IndexError, which ends iteration
        col = itemgetter(i)
        values = {cell: tuple(map(col, block)) for cell, block in self.blocks.items()}
        front, back = (tuple(tuple(map(col, b)) for b in side) for side in (self.front, self.back))
        return Cocycle(MappingProxyType(values), self.table, front, back)


def _chart_faces(blocks: Mapping[Cell, Block], table: _Transports) -> list[tuple[Block, ...]]:
    """Each triangle's three face blocks in the chart, slots d0, d1, d2: the one
    pass that transports a batch, read by its coboundary and its cup."""
    return [tuple(table.move(f.at, blocks[f.cell]) for f in tri.faces) for tri in table.t.triangles]


def _alternating_sums(faces: list[tuple[Block, ...]]) -> list[list[list[int]]]:
    """d0 - d1 + d2 on each triangle, row by row: the coboundary's block there."""
    return [[[x - y + z for x, y, z in zip(*rows)] for rows in zip(*face)] for face in faces]


def _check(blocks: dict[Cell, Block], table: _Transports, count: int) -> CheckedClasses | None:
    """The checked batch of ``count`` 1-cochains' edge blocks, or None if one is no cocycle."""
    faces = _chart_faces(blocks, table)
    if any(any(map(any, s)) for s in _alternating_sums(faces)):
        return None
    front, back = (tuple(f[slot] for f in faces) for slot in (2, 0))
    return CheckedClasses(blocks, table, front, back, count)


def cup_tensors(classes: CheckedClasses) -> list[list[tuple[tuple[int, ...], ...]]]:
    """The cup of every ordered pair (i, j) of a batch's 1-cocycles in Lambda (x) Lambda.

    Each is an r x r integer matrix M, evaluated on the fundamental cycle by
    the front face/back face rule: M[k][l] = sum over triangles of sign *
    front_i[k] * back_j[l], both in the chart. Row k of the signed front
    blocks, read across the triangles, is one vector per cocycle, as is row
    l of the back blocks, so each entry is one dot product. No level
    enters; the caller pairs each M with one.
    """
    r, n, front = classes.table.rank, classes.count, classes.front
    signs = [tri.sign for tri in classes.table.t.triangles]
    fronts = [list(zip(*(map(s.__mul__, f[k]) for s, f in zip(signs, front)))) for k in range(r)]
    by_row = [list(zip(*(b[l] for b in classes.back))) for l in range(r)]
    backs = [y[j] for j in range(n) for y in by_row]  # ordered (j, l)
    cups = []
    for i in range(n):
        # row k of M for i and every j: all (j, l) entries, cut into r-entry rows
        rows = [zip(*[iter([sum(map(mul, fk[i], y)) for y in backs])] * r) for fk in fronts]
        cups.append(list(zip(*rows)))
    return cups


def checked_classes(
    h1_vectors: Sequence[Sequence[int]], t: TriangulatedSurface, rho: LatticeLocalSystem
) -> CheckedClasses:
    """The checked 1-cocycles of the H^1 vectors, one batch over one transport table.

    Each vector lists its value on each generator loop, generator-major. The
    radial blocks are forced triangle by triangle around the polygon; the
    walk closes up exactly when every vector lies in the kernel of the
    degree-1 differential, otherwise NotInKernel is raised.
    """
    table = _Transports(t, rho)
    g, r = t.genus, table.rank
    vecs = [tuple(v) for v in h1_vectors]
    for vec in vecs:
        if set(map(type, vec)) - {int}:  # bool is no int here
            raise ShapeMismatch(f"holonomy vector {vec} has a non-integer entry")
        if len(vec) != 2 * g * r:
            raise ShapeMismatch(f"expected a vector of length {2 * g * r}, got {len(vec)}")
    entries = list(zip(*vecs)) or [()] * (2 * g * r)  # row c: entry c of every vector
    loops = [tuple(entries[j * r : (j + 1) * r]) for j in range(2 * g)]
    radial = ((0,) * len(vecs),) * r
    blocks = {("rad", 0): radial, **{("gen", j): loop for j, loop in enumerate(loops)}}
    for k, (j, eps) in enumerate(t.side_letter):
        step = table.move(k if eps == 1 else k + 1, loops[j])
        radial = tuple(map(tuple, map(map, [add if eps == 1 else sub] * r, radial, step)))
        if k + 1 < t.num_sides:
            blocks[("rad", k + 1)] = radial
    if any(map(any, radial)):
        raise NotInKernel("holonomy data does not close up around the polygon")
    checked = _check(blocks, table, len(vecs))
    if checked is None:
        raise InvariantViolation("the radial walk closed up on a non-cocycle")
    return checked
