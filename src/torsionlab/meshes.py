"""Nearest-neighbor discretization of a square-tiled surface.

Vertices sit at subtile centers; each unit step out of a center crosses
exactly one side of the subtile complex, so edges are identified with the
paired side slots they cross.  Two vertices can be joined by two distinct
unit geodesics near a cone of angle pi, giving a double edge.

The mesh is one set of integer arrays.  Subtile (tile, i, j), where tile is
the t-th cell of ``surface.complex``, is vertex ``t*n*n + i*n + j``; side d of
vertex v is slot ``4*v + d`` and corner k of it is corner ``4*v + k`` (side
and corner labels as in ``complexes``).  ``partner[slot]`` is the slot glued
to it, or -1 on the boundary: the partner array of the complex's n x n
refinement (`complexes.refined_partner`), so the tile complex is this mesh at
n = 1.  Edges, faces, neighbor sets and cut crossings are index arithmetic on
these; the faces are the closed fans of the corner turn
(`complexes.corner_turn` of ``partner``, walked by `complexes.corner_fans`),
stepped for all corners together, with no per-corner loop.  The arrays are
the mesh's one representation: ``mesh.edges`` is ``range(E)``.
"""

from __future__ import annotations

import numpy as np

from .complexes import (E, N, W, S, SquareComplex, corner_fans, exit_slots, refined_partner,
                        require_subdivision)
from .errors import BadCuts, NotAClosedWalk, UnknownPoint
from .surfaces import geometry_summary


class MeshGraph:
    """Discretization of a surface at mesh 1/n."""

    def __init__(self, surface, n):
        self.surface = surface
        self.n = n
        cpx = surface.complex
        self.tile_index = cpx.cell_index
        self.n_vertices = cpx.n_cells * n * n
        self.partner = refined_partner(cpx.partner, n)
        self._build_edges()
        self.edges = range(len(self.edge_u))
        self._faces = None
        self._face_cycles = None
        self._cone_neighbors = None

    def _build_edges(self):
        """Edge arrays in the order of the subtile side pairs' keys.

        A slot's key orders (str(tile), str(i), str(j), side); an edge's slot_u
        is its slot of smaller key, and edges are sorted by (slot_u key, slot_v
        key).  The string ranks make this the order of the printed ids.
        """
        n = self.n
        tiles = [str(c) for c in self.surface.complex.cells]
        tile_rank = {s: k for k, s in enumerate(sorted(set(tiles)))}
        tile_rank = np.array([tile_rank[s] for s in tiles], dtype=np.int64)
        sub_rank = np.argsort(sorted(range(n), key=str))

        def key(slot):
            vid = slot >> 2
            t, ij = np.divmod(vid, n * n)
            i, j = np.divmod(ij, n)
            return ((tile_rank[t] * n + sub_rank[i]) * n + sub_rank[j]) * 4 + (slot & 3)

        lo = np.flatnonzero(self.partner > np.arange(len(self.partner)))
        hi = self.partner[lo]
        k_lo, k_hi = key(lo), key(hi)
        flip = k_hi < k_lo
        slot_u, slot_v = np.where(flip, hi, lo), np.where(flip, lo, hi)
        order = np.lexsort((np.maximum(k_lo, k_hi), np.minimum(k_lo, k_hi)))
        self.slot_u, self.slot_v = slot_u[order], slot_v[order]
        self.edge_u, self.edge_v = self.slot_u >> 2, self.slot_v >> 2
        ids = np.arange(len(order))
        self.slot_edge_index = np.full(len(self.partner), -1, dtype=np.int64)
        self.slot_edge_index[self.slot_u] = ids
        self.slot_edge_index[self.slot_v] = ids
        self.slot_direction = np.zeros(len(self.partner), dtype=np.int64)
        self.slot_direction[self.slot_u] = 1
        self.slot_direction[self.slot_v] = -1

    # -- basic structure ----------------------------------------------------

    def vertex_id(self, tile, i, j):
        return (self.tile_index[tile] * self.n + i) * self.n + j

    def _vertex_pairs(self):
        """(lo, hi, multiplicity) per unordered vertex pair, sorted by (lo, hi)."""
        lo = np.minimum(self.edge_u, self.edge_v)
        hi = np.maximum(self.edge_u, self.edge_v)
        pairs, counts = np.unique(lo * self.n_vertices + hi, return_counts=True)
        lo, hi = np.divmod(pairs, self.n_vertices)
        return lo.tolist(), hi.tolist(), counts.tolist()

    def edge_multiplicities(self):
        """Multiplicity per unordered vertex pair (loops keyed (v, v))."""
        lo, hi, counts = self._vertex_pairs()
        return dict(zip(zip(lo, hi), counts))

    # -- singular-point neighbor sets ---------------------------------------

    def cone_neighbor_sets(self):
        """Map each cone/corner point id to the tuple of its nearest vertices,
        in the order of the point's counterclockwise corner fan."""
        if self._cone_neighbors is not None:
            return self._cone_neighbors
        out = {}
        for pid, vc in self.surface.singular_points().items():
            fan = []
            for cell, corner in vc.corners:
                (c, i, j), k = SquareComplex.refined_corner(cell, corner, self.n)
                fan.append(4 * self.vertex_id(c, i, j) + k)
            if not vc.boundary:     # a closed fan starts at its smallest corner id
                first = fan.index(min(fan))
                fan = fan[first:] + fan[:first]
            out[pid] = tuple(dict.fromkeys(c >> 2 for c in fan))
        self._cone_neighbors = out
        return out

    def excluded_vertex_ids(self):
        """Vertices belonging to some cone/corner neighbor set."""
        out = set()
        for ids in self.cone_neighbor_sets().values():
            out.update(ids)
        return out

    # -- faces ---------------------------------------------------------------

    def face_cycles(self):
        """The faces as arrays, grouped by length L: L -> (first corner id,
        edge indices (F, L), directions (F, L)).

        A face is the counterclockwise corner cycle around an interior lattice
        point, started at its smallest corner id: a closed fan of
        `complexes.corner_fans`.  Every face is checked to be a closed walk
        when built.
        """
        if self._face_cycles is not None:
            return self._face_cycles
        closed, _ = corner_fans(self.partner)
        out = {}
        for length, cycles in sorted(closed.items()):
            if not len(cycles):
                continue
            slots = exit_slots(cycles)
            idx, dirs = self.slot_edge_index[slots], self.slot_direction[slots]
            self.check_closed(idx, dirs)
            out[length] = (cycles[:, 0], idx, dirs)
        self._face_cycles = out
        return out

    def check_closed(self, idx, dirs):
        """NotAClosedWalk unless each row of the walks (idx, dirs), (W, L)
        edge indices and directions, chains head to tail back to its start
        by its last real step; each step after that is a pad, of direction 0."""
        forward, real = dirs > 0, dirs != 0
        u, v = self.edge_u[idx], self.edge_v[idx]
        head, tail = np.where(forward, v, u), np.where(forward, u, v)
        after = np.where(real, tail, tail[:, :1])     # a pad's tail: the start, the row's end
        after = np.concatenate([after[:, 1:], tail[:, :1]], axis=1)
        bad = real & (after != head)
        bad[:, 1:] |= real[:, 1:] > real[:, :-1]         # a real step after a pad
        if bad.any():       # reduced whole: a reduction along short rows is slow
            walk = idx[bad.any(axis=1).argmax()].tolist()
            raise NotAClosedWalk(f"walk through edges {walk} is not closed")

    def faces(self):
        """Directed edge cycles around the interior lattice points.

        Each face is a list of (edge_index, direction) with direction +1 when
        the edge is traversed u -> v.
        """
        if self._faces is None:
            faces, starts = [], []
            for length, (first, idx, dirs) in self.face_cycles().items():
                steps = list(zip(idx.ravel().tolist(), dirs.ravel().tolist()))
                faces += [steps[k:k + length] for k in range(0, len(steps), length)]
                starts.append(first)
            order = np.argsort(np.concatenate(starts)).tolist() if starts else []
            self._faces = [faces[k] for k in order]
        return self._faces

    # -- cuts and winding -----------------------------------------------------

    def refine_cuts(self, tile_cuts):
        """Refine tile-level cuts to a (cuts, E) integer array: row k holds
        each edge's signed crossing of cut k when traversed u -> v, or 0.  A
        cut slot on no tile, with a side label other than E, N, W, S, with a
        sign other than +1 or -1, or on a boundary side raises BadCuts.
        """
        n = self.n
        s = np.arange(n)
        out = np.zeros((len(tile_cuts), len(self.edge_u)), dtype=np.int64)
        for row, cut in zip(out, tile_cuts):
            for (tile, d), sign in cut.items():
                if tile not in self.tile_index:
                    raise BadCuts(f"cut slot {(tile, d)} names no tile")
                if d not in (E, N, W, S):
                    raise BadCuts(f"cut slot {(tile, d)} has no side label {d!r}")
                if sign not in (1, -1):
                    raise BadCuts(f"cut slot {(tile, d)} has sign {sign!r}, not +1 or -1")
                base = self.tile_index[tile] * n * n
                i, j = {E: (n - 1, s), W: (0, s), N: (s, n - 1), S: (s, 0)}[d]
                slots = 4 * (base + i * n + j) + d
                idx = self.slot_edge_index[slots]
                if np.any(idx < 0):
                    raise BadCuts(f"cut slot {(tile, d)} is a boundary side")
                row[idx] = sign * self.slot_direction[slots]
        return out

    def cycle_winding(self, cycle, edge_cuts):
        """Total signed crossings of each cut of ``edge_cuts`` (refine_cuts)
        along a directed edge cycle, a list of (edge_index, direction)."""
        idx, dirs = np.array(cycle).T
        return tuple((edge_cuts[:, idx] @ dirs).tolist())

    # -- export ---------------------------------------------------------------

    def vertex_labels(self):
        """"tile:i:j" per vertex id, a tuple tile written comma-separated."""
        n = self.n
        heads = [",".join(map(str, c)) if isinstance(c, tuple) else str(c)
                 for c in self.surface.complex.cells]
        suffixes = [f":{i}:{j}" for i in range(n) for j in range(n)]
        return [h + s for h in heads for s in suffixes]

    def edges_csv(self):
        labels = self.vertex_labels()
        return "u,v,multiplicity\n" + "".join([f"{labels[u]},{labels[v]},{m}\n"
                                               for u, v, m in zip(*self._vertex_pairs())])


def discretize(surface, n):
    """The mesh graph of ``surface`` at subdivision n."""
    require_subdivision(n)
    return MeshGraph(surface, n)


def mesh_counts(surface, n):
    """(|V|, |E|) of ``discretize(surface, n)`` without building it: one vertex
    per refined cell, and four half-edges per vertex less the perimeter * n
    boundary sides, two to an edge."""
    require_subdivision(n)
    summary = geometry_summary(surface)
    nv = summary.area * n * n
    return nv, 2 * nv - summary.perimeter * n // 2


def cone_neighbors(mesh, point_id):
    """Vertex ids at flat distance sqrt(2)/(2n) around a cone or corner point."""
    sets = mesh.cone_neighbor_sets()
    if point_id not in sets:
        raise UnknownPoint(point_id)
    return sets[point_id]

