"""Nearest-neighbor discretization of a square-tiled surface.

Vertices sit at subtile centers; each unit step out of a center crosses
exactly one side of the subtile complex, so edges are identified with the
paired side slots they cross.  Two vertices can be joined by two distinct
unit geodesics near a cone of angle pi, giving a double edge.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .complexes import E, N, W, S, SquareComplex
from .errors import UnknownPoint


@dataclass(frozen=True)
class EdgeCopy:
    """One copy of a graph edge, identified by the subtile side pair it crosses.

    ``slot_u`` is the side of u's subcell crossed when traversing u -> v;
    ``slot_v`` the side entered on v's subcell.
    """

    u: int
    v: int
    slot_u: tuple
    slot_v: tuple


class MeshGraph:
    """Discretization of a surface at mesh 1/n."""

    def __init__(self, surface, n):
        self.surface = surface
        self.n = n
        self.complex = surface.complex.refine(n)
        self.vertices = list(self.complex.cells)   # (tile, i, j)
        self.vindex = {c: k for k, c in enumerate(self.vertices)}
        self.edges = self._build_edges()
        self._faces = None
        self._cone_neighbors = None

    def _build_edges(self):
        cpx = self.complex
        edges = {}
        for c in self.vertices:
            for d in (E, N, W, S):
                if not cpx.is_paired(c, d):
                    continue
                c2, d2, _ = cpx.pairings[(c, d)]
                key = frozenset(((c, d), (c2, d2)))
                if key in edges:
                    continue
                slot_u, slot_v = sorted(((c, d), (c2, d2)), key=_slot_sort_key)
                edges[key] = EdgeCopy(u=self.vindex[slot_u[0]], v=self.vindex[slot_v[0]],
                                      slot_u=slot_u, slot_v=slot_v)
        return [edges[k] for k in sorted(edges, key=lambda fs: sorted(map(_slot_sort_key, fs)))]

    # -- basic structure ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    def degrees(self):
        deg = [0] * self.n_vertices
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def edge_multiplicities(self):
        """Multiplicity per unordered vertex pair (loops keyed (v, v))."""
        mult = {}
        for e in self.edges:
            key = (min(e.u, e.v), max(e.u, e.v))
            mult[key] = mult.get(key, 0) + 1
        return mult

    def boundary_vertex_ids(self):
        out = set()
        for c, d in self.complex.boundary_slots():
            out.add(self.vindex[c])
        return out

    # -- singular-point neighbor sets ---------------------------------------

    def cone_neighbor_sets(self):
        """Map each cone/corner point id to the tuple of its nearest vertices."""
        if self._cone_neighbors is not None:
            return self._cone_neighbors
        out = {}
        for pid, vc in self.surface.singular_points().items():
            cell, corner = vc.corners[0]
            sub = SquareComplex.refined_corner(cell, corner, self.n)
            fan = self.complex.vertex_class_of(*sub)
            ids = []
            for c, _k in fan.corners:
                vid = self.vindex[c]
                if vid not in ids:
                    ids.append(vid)
            out[pid] = tuple(ids)
        self._cone_neighbors = out
        return out

    def excluded_vertex_ids(self):
        """Vertices belonging to some cone/corner neighbor set."""
        out = set()
        for ids in self.cone_neighbor_sets().values():
            out.update(ids)
        return out

    # -- faces ---------------------------------------------------------------

    def faces(self):
        """Directed edge cycles around the interior lattice points.

        Each face is a list of (edge_index, direction) with direction +1 when
        the edge is traversed u -> v.
        """
        if self._faces is not None:
            return self._faces
        by_slot = {}
        for idx, e in enumerate(self.edges):
            by_slot[e.slot_u] = (idx, +1)
            by_slot[e.slot_v] = (idx, -1)
        from .complexes import EXIT_SIDE
        faces = []
        for vc in self.complex.vertex_classes():
            if vc.boundary:
                continue
            cyc = []
            for c, k in vc.corners:
                cyc.append(by_slot[(c, EXIT_SIDE[k])])
            faces.append(cyc)
        self._faces = faces
        return faces

    # -- cuts and winding -----------------------------------------------------

    def refine_cuts(self, tile_cuts):
        """Refine tile-level cuts to edge-level crossing maps.

        Returns one dict per generator mapping edge index -> +-1, the signed
        crossing when the edge is traversed u -> v.
        """
        n = self.n
        out = []
        for cut in tile_cuts:
            sub = {}
            for (tile, d), sign in cut.items():
                for s in range(n):
                    if d == E:
                        slot = ((tile, n - 1, s), E)
                    elif d == W:
                        slot = ((tile, 0, s), W)
                    elif d == N:
                        slot = ((tile, s, n - 1), N)
                    else:
                        slot = ((tile, s, 0), S)
                    sub[slot] = sign
            ecut = {}
            for idx, e in enumerate(self.edges):
                if e.slot_u in sub:
                    ecut[idx] = sub[e.slot_u]
                elif e.slot_v in sub:
                    ecut[idx] = -sub[e.slot_v]
            out.append(ecut)
        return out

    def cycle_winding(self, cycle, edge_cuts):
        """Total signed crossings of each cut along a directed edge cycle."""
        w = [0] * len(edge_cuts)
        for k, cut in enumerate(edge_cuts):
            for idx, direction in cycle:
                w[k] += direction * cut.get(idx, 0)
        return tuple(w)

    # -- export ---------------------------------------------------------------

    def vertex_label(self, vid):
        tile, i, j = self.vertices[vid]
        tile_str = ",".join(map(str, tile)) if isinstance(tile, tuple) else str(tile)
        return f"{tile_str}:{i}:{j}"

    def edges_csv(self):
        buf = io.StringIO()
        buf.write("u,v,multiplicity\n")
        for (u, v), m in sorted(self.edge_multiplicities().items()):
            buf.write(f"{self.vertex_label(u)},{self.vertex_label(v)},{m}\n")
        return buf.getvalue()


def _slot_sort_key(slot):
    cell, d = slot
    return (tuple(str(x) for x in cell) if isinstance(cell, tuple) else (str(cell),), d)


def discretize(surface, n):
    """The mesh graph of ``surface`` at subdivision n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return MeshGraph(surface, n)


def cone_neighbors(mesh, point_id):
    """Vertex ids at flat distance sqrt(2)/(2n) around a cone or corner point."""
    sets = mesh.cone_neighbor_sets()
    if point_id not in sets:
        raise UnknownPoint(point_id)
    return sets[point_id]
