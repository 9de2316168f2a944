"""Brute-force spanning-tree and cycle-rooted spanning forest enumeration.

A CRSF is an edge subset covering every vertex in which each connected
component has exactly as many edges as vertices, hence a unique cycle.
Multi-edge copies and loops count as distinct edges throughout.

Each |V|-edge subset is tested in one union-find pass: an edge joining two
components merges them, an edge inside a component closes that component's
cycle, and a second closing edge in one component, or a merge of two
components that both have a cycle, rejects the subset.  With |V| edges no
tree component remains.  A CRSF lists its cycles by their component's lowest
vertex, each starting on its lowest edge index traversed u -> v; the census
classes follow that order.  `crsf-verify` enumerates once, for both the sum
and the census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (IdentityMismatch, NegativeUnderSqrt, NotClassifiable,
                     RankUnsupported, TooLarge)
from .bundles import cycle_monodromy
from .laplacian import assemble, log_det_prime, spectrum
from .surfaces import standard_cuts

MAX_VERTICES = 12     # both brute-force enumerations refuse larger meshes
MAX_SUBSETS = 6_000_000
IDENTITY_TOL = 1e-9


class _DSU:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def _subsets(nv, ne, size):
    """The ``size``-subsets of range(ne), refused beyond the brute-force caps."""
    if nv > MAX_VERTICES:
        raise TooLarge(f"{nv} vertices exceeds brute-force limit {MAX_VERTICES}")
    if math.comb(ne, size) > MAX_SUBSETS:
        raise TooLarge("too many edge subsets")
    return combinations(range(ne), size)


def count_spanning_trees(mesh):
    """Exact spanning-tree count by edge-subset enumeration."""
    nv = mesh.n_vertices
    edges = [(e.u, e.v) for e in mesh.edges if e.u != e.v]
    count = 0
    for subset in _subsets(nv, len(edges), nv - 1):
        dsu = _DSU(nv)
        count += all(dsu.union(*edges[k]) for k in subset)
    return count


@dataclass
class CRSF:
    """A cycle-rooted spanning forest: edges plus one directed cycle per component."""

    edge_indices: tuple
    cycles: list   # one list of (edge_index, direction) per component


def _crsf_cycles(mesh, subset, steps):
    """The directed cycles of the |V|-edge ``subset`` in CRSF order (see the
    module docstring), or None when some component has two."""
    dsu = _DSU(mesh.n_vertices)
    closing = {}    # component root -> the edge that closed its cycle
    adj = [[] for _ in range(mesh.n_vertices)]
    for k in subset:
        e = mesh.edges[k]
        ru, rv = dsu.find(e.u), dsu.find(e.v)
        if ru == rv:
            if ru in closing:
                return None
            closing[ru] = k
            continue
        if ru in closing:
            if rv in closing:
                return None
            closing[rv] = closing.pop(ru)
        dsu.p[ru] = rv
        adj[e.u].append((k, e.v))
        adj[e.v].append((k, e.u))
    roots = dict.fromkeys(dsu.find(v) for v in range(mesh.n_vertices))
    return [_cycle(mesh, adj, closing[r], steps) for r in roots]


def _cycle(mesh, adj, k, steps):
    """Edge k, then the tree path back from its head to its tail, rotated to
    start on the lowest edge index traversed u -> v."""
    e = mesh.edges[k]
    pred = {e.u: None}
    stack = [e.u]
    while e.v not in pred:
        x = stack.pop()
        for j, y in adj[x]:
            if y not in pred:
                pred[y] = (j, x)
                stack.append(y)
    walk = [steps[+1][k]]
    x = e.v
    while pred[x] is not None:
        j, y = pred[x]
        walk.append(steps[+1 if mesh.edges[j].u == x else -1][j])
        x = y
    if min(walk)[1] < 0:
        walk = [steps[-d][j] for j, d in reversed(walk)]
    i = walk.index(min(walk))
    return walk[i:] + walk[:i]


def enumerate_crsfs(mesh):
    """All cycle-rooted spanning forests, each with its directed cycles."""
    # one shared (edge, direction) tuple per step: the forests refer to these
    # instead of holding copies, which saves memory and speeds up their sums
    steps = {d: [(k, d) for k in range(len(mesh.edges))] for d in (+1, -1)}
    out = []
    for subset in _subsets(mesh.n_vertices, len(mesh.edges), mesh.n_vertices):
        cycles = _crsf_cycles(mesh, subset, steps)
        if cycles is not None:
            out.append(CRSF(edge_indices=subset, cycles=cycles))
    return out


def _forest_weight(conn, f):
    """The product, in cycle order, of the weights of CRSF ``f``'s cycles:
    2 - w - 1/w (rank 1) or 2 - tr w (rank 2) for the cycle's monodromy w."""
    weight = 1.0
    for cyc in f.cycles:
        w = cycle_monodromy(conn, cyc)
        if conn.rank == 1:
            z = w[0, 0]
            weight *= float((2 - z - 1 / z).real)
        else:
            weight *= float((2 - np.trace(w)).real)
    return weight


def crsf_weighted_sum(conn, crsfs=None):
    """Sum over CRSFs of the product of cycle weights.

    Rank 1: weight (2 - w - w^{-1}) per cycle and the sum equals det of the
    twisted Laplacian.  Rank 2 (special unitary): weight (2 - tr w) and the
    sum equals sqrt(det').
    """
    if conn.rank not in (1, 2):
        raise RankUnsupported(f"rank {conn.rank}")
    if conn.rank == 2:
        for t in conn.transports:
            if abs(np.linalg.det(t) - 1) > 1e-9:
                raise NegativeUnderSqrt("rank-2 transports must be special unitary")
    if crsfs is None:
        crsfs = enumerate_crsfs(conn.graph)
    total = 0.0
    for f in crsfs:
        total += _forest_weight(conn, f)
    return total


def crsf_identity(conn, total):
    """(det, does the CRSF sum ``total`` equal det (rank 1) or sqrt(det)
    (rank 2) within IDENTITY_TOL?); det is 0 when the bundle has flat sections."""
    spec = spectrum(assemble(conn), expected_kernel_dim=conn.flat_sections)
    det = 0.0 if conn.flat_sections else math.exp(log_det_prime(spec))
    root = math.sqrt(det) if conn.rank == 2 else det
    return det, abs(total - root) <= IDENTITY_TOL * max(1.0, root)


def noncontractible_expectation(conn):
    """(expected cycle-weight product under the uniform non-contractible CRSF
    measure, number of non-contractible CRSFs).

    Requires a torus or cylinder mesh so winding numbers classify cycles, and
    checks that the full CRSF sum reproduces sqrt(det) of the Laplacian.
    """
    mesh = conn.graph
    surf = mesh.surface
    if surf.kind not in ("torus", "cylinder") or surf.cone_classes():
        raise NotClassifiable(f"winding classification unavailable on {surf.name}")
    if conn.rank != 2:
        raise RankUnsupported("expectation defined for rank-2 bundles")
    cuts = mesh.refine_cuts(standard_cuts(surf))
    total = 0.0
    nonc_sum = 0.0
    nonc_count = 0
    for f in enumerate_crsfs(mesh):
        term = _forest_weight(conn, f)
        total += term
        if all(any(mesh.cycle_winding(cyc, cuts)) for cyc in f.cycles):
            nonc_sum += term
            nonc_count += 1
    det, ok = crsf_identity(conn, total)
    if not ok:
        raise IdentityMismatch(f"CRSF sum {total} does not match sqrt(det) {math.sqrt(det)}")
    if nonc_count == 0:
        raise NotClassifiable("no non-contractible CRSF on this mesh")
    return nonc_sum / nonc_count, nonc_count


def crsf_census_csv(mesh, conn, crsfs=None):
    """CSV census: one row per CRSF with component count, cycle classes
    (winding numbers across the standard cuts) and weight under ``conn``."""
    if crsfs is None:
        crsfs = enumerate_crsfs(mesh)
    cuts = mesh.refine_cuts(standard_cuts(mesh.surface))
    rows = ["crsf_id,n_components,cycle_classes,weight"]
    for k, f in enumerate(crsfs):
        classes = "|".join(
            "(" + ",".join(map(str, mesh.cycle_winding(cyc, cuts))) + ")"
            for cyc in f.cycles
        )
        rows.append(f"{k},{len(f.cycles)},{classes},{_forest_weight(conn, f)!r}")
    return "\n".join(rows) + "\n"
