"""Brute-force spanning-tree and cycle-rooted spanning forest enumeration.

A CRSF is an edge subset covering every vertex in which each connected
component has exactly as many edges as vertices, hence a unique cycle.
Multi-edge copies and loops count as distinct edges throughout.
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

MAX_TREE_VERTICES = 12
MAX_CRSF_VERTICES = 12
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


def count_spanning_trees(mesh):
    """Exact spanning-tree count by edge-subset enumeration."""
    nv = mesh.n_vertices
    if nv > MAX_TREE_VERTICES:
        raise TooLarge(f"{nv} vertices exceeds brute-force limit {MAX_TREE_VERTICES}")
    edges = [(e.u, e.v) for e in mesh.edges if e.u != e.v]
    if nv == 1:
        return 1
    if math.comb(len(edges), nv - 1) > MAX_SUBSETS:
        raise TooLarge("too many edge subsets")
    count = 0
    for subset in combinations(range(len(edges)), nv - 1):
        dsu = _DSU(nv)
        ok = True
        for k in subset:
            u, v = edges[k]
            if not dsu.union(u, v):
                ok = False
                break
        if ok:
            count += 1
    return count


@dataclass
class CRSF:
    """A cycle-rooted spanning forest: edges plus one directed cycle per component."""

    edge_indices: tuple
    cycles: list   # one list of (edge_index, direction) per component


def _component_cycles(mesh, subset):
    """Split ``subset`` into components and extract each unique cycle.

    Returns None when some component is not unicyclic.
    """
    nv = mesh.n_vertices
    adj = [[] for _ in range(nv)]
    for k in subset:
        e = mesh.edges[k]
        adj[e.u].append((k, e.v))
        if e.u != e.v:
            adj[e.v].append((k, e.u))
    comp = [-1] * nv
    ncomp = 0
    for v0 in range(nv):
        if comp[v0] != -1:
            continue
        stack = [v0]
        comp[v0] = ncomp
        while stack:
            v = stack.pop()
            for _, w in adj[v]:
                if comp[w] == -1:
                    comp[w] = ncomp
                    stack.append(w)
        ncomp += 1
    sizes = [0] * ncomp
    esizes = [0] * ncomp
    for v in range(nv):
        sizes[comp[v]] += 1
    for k in subset:
        esizes[comp[mesh.edges[k].u]] += 1
    if any(sizes[c] != esizes[c] for c in range(ncomp)):
        return None
    # peel leaves; what survives is the disjoint union of the unique cycles
    deg = [0] * nv
    alive = set(subset)
    for k in subset:
        e = mesh.edges[k]
        deg[e.u] += 1
        deg[e.v] += 1
    leaves = [v for v in range(nv) if deg[v] == 1]
    inc = [[] for _ in range(nv)]
    for k in subset:
        e = mesh.edges[k]
        inc[e.u].append(k)
        if e.u != e.v:
            inc[e.v].append(k)
    dead_edge = set()
    while leaves:
        v = leaves.pop()
        live = [k for k in inc[v] if k not in dead_edge]
        if not live:
            continue
        k = live[0]
        e = mesh.edges[k]
        dead_edge.add(k)
        w = e.v if e.u == v else e.u
        deg[v] -= 1
        deg[w] -= 1
        if deg[w] == 1:
            leaves.append(w)
    cycle_edges = [k for k in subset if k not in dead_edge]
    # group cycle edges per component and order each cycle into a directed walk
    percomp = {}
    for k in cycle_edges:
        percomp.setdefault(comp[mesh.edges[k].u], []).append(k)
    cycles = []
    for c in sorted(percomp):
        ks = percomp[c]
        e0 = mesh.edges[ks[0]]
        if e0.u == e0.v:
            if len(ks) != 1:
                return None
            cycles.append([(ks[0], +1)])
            continue
        walk = [(ks[0], +1)]
        used = {ks[0]}
        pos = e0.v
        start = e0.u
        while pos != start:
            nxt = None
            for k in ks:
                if k in used:
                    continue
                e = mesh.edges[k]
                if e.u == pos:
                    nxt = (k, +1)
                    pos = e.v
                    break
                if e.v == pos:
                    nxt = (k, -1)
                    pos = e.u
                    break
            if nxt is None:
                return None
            walk.append(nxt)
            used.add(nxt[0])
        if len(used) != len(ks):
            return None
        cycles.append(walk)
    return cycles


def enumerate_crsfs(mesh):
    """All cycle-rooted spanning forests, each with its directed cycles."""
    nv = mesh.n_vertices
    if nv > MAX_CRSF_VERTICES:
        raise TooLarge(f"{nv} vertices exceeds CRSF enumeration limit {MAX_CRSF_VERTICES}")
    ne = len(mesh.edges)
    if nv > ne or math.comb(ne, nv) > MAX_SUBSETS:
        if nv > ne:
            return []
        raise TooLarge("too many edge subsets")
    out = []
    for subset in combinations(range(ne), nv):
        cycles = _component_cycles(mesh, subset)
        if cycles is not None:
            out.append(CRSF(edge_indices=subset, cycles=cycles))
    return out


def _cycle_weight(conn, cycle):
    w = cycle_monodromy(conn, cycle)
    if conn.rank == 1:
        z = w[0, 0]
        return float((2 - z - 1 / z).real)
    return float((2 - np.trace(w)).real)


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
        term = 1.0
        for cyc in f.cycles:
            term *= _cycle_weight(conn, cyc)
        total += term
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
    crsfs = enumerate_crsfs(mesh)
    total = 0.0
    nonc_sum = 0.0
    nonc_count = 0
    for f in crsfs:
        term = 1.0
        for cyc in f.cycles:
            term *= _cycle_weight(conn, cyc)
        total += term
        windings = [mesh.cycle_winding(cyc, cuts) for cyc in f.cycles]
        if all(any(w) for w in windings):
            nonc_sum += term
            nonc_count += 1
    det, ok = crsf_identity(conn, total)
    if not ok:
        raise IdentityMismatch(f"CRSF sum {total} does not match sqrt(det) {math.sqrt(det)}")
    if nonc_count == 0:
        raise NotClassifiable("no non-contractible CRSF on this mesh")
    return nonc_sum / nonc_count, nonc_count


def crsf_census_csv(mesh, conn=None, cuts=None):
    """CSV census: one row per CRSF with component count, cycle classes, weight."""
    if cuts is None:
        cuts = mesh.refine_cuts(standard_cuts(mesh.surface))
    rows = ["crsf_id,n_components,cycle_classes,weight"]
    for k, f in enumerate(enumerate_crsfs(mesh)):
        classes = "|".join(
            "(" + ",".join(map(str, mesh.cycle_winding(cyc, cuts))) + ")"
            for cyc in f.cycles
        )
        if conn is not None:
            w = 1.0
            for cyc in f.cycles:
                w *= _cycle_weight(conn, cyc)
        else:
            w = 0.0
        rows.append(f"{k},{len(f.cycles)},{classes},{w!r}")
    return "\n".join(rows) + "\n"
