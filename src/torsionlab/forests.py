"""Spanning-tree and cycle-rooted spanning forest enumeration by backtracking.

A CRSF is an edge subset covering every vertex in which each connected
component has exactly as many edges as vertices, hence a unique cycle.
Multi-edge copies and loops count as distinct edges throughout.

One depth-first search serves both enumerations.  It adds edges in
increasing index order to a union-find that it rolls back on the way up, so
subsets that share a prefix share its work and come out in
``itertools.combinations`` order.  An edge joining two components merges
them; an edge inside a component closes that component's cycle, which is
built there once and interned, so every forest found below that search node,
and every other forest with the same cycle, refers to one cycle object.  A
second closing edge in one component, or a merge of two components that
both have a cycle, prunes the branch; a spanning tree allows no closing edge
at all.  Each edge still to choose joins or closes an acyclic component, so
the search also stops a branch once it passes the last edge at one of them.
With |V| edges no tree component remains.  A CRSF lists its cycles by their
component's lowest vertex, each starting on its lowest edge index traversed
u -> v; the census classes follow that order.

The weighted sums, the expectation and the census compute each distinct
cycle object's weight (and winding) once per call, multiply the cached
weights of each forest in cycle order and add the forests in list order, so
their totals are bit-identical to a per-forest product.  Forests built by
hand, without shared cycle objects, give the same bits without the saving.
`crsf-verify` enumerates once, for both the sum and the census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IdentityMismatch, NegativeUnderSqrt, NotClassifiable,
                     RankUnsupported, TooLarge)
from .bundles import cycle_monodromy
from .laplacian import assemble, log_det_prime, spectrum
from .surfaces import standard_cuts

MAX_VERTICES = 12     # both enumerations refuse larger meshes
MAX_SUBSETS = 6_000_000
IDENTITY_TOL = 1e-9


def check_enumeration_caps(nv, ne, size):
    """TooLarge beyond MAX_VERTICES vertices, or MAX_SUBSETS ``size``-subsets of
    the ``ne`` edges: the enumerations' caps, checked before they search."""
    if nv > MAX_VERTICES:
        raise TooLarge(f"{nv} vertices exceeds brute-force limit {MAX_VERTICES}")
    if math.comb(ne, size) > MAX_SUBSETS:
        raise TooLarge("too many edge subsets")


@dataclass(slots=True)
class CRSF:
    """A cycle-rooted spanning forest: edges plus one directed cycle per component."""

    edge_indices: tuple
    cycles: list   # one list of (edge_index, direction) per component


def _search(mesh, size, cyclic):
    """Every ``size``-edge subset, in combinations order, in which no component
    holds two cycles, or any cycle at all unless ``cyclic``, as a CRSF with its
    cycles in CRSF order (no cycles for a tree); see the module docstring."""
    nv, ends = mesh.n_vertices, mesh.ends
    ne = len(ends)
    # one shared (edge, direction) tuple per step: the cycles refer to these
    steps = {d: [(k, d) for k in range(ne)] for d in (+1, -1)}
    label = list(range(nv))              # vertex -> its component's lowest vertex
    members = [[v] for v in range(nv)]   # lowest vertex -> its component
    reach = [-1] * nv                    # lowest vertex -> last edge index at it
    for k, (u, v) in enumerate(ends):
        reach[u] = reach[v] = k
    acyclic = set(range(nv))             # lowest vertices of acyclic components
    adj = [[] for _ in range(nv)]        # (edge, other end) per chosen tree edge
    cycle = {}                           # lowest vertex -> its component's cycle
    interned = {}
    chosen = []
    found = []

    def extend(start):
        left = size - len(chosen)
        if not left:
            found.append(CRSF(tuple(chosen), [cycle[r] for r in sorted(cycle)]))
            return
        # each edge still to choose joins or closes an acyclic component, and
        # each acyclic component needs one, so none may lie past its last edge
        stop = min(ne - left, min(map(reach.__getitem__, acyclic)))
        for k in range(start, stop + 1):
            u, v = ends[k]
            a, b = label[u], label[v]
            if a == b:
                if not cyclic or a in cycle:
                    continue
                walk = _cycle(mesh, adj, k, steps)
                cycle[a] = interned.setdefault(tuple(walk), walk)
                acyclic.remove(a)
                chosen.append(k)
                extend(k + 1)
                chosen.pop()
                acyclic.add(a)
                del cycle[a]
                continue
            if a in cycle and b in cycle:
                continue
            if a > b:
                a, b = b, a
            moved = members[b]
            for x in moved:
                label[x] = a
            members[a] += moved
            reach_a = reach[a]
            reach[a] = max(reach_a, reach[b])
            held = cycle.pop(b, None)
            if held is not None:
                cycle[a] = held
            joined = a if held is not None else b     # the acyclic side
            acyclic.remove(joined)
            adj[u].append((k, v))
            adj[v].append((k, u))
            chosen.append(k)
            extend(k + 1)
            chosen.pop()
            adj[u].pop()
            adj[v].pop()
            acyclic.add(joined)
            if held is not None:
                cycle[b] = cycle.pop(a)
            reach[a] = reach_a
            del members[a][-len(moved):]
            for x in moved:
                label[x] = b

    extend(0)
    return found


def _cycle(mesh, adj, k, steps):
    """Edge k, then the tree path back from its head to its tail, rotated to
    start on the lowest edge index traversed u -> v."""
    ends = mesh.ends
    u, v = ends[k]
    pred = {u: None}
    stack = [u]
    while v not in pred:
        x = stack.pop()
        for j, y in adj[x]:
            if y not in pred:
                pred[y] = (j, x)
                stack.append(y)
    walk = [steps[+1][k]]
    x = v
    while pred[x] is not None:
        j, y = pred[x]
        walk.append(steps[+1 if ends[j][0] == x else -1][j])
        x = y
    if min(walk)[1] < 0:
        walk = [steps[-d][j] for j, d in reversed(walk)]
    i = walk.index(min(walk))
    return walk[i:] + walk[:i]


def count_spanning_trees(mesh):
    """Exact spanning-tree count by the backtracking search."""
    nv = mesh.n_vertices
    check_enumeration_caps(nv, sum(u != v for u, v in mesh.ends), nv - 1)
    return len(_search(mesh, nv - 1, cyclic=False))


def enumerate_crsfs(mesh):
    """All cycle-rooted spanning forests, each with its directed cycles."""
    nv = mesh.n_vertices
    check_enumeration_caps(nv, len(mesh.edges), nv)
    return _search(mesh, nv, cyclic=True)


def _once_per_cycle(fn):
    """``fn`` memoized on the cycle object.  The cache keeps each cycle it saw
    alive, so no id is reused while the cache lives."""
    cache = {}

    def get(cyc):
        hit = cache.get(id(cyc))
        if hit is None:
            hit = cache[id(cyc)] = (cyc, fn(cyc))
        return hit[1]
    return get


def _cycle_weight(conn, cyc):
    """2 - w - 1/w (rank 1) or 2 - tr w (rank 2) for the monodromy w of ``cyc``."""
    w = cycle_monodromy(conn, cyc)
    if conn.rank == 1:
        z = w[0, 0]
        return float((2 - z - 1 / z).real)
    return float((2 - np.trace(w)).real)


def _weighed(conn, crsfs):
    """(CRSF, the product in cycle order of its cycles' weights) per CRSF."""
    weight = _once_per_cycle(lambda cyc: _cycle_weight(conn, cyc))
    for f in crsfs:
        yield f, math.prod(map(weight, f.cycles))


def _require_weighable(conn):
    """RankUnsupported outside ranks 1 and 2, NegativeUnderSqrt for rank-2
    transports outside SU(2): their cycle weights stand for no determinant."""
    if conn.rank not in (1, 2):
        raise RankUnsupported(f"rank {conn.rank}")
    if conn.rank == 2:
        for t in conn.transports:
            if abs(np.linalg.det(t) - 1) > 1e-9:
                raise NegativeUnderSqrt("rank-2 transports must be special unitary")


def crsf_weighted_sum(conn, crsfs=None):
    """Sum over CRSFs of the product of cycle weights.

    Rank 1: weight (2 - w - w^{-1}) per cycle and the sum equals det of the
    twisted Laplacian.  Rank 2 (special unitary): weight (2 - tr w) and the
    sum equals sqrt(det').
    """
    _require_weighable(conn)
    if crsfs is None:
        crsfs = enumerate_crsfs(conn.graph)
    total = 0.0
    for _, term in _weighed(conn, crsfs):   # sum() compensates from Python 3.12 on
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
    _require_weighable(conn)
    cuts = mesh.refine_cuts(standard_cuts(surf))
    noncontractible = _once_per_cycle(lambda cyc: any(mesh.cycle_winding(cyc, cuts)))
    total = 0.0
    nonc_sum = 0.0
    nonc_count = 0
    for f, term in _weighed(conn, enumerate_crsfs(mesh)):
        total += term
        if all(map(noncontractible, f.cycles)):
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
    _require_weighable(conn)
    if crsfs is None:
        crsfs = enumerate_crsfs(mesh)
    cuts = mesh.refine_cuts(standard_cuts(mesh.surface))
    cycle_class = _once_per_cycle(
        lambda cyc: "(" + ",".join(map(str, mesh.cycle_winding(cyc, cuts))) + ")")
    rows = ["crsf_id,n_components,cycle_classes,weight"]
    for k, (f, weight) in enumerate(_weighed(conn, crsfs)):
        classes = "|".join(map(cycle_class, f.cycles))
        rows.append(f"{k},{len(f.cycles)},{classes},{weight!r}")
    return "\n".join(rows) + "\n"
