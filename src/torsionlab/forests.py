"""Spanning-tree and cycle-rooted spanning forest enumeration by a block filter.

A CRSF is an edge subset covering every vertex in which each connected
component has exactly as many edges as vertices, hence a unique cycle.
Multi-edge copies and loops count as distinct edges throughout.

Both enumerations test every ``size``-subset of the edges, drawn from
``itertools.combinations`` in blocks of ``_CHUNK`` rows.  A block is one
integer array; its rows are unioned one edge column at a time, each vertex
relabeled to its component's lowest vertex, and a component is marked when
an edge inside it closes its cycle.  A CRSF keeps the rows in which no
component closes twice (a close inside a closed component, or a merge of two
closed ones); with |V| edges every component has then closed exactly once.
A spanning tree (|V| - 1 edges, loops left out) keeps the rows with no close
at all, hence one component.  So ``MAX_SUBSETS`` bounds exactly the subsets
tested.  On the kept rows, vertices of degree one are peeled until only the
cycles remain, and each cycle is keyed by the bitmask of its edges.

`enumerate_crsfs` returns a `CRSFTable`: the edges of each forest in
combinations order, and per forest the indices of its cycles, listed by their
component's lowest vertex.  Each distinct cycle is walked once, starting on
its lowest edge index traversed u -> v, and shared by every forest that
contains it; the census classes follow that order.

The weighted sums, the expectation and the census compute each distinct
cycle's weight (and winding) once per call, one `walk_monodromies` call per
cycle length, multiply each forest's weights in cycle order and add the
forests one by one in table order, so their totals are bit-identical to a
per-forest product.  A plain list of CRSFs is first interned by cycle object:
forests built by hand, without shared cycle objects, give the same bits
without the saving.  `crsf-verify` enumerates once, for the sum and census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import (IdentityMismatch, NegativeUnderSqrt, NotClassifiable,
                     RankUnsupported, TooLarge)
from .bundles import walk_monodromies
from .laplacian import assemble, log_det_prime, spectrum
from .surfaces import standard_cuts

MAX_VERTICES = 12     # both enumerations refuse larger meshes
MAX_EDGES = 62        # a cycle is keyed by an int64 bitmask of its edges
MAX_SUBSETS = 6_000_000
IDENTITY_TOL = 1e-9
_CHUNK = 4096         # subsets per block; larger blocks only raise the peak memory


def check_enumeration_caps(nv, ne, size):
    """TooLarge beyond MAX_VERTICES vertices, MAX_EDGES edges or MAX_SUBSETS
    ``size``-subsets of the ``ne`` edges: the enumerations' caps, checked
    before they draw a subset."""
    if nv > MAX_VERTICES:
        raise TooLarge(f"{nv} vertices exceeds brute-force limit {MAX_VERTICES}")
    if ne > MAX_EDGES:
        raise TooLarge(f"{ne} edges exceeds brute-force limit {MAX_EDGES}")
    if math.comb(ne, size) > MAX_SUBSETS:
        raise TooLarge("too many edge subsets")


@dataclass(slots=True)
class CRSF:
    """A cycle-rooted spanning forest: edges plus one directed cycle per component."""

    edge_indices: tuple
    cycles: list   # one list of (edge_index, direction) per component


@dataclass(frozen=True, slots=True, eq=False)
class CRSFTable:
    """Every CRSF of a mesh, in combinations order; indexing and iteration
    give `CRSF` views that share the cycle objects."""

    edges: np.ndarray       # (N, |V|) edge indices per forest
    cycle_ids: np.ndarray   # (N, c_max) indices into cycles, lowest vertex first, -1 pad
    cycles: list            # the distinct directed walks

    def __len__(self):
        return len(self.edges)

    def __getitem__(self, i):
        return CRSF(tuple(self.edges[i].tolist()),
                    [self.cycles[j] for j in self.cycle_ids[i].tolist() if j >= 0])

    def __iter__(self):
        cycles = self.cycles
        for edges, ids in zip(self.edges.tolist(), self.cycle_ids.tolist()):
            yield CRSF(tuple(edges), [cycles[j] for j in ids if j >= 0])


def _blocks(items, size):
    """The ``size``-subsets of ``items`` (size >= 1) in combinations order, as
    int8 arrays of at most _CHUNK rows."""
    subsets = combinations(items, size)
    while len(block := np.fromiter(chain.from_iterable(islice(subsets, _CHUNK)),
                                   dtype=np.int8).reshape(-1, size)):
        yield block


def _cells(mesh, block):
    """(rows, tails, heads) indexing per-vertex arrays of ``block`` that are
    laid out vertex by vertex, so a flat index is vertex * len(block) + row:
    the row numbers, and per edge column the flat index of each row's edge
    tail and head."""
    nrow = len(block)
    rows = np.arange(nrow, dtype=np.int32)
    return (rows, *((end * nrow).astype(np.int32)[block.T] + rows
                    for end in (mesh.edge_u, mesh.edge_v)))


def _union(mesh, block, cyclic):
    """(kept, label): the rows of ``block`` whose components each close at
    most once (``cyclic``) or never, and for those rows each vertex's
    component, named by its lowest vertex, as a (|V|, kept rows) array."""
    nrow, nv = len(block), mesh.n_vertices
    rows, tails, heads = _cells(mesh, block)
    # a component is named by the flat index of its lowest vertex in row 0
    label = np.repeat(np.arange(0, nv * nrow, nrow, dtype=np.int32), nrow)
    grid = label.reshape(nv, nrow)
    closed = np.zeros(nv * nrow, dtype=bool)     # per component, at its name + row
    bad = np.zeros(nrow, dtype=bool)
    for tail, head in zip(tails, heads):
        a = label[tail]
        b = label[head]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        same = lo == hi
        if cyclic:
            ca = closed[a + rows]
            cb = closed[b + rows]
            bad |= ca & (same | cb)
            closed[lo + rows] = same | ca | cb
        else:
            bad |= same
        np.copyto(grid, lo, where=grid == hi)
    kept = ~bad
    return kept, grid[:, kept] // nrow


def _cycle_masks(mesh, block, label):
    """Per row, the edge bitmask of each component's cycle, lowest vertex
    first, padded with 0.  Vertices of degree one are peeled until only the
    cycles remain: a leaf's one neighbour is the sum of its neighbours left."""
    nv, nrow = label.shape
    rows, tails, heads = _cells(mesh, block)
    size = nv * nrow
    degree = np.bincount(tails.ravel(), minlength=size) + np.bincount(heads.ravel(), minlength=size)
    neighbours = (np.bincount(tails.ravel(), heads.ravel() // nrow, minlength=size)
                  + np.bincount(heads.ravel(), tails.ravel() // nrow, minlength=size))
    while len(leaves := np.flatnonzero(degree == 1)):
        degree[leaves] = 0
        nearby = neighbours[leaves].astype(np.intp) * nrow + leaves % nrow
        degree -= np.bincount(nearby, minlength=size)
        neighbours -= np.bincount(nearby, leaves // nrow, minlength=size)
    # the edges left between cycle vertices are the cycles
    on_cycle = degree > 0
    bits = np.where(on_cycle[tails] & on_cycle[heads], np.left_shift(1, block.T, dtype=np.int64), 0)
    # each component's mask goes to its lowest vertex
    roots = label.ravel()[tails] * nrow + rows
    masks = np.zeros(size, dtype=np.int64)
    for root, bit in zip(roots, bits):
        masks[root] |= bit
    masks = masks.reshape(nv, nrow).T
    return np.take_along_axis(masks, np.argsort(masks == 0, axis=1, kind="stable"), axis=1)


def _walk(ends, key):
    """The cycle on the edges of bitmask ``key``: its lowest edge u -> v, then
    on around the cycle, as (edge_index, direction) steps."""
    left = [k for k in range(key.bit_length()) if key >> k & 1]
    k = left.pop(0)
    walk = [(k, +1)]
    at = ends[k][1]
    while left:
        for i, j in enumerate(left):
            u, v = ends[j]
            if u == at or v == at:
                walk.append((j, +1) if u == at else (j, -1))
                at = v if u == at else u
                del left[i]
                break
    return walk


def count_spanning_trees(mesh):
    """Exact spanning-tree count by the block filter."""
    nv = mesh.n_vertices
    links = [k for k, (u, v) in enumerate(mesh.ends) if u != v]
    check_enumeration_caps(nv, len(links), nv - 1)
    if nv == 1:
        return 1
    return sum(int(_union(mesh, block, cyclic=False)[0].sum())
               for block in _blocks(links, nv - 1))


def enumerate_crsfs(mesh):
    """All cycle-rooted spanning forests, as a `CRSFTable`."""
    nv = mesh.n_vertices
    check_enumeration_caps(nv, len(mesh.edges), nv)
    kept_edges = [np.zeros((0, nv), dtype=np.int8)]
    kept_masks = [np.zeros((0, nv), dtype=np.int64)]
    for block in _blocks(range(len(mesh.edges)), nv):
        kept, label = _union(mesh, block, cyclic=True)
        block = block[kept]
        kept_edges.append(block)
        kept_masks.append(_cycle_masks(mesh, block, label))
    masks = np.concatenate(kept_masks)
    masks = masks[:, :int((masks != 0).sum(axis=1).max(initial=0))]
    keys, ids = np.unique(masks[masks != 0], return_inverse=True)
    cycle_ids = np.full(masks.shape, -1, dtype=np.intp)
    cycle_ids[masks != 0] = ids
    ends = mesh.ends
    return CRSFTable(np.concatenate(kept_edges), cycle_ids,
                     [_walk(ends, key) for key in keys.tolist()])


def _interned(crsfs):
    """(cycle_ids, cycles) of a `CRSFTable`, or of a list of CRSFs with its
    cycles interned by object."""
    if isinstance(crsfs, CRSFTable):
        return crsfs.cycle_ids, crsfs.cycles
    index = {}
    cycles = []
    rows = []
    for f in crsfs:
        ids = []
        for c in f.cycles:
            j = index.setdefault(id(c), len(cycles))
            if j == len(cycles):
                cycles.append(c)
            ids.append(j)
        rows.append(ids)
    cycle_ids = np.full((len(rows), max(map(len, rows), default=0)), -1, dtype=np.intp)
    for r, ids in zip(cycle_ids, rows):
        r[:len(ids)] = ids
    return cycle_ids, cycles


def _cycle_weights(conn, cycles):
    """2 - w - 1/w (rank 1) or 2 - tr w (rank 2) for the monodromy w of each
    cycle; the cycles of one length are walked together."""
    weights = np.empty(len(cycles))
    by_length = {}
    for j, cyc in enumerate(cycles):
        by_length.setdefault(len(cyc), []).append(j)
    for rows in by_length.values():
        steps = np.array([cycles[j] for j in rows])
        idx, dirs = steps[..., 0], steps[..., 1]
        conn.graph.check_closed(idx, dirs)
        w = walk_monodromies(conn, idx, dirs)
        if conn.rank == 1:
            z = w[:, 0, 0]
            weights[rows] = (2 - z - 1 / z).real
        else:
            weights[rows] = (2 - np.trace(w, axis1=1, axis2=2)).real
    return weights


def _per_forest(op, values, cycle_ids, identity):
    """``op`` folded over each forest's cycles left to right, from
    ``identity``, of ``values`` (one per distinct cycle): for np.multiply the
    same products, bit for bit, as math.prod in cycle order."""
    gathered = np.append(np.asarray(values), identity)[cycle_ids]   # the pad, -1, is identity
    out = np.full(len(cycle_ids), identity)
    for column in gathered.T:
        op(out, column, out=out)
    return out.tolist()


def _terms(conn, crsfs):
    """(cycle_ids, cycles, the product of each forest's cycle weights)."""
    cycle_ids, cycles = _interned(crsfs)
    return cycle_ids, cycles, _per_forest(np.multiply, _cycle_weights(conn, cycles),
                                          cycle_ids, 1.0)


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
    for term in _terms(conn, crsfs)[2]:   # sum() compensates from Python 3.12 on
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

    Requires standard cuts (a surface with a periodic side) so winding
    numbers classify cycles, and checks that the full CRSF sum reproduces
    sqrt(det) of the Laplacian.
    """
    mesh = conn.graph
    cuts = standard_cuts(mesh.surface)
    if not cuts:
        raise NotClassifiable(f"winding classification unavailable on {mesh.surface.name}")
    if conn.rank != 2:
        raise RankUnsupported("expectation defined for rank-2 bundles")
    _require_weighable(conn)
    cuts = mesh.refine_cuts(cuts)
    cycle_ids, cycles, terms = _terms(conn, enumerate_crsfs(mesh))
    noncontractible = [any(mesh.cycle_winding(cyc, cuts)) for cyc in cycles]
    total = 0.0
    nonc_sum = 0.0
    nonc_count = 0
    for term, nonc in zip(terms, _per_forest(np.logical_and, noncontractible, cycle_ids, True)):
        total += term
        if nonc:
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
    cycle_ids, cycles, terms = _terms(conn, crsfs)
    classes = ["(" + ",".join(map(str, mesh.cycle_winding(cyc, cuts))) + ")" for cyc in cycles]
    rows = ["crsf_id,n_components,cycle_classes,weight"]
    for k, (ids, weight) in enumerate(zip(cycle_ids.tolist(), terms)):
        named = [classes[j] for j in ids if j >= 0]
        rows.append(f"{k},{len(named)},{'|'.join(named)},{weight!r}")
    return "\n".join(rows) + "\n"
