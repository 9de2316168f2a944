"""Spanning-tree and cycle-rooted spanning forest enumeration by prefix growth.

A CRSF is an edge subset covering every vertex in which each connected
component has exactly as many edges as vertices, hence a unique cycle.
Multi-edge copies and loops count as distinct edges throughout.

Both enumerations grow the ``size``-subsets of the edges one edge at a time,
level by level in combinations order, in blocks of at most ``_CHUNK`` rows.
A child row copies its prefix's labels (each vertex's component, named by its
lowest vertex) and unions only its new edge.  A CRSF prefix is dropped when a
component closes twice (a close inside a closed component, or a merge of two
closed ones), a spanning-tree prefix (|V| - 1 edges, loops left out) when any
component closes; a dropped prefix is never extended.  With |V| edges every
component of a CRSF has closed exactly once.  ``MAX_SUBSETS`` bounds the
subsets of the last level, of which only the extensions of kept prefixes are
reached.  Each vertex carries the edge bitmask of its tree path to its
component's lowest vertex, so the edge that closes a component gives that
component's cycle mask at once (spanning-tree growth carries no masks).

`enumerate_crsfs` returns a `CRSFTable`: the edges of each forest in
combinations order, and per forest the ids of its cycles, listed by their
component's lowest vertex.  Each distinct cycle is walked once, starting on
its lowest edge index traversed u -> v, and shared by every forest that
contains it; the census classes follow that order.  The table keeps the
cycles as one walk, the format of `bundles.walk_monodromies`: (cycles, L)
edge indices and directions in id order, L the longest cycle, a shorter
cycle's row padded with direction 0 (and edge 0) past its end, every cycle
walked from its mask in one array pass.  This walk is the table's one
representation of its cycles.

The weighted sums, the expectation and the census compute each distinct
cycle's weight (and winding) once per call, with one `check_closed` and one
`walk_monodromies` call (and one cut product) on the table's walk, multiply
each forest's weights in cycle order and add the forests one by one in table
order, so their totals are bit-identical to a per-forest product.  They read
a `CRSFTable`, or enumerate one when given none.
`crsf_census` returns its rows with that total, so `crsf-verify` weighs its
forests once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_CHUNK = 4096         # rows per block at each level; larger blocks only raise the peak memory


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


@dataclass(frozen=True, eq=False)
class CRSFTable:
    """Every CRSF of a mesh, in combinations order."""

    edges: np.ndarray       # (N, |V|) edge indices per forest
    cycle_ids: np.ndarray   # (N, c_max) ids of the distinct cycles, lowest vertex first, -1 pad
    walks: tuple            # (idx, dirs): the cycles' (cycles, L) walk in id order, 0-padded

    def __len__(self):
        return len(self.edges)


def _grow(mesh, links, size, cyclic):
    """The ``size``-subsets of the edges ``links`` in which no component
    closes twice (``cyclic``) or at all, in combinations order, as blocks
    (edges, masks): per subset its edge indices and, lowest vertex first, the
    cycle mask of each of its components that closed, padded with 0 to the
    block's widest row (None when not ``cyclic``, which carries no masks).

    A row's masks hold, per vertex, the XOR of the edge bits on its tree path
    to its component's lowest vertex, and at that lowest vertex, whose path
    is empty, the component's cycle mask (0 while it is open).  An edge
    e = (u, v) closing a component closes it on p(u) ^ p(v) ^ bit(e); merging
    two components XORs that same value into the paths of the relabeled side.
    """
    links = np.asarray(links, dtype=np.int8)
    nv = mesh.n_vertices
    tails, heads = mesh.edge_u[links], mesh.edge_v[links]
    bits = np.left_shift(1, links, dtype=np.int64)
    top = len(links) - size      # a d-edge prefix's next pick is at most top + d

    def extend(picked, label, mask):
        d = picked.shape[1]
        last = picked[:, -1].astype(np.intp) if d else np.full(1, -1)
        counts = np.maximum(top + d - last, 0)     # children pick last + 1 .. top + d
        parents = np.repeat(np.arange(len(picked), dtype=np.int32), counts)
        picks = (np.arange(len(parents)) - np.repeat(np.cumsum(counts) - counts - last - 1,
                                                     counts)).astype(np.int8)
        for start in range(0, len(parents), _CHUNK):
            par, pick = parents[start:start + _CHUNK], picks[start:start + _CHUNK]
            u, v = tails[pick], heads[pick]
            a, b = label[par, u], label[par, v]
            same = a == b
            bad = (mask[par, a] != 0) & (same | (mask[par, b] != 0)) if cyclic else same
            keep = np.flatnonzero(~bad)
            par, pick, u, v, a, b, same = (z[keep] for z in (par, pick, u, v, a, b, same))
            lab, m = label[par], None
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            moved = (lab == hi[:, None]) & ~same[:, None]
            if cyclic:
                m, rows = mask[par], np.arange(len(par))
                # p(u) ^ p(v) ^ bit(e), where a lowest vertex's own path is empty
                x = np.where(a == u, 0, m[rows, u]) ^ np.where(b == v, 0, m[rows, v]) ^ bits[pick]
                cycles = m[rows, a] | m[rows, b]
                m ^= moved * x[:, None]
                m[rows, hi] = x
                m[rows, lo] = np.where(same, x, cycles)
            np.copyto(lab, lo[:, None], where=moved)
            kids = np.column_stack([picked[par], pick])
            if d + 1 < size:
                yield from extend(kids, lab, m)
            elif not cyclic:
                yield links[kids], None
            else:
                masks = np.where(lab == np.arange(nv), m, 0)
                width = int((masks != 0).sum(axis=1).max(initial=0))
                order = np.argsort(masks == 0, axis=1, kind="stable")[:, :width]
                yield links[kids], np.take_along_axis(masks, order, axis=1)

    yield from extend(np.zeros((1, 0), dtype=np.int8), np.arange(nv, dtype=np.int8)[None],
                      np.zeros((1, nv), dtype=np.int64) if cyclic else None)


def _walks(mesh, keys):
    """(idx, dirs) of the cycles on the edges of the bitmasks ``keys``, in
    their order: each cycle walked from its lowest edge u -> v on around, as
    (cycles, L) edge indices and directions, L the longest cycle, with edge 0
    and direction 0 on every step past a cycle's end.

    Each cycle edge has two ends, its tail 2t and its head 2t + 1 (t counts
    the set bits, cycle by cycle); at each vertex of a cycle two ends meet,
    and each is the other's partner.  A walk leaves an edge through the end
    it did not enter by and enters the next edge through that end's partner,
    so all cycles step together, one gather per step."""
    rows, edges = np.nonzero((keys[:, None] >> np.arange(len(mesh.edge_u))) & 1)
    lengths = np.bincount(rows, minlength=len(keys))
    vertex = np.column_stack([mesh.edge_u[edges], mesh.edge_v[edges]]).ravel()
    pairs = np.argsort(np.repeat(rows * mesh.n_vertices, 2) + vertex, kind="stable").reshape(-1, 2)
    partner = np.empty(len(vertex), dtype=np.intp)
    partner[pairs[:, 0]] = pairs[:, 1]
    partner[pairs[:, 1]] = pairs[:, 0]
    end = 2 * (np.cumsum(lengths) - lengths)        # each lowest edge, entered at its tail
    ends = [end]
    for _ in range(1, int(lengths.max(initial=0))):
        end = partner[end ^ 1]
        ends.append(end)
    ends = np.stack(ends, axis=1)
    real = np.arange(ends.shape[1]) < lengths[:, None]
    return edges[ends >> 1] * real, (1 - 2 * (ends & 1)) * real


def count_spanning_trees(mesh):
    """Exact spanning-tree count by prefix growth."""
    nv = mesh.n_vertices
    links = np.flatnonzero(mesh.edge_u != mesh.edge_v)
    check_enumeration_caps(nv, len(links), nv - 1)
    if nv == 1:
        return 1
    return sum(len(edges) for edges, _ in _grow(mesh, links, nv - 1, cyclic=False))


def enumerate_crsfs(mesh):
    """All cycle-rooted spanning forests, as a `CRSFTable`."""
    nv = mesh.n_vertices
    check_enumeration_caps(nv, len(mesh.edges), nv)
    blocks = list(_grow(mesh, mesh.edges, nv, cyclic=True))
    rows = sum(len(e) for e, _ in blocks)
    # the distinct cycle masks, after 0 (no cycle), so a mask's index - 1 is its id
    keys = np.unique(np.concatenate([np.zeros(1, dtype=np.int64),
                                     *(np.unique(m) for _, m in blocks)]))
    edges = np.empty((rows, nv), dtype=np.int8)
    cycle_ids = np.full((rows, max((m.shape[1] for _, m in blocks), default=0)), -1,
                        dtype=np.intp)
    while blocks:   # last block first, each dropped once copied in
        e, m = blocks.pop()
        edges[rows - len(e):rows] = e
        cycle_ids[rows - len(e):rows, :m.shape[1]] = np.searchsorted(keys, m) - 1
        rows -= len(e)
    return CRSFTable(edges, cycle_ids, _walks(mesh, keys[1:]))


def _windings(mesh, walks):
    """Each cycle's signed crossings of each standard cut of ``mesh`` (see
    `MeshGraph.refine_cuts`), a (cycles, cuts) array, by one product over
    the walk (idx, dirs); a pad step, of direction 0, crosses nothing."""
    idx, dirs = walks
    edge_cuts = mesh.refine_cuts(standard_cuts(mesh.surface))
    return (edge_cuts[:, idx] * dirs).sum(axis=2).T


def _cycle_weights(conn, walks):
    """2 - w - 1/w (rank 1) or 2 - tr w (rank 2) for the monodromy w of each
    cycle of the walk (idx, dirs), all cycles walked together."""
    conn.graph.check_closed(*walks)
    w = walk_monodromies(conn, *walks)
    if conn.rank == 1:
        z = w[:, 0, 0]
        return (2 - z - 1 / z).real
    return (2 - np.trace(w, axis1=1, axis2=2)).real


def _per_forest(op, values, cycle_ids, identity):
    """``op`` folded over each forest's cycles left to right, from
    ``identity``, of ``values`` (one per distinct cycle): for np.multiply the
    same products, bit for bit, as math.prod in cycle order."""
    gathered = np.append(np.asarray(values), identity)[cycle_ids]   # the pad, -1, is identity
    out = np.full(len(cycle_ids), identity)
    for column in gathered.T:
        op(out, column, out=out)
    return out


def sum_in_order(terms):
    """The sum of ``terms`` added left to right from 0.0, as a Python loop
    adds them: np.add.accumulate keeps that order, where np.sum and, from
    Python 3.12 on, sum() do not, so the bits would change."""
    return float(np.add.accumulate(np.append(0.0, terms))[-1])


def _terms(conn, table):
    """The product of each forest's cycle weights, per row of ``table``."""
    return _per_forest(np.multiply, _cycle_weights(conn, table.walks), table.cycle_ids, 1.0)


def _require_weighable(conn):
    """RankUnsupported outside ranks 1 and 2, NegativeUnderSqrt for rank-2
    transports outside SU(2): their cycle weights stand for no determinant."""
    if conn.rank not in (1, 2):
        raise RankUnsupported(f"rank {conn.rank}")
    if conn.rank == 2 and np.any(abs(np.linalg.det(conn.transports) - 1) > 1e-9):
        raise NegativeUnderSqrt("rank-2 transports must be special unitary")


def crsf_weighted_sum(conn, crsfs=None):
    """Sum over the CRSFs of the `CRSFTable` ``crsfs`` (by default every CRSF
    of the mesh) of the product of cycle weights.

    Rank 1: weight (2 - w - w^{-1}) per cycle and the sum equals det of the
    twisted Laplacian.  Rank 2 (special unitary): weight (2 - tr w) and the
    sum equals sqrt(det').
    """
    _require_weighable(conn)
    if crsfs is None:
        crsfs = enumerate_crsfs(conn.graph)
    return sum_in_order(_terms(conn, crsfs))


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
    if not standard_cuts(mesh.surface):
        raise NotClassifiable(f"winding classification unavailable on {mesh.surface.name}")
    if conn.rank != 2:
        raise RankUnsupported("expectation defined for rank-2 bundles")
    _require_weighable(conn)
    table = enumerate_crsfs(mesh)
    terms = _terms(conn, table)
    nonc = _per_forest(np.logical_and, _windings(mesh, table.walks).any(axis=1),
                       table.cycle_ids, True)
    total = sum_in_order(terms)
    nonc_sum = sum_in_order(terms[nonc])
    nonc_count = int(np.count_nonzero(nonc))
    det, ok = crsf_identity(conn, total)
    if not ok:
        raise IdentityMismatch(f"CRSF sum {total} does not match sqrt(det) {math.sqrt(det)}")
    if nonc_count == 0:
        raise NotClassifiable("no non-contractible CRSF on this mesh")
    return nonc_sum / nonc_count, nonc_count


def crsf_census(conn, crsfs=None):
    """(rows, total): per CRSF, in table order, the row (crsf_id,
    n_components, cycle_classes, weight), where cycle_classes joins each
    cycle's winding numbers across the standard cuts with "|", as in
    "(1,0)|(1,0)", and weight is its product of cycle weights under ``conn``;
    total adds the weights in table order, the bits of `crsf_weighted_sum`.
    ``crsfs`` is a `CRSFTable`; the bundle is checked before it defaults to
    every CRSF of the mesh."""
    _require_weighable(conn)
    if crsfs is None:
        crsfs = enumerate_crsfs(conn.graph)
    terms = _terms(conn, crsfs)
    classes = ["(" + ",".join(map(str, w)) + ")"
               for w in _windings(conn.graph, crsfs.walks).tolist()]
    rows = []
    for k, (ids, weight) in enumerate(zip(crsfs.cycle_ids.tolist(), terms.tolist())):
        named = [classes[j] for j in ids if j >= 0]
        rows.append((k, len(named), "|".join(named), weight))
    return rows, sum_in_order(terms)
