"""Closed forms, loops and record views that only the tests use, kept as
oracles: the rectangle mesh's eigenvalues and eigenvectors mode by mode and as
a full grid, the Szego trace by full eigenbasis contraction, the rescaling law
of log det', the flat basis by SVD at every rank, the monodromy of a cycle
walked one edge at a time, the flatness
defect of every face, the faces and the CRSF cycles walked one corner or edge
at a time, the piecewise polynomial evaluated piece by piece, the bump
profile with its mixing weight found by bisection, and a square complex's
vertex classes and refinement walked one corner and one pairing at a time on
its dicts.

The library keeps one representation of the mesh and of the CRSF table, their
arrays.  The record views of both live here: each edge as (u, v, slot_u,
slot_v) with its slots as ((tile, i, j), side), each vertex as (tile, i, j),
the slot -> edge map, the mesh of the refined square complex built by walking
its dicts (`DictMesh`, whose `check` holds the array mesh to it; it refines and
walks with the dict oracles, not with the partner arrays), and each
forest as a `CRSF` of edge indices and (edge_index, direction) cycle lists,
with a list of them turned back into a `CRSFTable` by interning its cycles.
The table's cycles grouped by length, each group walked, weighed and wound
on its own (`per_length_walks`), are the reference of its one padded walk.

log det' of any flat bundle by one sparse LU (`sparse_log_det`, scipy's
SuperLU) is the reference of the strip route and of the characters' closed
form beyond the dense eigensolve's sizes; the library runs on numpy alone."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from torsionlab import bundles, experiments as ex, laplacian
from torsionlab.complexes import (CORNER_ON_SIDE, CORNER_PARAM, ENTER_SIDE, EXIT_SIDE,
                                  SW, SE, NE, NW, TRANSLATION, SquareComplex, VertexClass,
                                  corner_turn, exit_slots)
from torsionlab.errors import (BisectionFailure, BudgetExceeded, IndexOutOfRange, InvalidGluing,
                               KernelMismatch, NotAClosedWalk)
from torsionlab.forests import CRSFTable
from torsionlab.surfaces import standard_cuts
from torsionlab.torsion import SeparableSurface


def mesh_eigenvalue(a, b, n, i, j):
    """Rescaled eigenvalue of the an x bn rectangle mesh; (0,0) maps to 1."""
    if not (0 <= i < a * n and 0 <= j < b * n):
        raise IndexOutOfRange(f"(i,j)=({i},{j}) outside [0,{a * n}) x [0,{b * n})")
    if i == 0 and j == 0:
        return 1.0
    return (4 * n * n * math.sin(math.pi * i / (2 * a * n)) ** 2
            + 4 * n * n * math.sin(math.pi * j / (2 * b * n)) ** 2)


def mesh_eigenvector(a, b, n, i, j, k, l):
    """Eigenvector value at mesh vertex (k, l)."""
    if not (0 <= i < a * n and 0 <= j < b * n):
        raise IndexOutOfRange(f"(i,j)=({i},{j})")
    if not (0 <= k < a * n and 0 <= l < b * n):
        raise IndexOutOfRange(f"(k,l)=({k},{l})")
    return (math.cos(2 * math.pi * i * (0.5 + k) / (2 * a * n))
            * math.cos(2 * math.pi * j * (0.5 + l) / (2 * b * n)))


def mesh_eigenvector_norm_sq(a, b, n, i, j):
    """Squared norm of the (i, j) eigenvector: a*b*n^2 * 2^(d_i0 + d_j0 - 2).

    Direct summation fixes the power: the constant vector has squared norm
    a*b*n^2 and doubly nonzero modes a*b*n^2/4.
    """
    if not (0 <= i < a * n and 0 <= j < b * n):
        raise IndexOutOfRange(f"(i,j)=({i},{j})")
    di = 1 if i == 0 else 0
    dj = 1 if j == 0 else 0
    return a * b * n * n * 2.0 ** (di + dj - 2)


def rescale_torsion(logdet, zeta0, c):
    """log det' of the c-rescaled surface: logdet - 2 log(c) zeta(0)."""
    return logdet - 2.0 * math.log(c) * float(zeta0)


def mesh_eigenvalue_grid(a, b, n):
    """All rescaled eigenvalues as an (an, bn) array; the (0,0) slot holds 1."""
    fa, fb = SeparableSurface("rectangle", a, b).factors
    # rescale each side before the sum: one rounding of 4 n^2 sin^2 per side
    lam = (n * n) * fa.mesh_eigenvalues(n)[:, None] + (n * n) * fb.mesh_eigenvalues(n)[None, :]
    lam[0, 0] = 1.0
    return lam


def szego_trace_contraction(profile, n):
    """Independent oracle: full eigenbasis contraction sum_k log(lam_k) <phi f, f>/<f, f>."""
    profile.check_support(n)
    a, b = profile.a, profile.b
    an, bn = a * n, b * n
    lam = mesh_eigenvalue_grid(a, b, n)
    xs = (0.5 + np.arange(an)) / n
    ys = (0.5 + np.arange(bn)) / n
    phi = np.zeros((an, bn))
    for (i, j), c in profile.coeffs.items():
        phi += c * np.outer(np.cos(2 * np.pi * i * xs / a), np.cos(2 * np.pi * j * ys / b))
    fk = [np.cos(2 * np.pi * k * (0.5 + np.arange(an)) / (2 * an)) for k in range(an)]
    fl = [np.cos(2 * np.pi * l * (0.5 + np.arange(bn)) / (2 * bn)) for l in range(bn)]
    total = 0.0
    for k in range(an):
        pk = fk[k] * fk[k]
        for l in range(bn):
            if k == 0 and l == 0:
                continue
            pl = fl[l] * fl[l]
            num = float(pk @ phi @ pl)
            den = float(pk.sum() * pl.sum())
            total += math.log(lam[k, l]) * num / den
    return total


def step_monodromy(conn, cycle):
    """Independent oracle: the ordered product of transports along a closed
    directed edge cycle, a list of (edge_index, direction), multiplied one
    edge at a time and checked to chain head to tail as it goes."""
    if not cycle:
        raise NotAClosedWalk("empty cycle")
    ends = edge_ends(conn.graph)
    forward = conn.transports
    backward = conn.transports.conj().swapaxes(-1, -2)
    idx0, d0 = cycle[0]
    u0, v0 = ends[idx0]
    pos, start = (v0, u0) if d0 == +1 else (u0, v0)
    word = (forward if d0 == +1 else backward)[idx0]
    for idx, d in cycle[1:]:
        u, v = ends[idx]
        tail, head = (u, v) if d == +1 else (v, u)
        if tail != pos:
            raise NotAClosedWalk(f"edge {idx} does not start at vertex {pos}")
        word = (forward if d == +1 else backward)[idx] @ word
        pos = head
    if pos != start:
        raise NotAClosedWalk("walk does not return to its starting vertex")
    return word


def svd_flat_basis(rep):
    """Independent oracle: the flat basis of ``rep`` by the SVD of the stacked
    g - I at every rank, rank 1 included."""
    if not rep.generators:
        return np.eye(rep.rank)
    stacked = np.vstack([g - np.eye(rep.rank) for g in rep.generators])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    return vh[s < bundles.FLAT_SECTION_TOL].conj().T


def all_faces_flat_check(conn):
    """Independent oracle: (all faces flat to FLATNESS_TOL?, worst face
    defect), every face walked, those of one length together."""
    worst = 0.0
    eye = np.eye(conn.rank)
    for _, idx, dirs in conn.graph.face_cycles().values():
        word = bundles.walk_monodromies(conn, idx, dirs)
        worst = max(worst, float(np.max(np.abs(word - eye))))
    return worst <= bundles.FLATNESS_TOL, worst


def corner_walk_faces(mesh):
    """Independent oracle: the faces of ``mesh`` in the format of
    `MeshGraph.face_cycles`, found by walking the corner turn from each
    corner in id order, one corner at a time; a walk that comes back to its
    start is a face, started at its smallest corner, and its corners are not
    walked again."""
    nxt = corner_turn(mesh.partner).tolist()
    seen = set()
    groups = {}
    for c in range(len(mesh.partner)):
        if c in seen:
            continue
        fan = [c]
        cur = nxt[c]
        while cur != c and cur >= 0:
            fan.append(cur)
            cur = nxt[cur]
        seen.update(fan)
        if cur == c:
            groups.setdefault(len(fan), []).append(fan)
    out = {}
    for length, fans in sorted(groups.items()):
        cycles = np.array(fans)
        slots = exit_slots(cycles)
        out[length] = (cycles[:, 0], mesh.slot_edge_index[slots], mesh.slot_direction[slots])
    return out


def cycle_walk(ends, key):
    """Independent oracle: the cycle on the edges of bitmask ``key``, walked
    from its lowest edge u -> v on around, one edge at a time, as
    (edge_index, direction) steps; ``ends`` holds (u, v) per edge."""
    edges = [k for k in range(key.bit_length()) if key >> k & 1]
    touching = {}
    for k in edges:
        for x in ends[k]:
            touching.setdefault(x, []).append(k)
    k = edges[0]
    walk = [(k, +1)]
    at = ends[k][1]
    for _ in edges[1:]:
        k = next(j for j in touching[at] if j != k)
        u, v = ends[k]
        walk.append((k, +1) if u == at else (k, -1))
        at = v if u == at else u
    return walk


def piecewise_by_piece(pp, x):
    """Independent oracle: ``pp`` at ``x``, every piece tested against every
    point with a boolean mask."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(pp.breaks, arr, side="right") - 1, 0, len(pp.polys) - 1)
    out = np.empty_like(arr)
    for k, p in enumerate(pp.polys):
        m = idx == k
        if np.any(m):
            out[m] = p(arr[m])
    return out if np.ndim(x) else float(out[0])


def bisection_bump():
    """Independent oracle: the bump profile whose mixing weight is found by
    bisection on the defect int m - int m^2 of the mix m = t r1 + (1 - t) r2,
    each step rebuilding the mix and integrating it."""
    r1 = ex._rho1_half()
    r2 = ex._rho2_half()

    def defect(t):
        mix = ex.PiecewisePoly.linear_combination([r1, r2], [t, 1.0 - t])
        return mix.integrate() - ex.product_integral(mix, mix)

    lo, hi = 0.0, 1.0
    f_lo, f_hi = defect(0.0), defect(1.0)
    if not (f_lo < 0.0 < f_hi):
        raise BisectionFailure(f"seed defects do not bracket zero: {f_lo}, {f_hi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = defect(mid)
        if abs(fm) < 1e-12 or hi - lo < 1e-16:
            break
        if fm > 0:
            hi = mid
        else:
            lo = mid
    t0 = 0.5 * (lo + hi)
    half = ex.PiecewisePoly.linear_combination([r1, r2], [t0, 1.0 - t0])
    dhalf = half.derivative()
    grid = np.linspace(0.0, 0.5, 2001)
    res = {
        "plateau": max(abs(float(half(0.0)) - 1.0), abs(float(half(1.0)))),
        "evenness": 0.0,
        "half_shift": float(np.max(np.abs(half(0.5 + grid) + half(0.5 - grid) - 1.0))),
        "orthogonality": abs(defect(t0)),
        "int_rho": abs(half.integrate() - 0.5),
        "int_rho_sq": abs(ex.product_integral(half, half) - 0.5),
    }
    return ex.BumpProfile(half=half, t_mix=t0, residuals=res,
                          C=ex.product_integral(dhalf, dhalf))


# -- the square complex walked as dicts -------------------------------------------


def _dict_step(cpx, c, k, sides):
    """One step around the vertex at corner k of cell c, out through side
    sides[k]: counterclockwise with EXIT_SIDE, clockwise with ENTER_SIDE.

    Returns (c', k') or None when that side is a boundary side.
    """
    d = sides[k]
    if (c, d) not in cpx.pairings:
        return None
    c2, d2, kind = cpx.pairings[(c, d)]
    t = CORNER_PARAM[(d, k)]
    t2 = t if kind == TRANSLATION else 1 - t
    return c2, CORNER_ON_SIDE[d2][t2]


def dict_vertex_classes(cpx):
    """Independent oracle: the vertex classes of ``cpx`` walked one corner at
    a time on its pairings dict, from each corner in cell and corner order
    that no earlier class holds: counterclockwise until the walk closes or
    meets the boundary, then clockwise back to the boundary."""
    seen = set()
    classes = []
    for c in cpx.cells:
        for k in (SW, SE, NE, NW):
            if (c, k) in seen:
                continue
            fan = [(c, k)]
            boundary = False
            cur = (c, k)
            while True:
                nxt = _dict_step(cpx, *cur, EXIT_SIDE)
                if nxt is None:
                    boundary = True
                    break
                if nxt == (c, k):
                    break
                fan.append(nxt)
                cur = nxt
                if len(fan) > 4 * len(cpx.cells):
                    raise InvalidGluing("vertex walk does not close")
            if boundary:
                cur = (c, k)
                while True:
                    prv = _dict_step(cpx, *cur, ENTER_SIDE)
                    if prv is None:
                        break
                    fan.insert(0, prv)
                    cur = prv
                    if len(fan) > 4 * len(cpx.cells):
                        raise InvalidGluing("vertex walk does not close")
            seen.update(fan)
            classes.append(VertexClass(corners=tuple(fan), boundary=boundary))
    return classes


def dict_refine(cpx, n):
    """Independent oracle: ``cpx.refine(n)`` built on dicts, each cell glued
    as an n x n block and each parent pairing as n subside pairings, reversed
    for a half-turn."""
    pairings = {}
    cells = []
    for c in cpx.cells:
        cells += SquareComplex.glue_block(pairings, (c,), n, n)
    done = set()
    for (c, d), (c2, d2, kind) in cpx.pairings.items():
        key = frozenset(((c, d), (c2, d2)))
        if key in done:
            continue
        done.add(key)
        for s in range(n):
            s2 = s if kind == TRANSLATION else n - 1 - s
            SquareComplex.glue(pairings, SquareComplex.refined_side(c, d, s, n),
                               SquareComplex.refined_side(c2, d2, s2, n), kind)
    return SquareComplex(cells, pairings)


# -- the mesh as records ----------------------------------------------------------


class EdgeCopy(NamedTuple):
    """One copy of a graph edge, identified by the subtile side pair it
    crosses: ``slot_u`` is the side ((tile, i, j), side) of u's subcell
    crossed when traversing u -> v, ``slot_v`` the side entered on v's."""

    u: int
    v: int
    slot_u: tuple
    slot_v: tuple


def vertex_cells(mesh):
    """(tile, i, j) per vertex id."""
    n = mesh.n
    return [(c, i, j) for c in mesh.surface.complex.cells for i in range(n) for j in range(n)]


def slot_cell(mesh, slot):
    """((tile, i, j), side) of a slot id."""
    return vertex_cells(mesh)[slot >> 2], slot & 3


def edge_ends(mesh):
    """(u, v) per edge."""
    return list(zip(mesh.edge_u.tolist(), mesh.edge_v.tolist()))


def edge_copies(mesh):
    """`EdgeCopy` per edge."""
    cells = vertex_cells(mesh)
    return [EdgeCopy(u, v, (cells[a >> 2], a & 3), (cells[b >> 2], b & 3))
            for (u, v), a, b in zip(edge_ends(mesh), mesh.slot_u.tolist(), mesh.slot_v.tolist())]


def slot_edges(mesh):
    """Paired side slot ((tile, i, j), side) -> (edge index, +1 for the
    edge's slot_u, -1 for its slot_v)."""
    out = {}
    for idx, e in enumerate(edge_copies(mesh)):
        out[e.slot_u] = (idx, +1)
        out[e.slot_v] = (idx, -1)
    return out


def _slot_key(slot):
    cell, d = slot
    return tuple(str(x) for x in cell), d


class DictMesh:
    """The mesh of the refined square complex of ``mesh``'s subdivision, built
    by walking its dicts: one edge per side pair, sorted by the printed ids of
    its slots; faces and neighbor sets from the complex's corner fans."""

    def __init__(self, mesh):
        self.complex = cpx = dict_refine(mesh.surface.complex, mesh.n)
        self.n = mesh.n
        self.n_vertices = len(cpx.cells)
        edges = {}
        for c in cpx.cells:
            for d in range(4):
                if (c, d) not in cpx.pairings:
                    continue
                c2, d2, _ = cpx.pairings[(c, d)]
                key = frozenset(((c, d), (c2, d2)))
                if key not in edges:
                    su, sv = sorted(((c, d), (c2, d2)), key=_slot_key)
                    edges[key] = (cpx.cell_index[su[0]], cpx.cell_index[sv[0]], su, sv)
        self.edges = [edges[k] for k in sorted(edges, key=lambda fs: sorted(map(_slot_key, fs)))]
        self.slot_edge = {}
        for idx, (_, _, su, sv) in enumerate(self.edges):
            self.slot_edge[su] = (idx, +1)
            self.slot_edge[sv] = (idx, -1)
        classes = dict_vertex_classes(cpx)
        self.faces = [[self.slot_edge[(c, EXIT_SIDE[k])] for c, k in vc.corners]
                      for vc in classes if not vc.boundary]
        self.cone_sets = {}
        for pid, vc in mesh.surface.singular_points().items():
            corner = SquareComplex.refined_corner(*vc.corners[0], mesh.n)
            fan = next(fan for fan in classes if corner in fan.corners)
            self.cone_sets[pid] = tuple(dict.fromkeys(cpx.cell_index[c] for c, _ in fan.corners))
        mult = {}
        for u, v, _, _ in self.edges:
            mult[(min(u, v), max(u, v))] = mult.get((min(u, v), max(u, v)), 0) + 1

        def label(vid):
            tile, i, j = cpx.cells[vid]
            head = ",".join(map(str, tile)) if isinstance(tile, tuple) else str(tile)
            return f"{head}:{i}:{j}"

        self.csv = "u,v,multiplicity\n" + "".join(
            f"{label(u)},{label(v)},{m}\n" for (u, v), m in sorted(mult.items()))

    def check(self, mesh):
        """AssertionError unless the array ``mesh`` has this mesh's vertex
        order, edges, slot map, faces, neighbor sets and edge export."""
        assert vertex_cells(mesh) == self.complex.cells
        assert edge_copies(mesh) == self.edges
        assert len(mesh.edges) == len(self.edges)
        assert slot_edges(mesh) == self.slot_edge
        assert set(self.slot_edge) == set(self.complex.pairings)
        assert mesh.faces() == self.faces
        assert mesh.cone_neighbor_sets() == self.cone_sets
        assert mesh.edges_csv() == self.csv

    def transports(self, rep, cuts):
        """Per edge, the product of the generators of the cuts it crosses."""
        edge_cuts = []
        for cut in cuts:
            ecut = {}
            for (tile, d), sign in cut.items():
                for s in range(self.n):
                    idx, direction = self.slot_edge[SquareComplex.refined_side(tile, d, s, self.n)]
                    ecut[idx] = sign * direction
            edge_cuts.append(ecut)
        out = []
        for idx in range(len(self.edges)):
            t = np.eye(rep.rank, dtype=complex)
            for gen, cut in zip(rep.generators, edge_cuts):
                if cut.get(idx, 0) == +1:
                    t = gen @ t
                elif cut.get(idx, 0) == -1:
                    t = gen.conj().T @ t
            out.append(t)
        return out

    def laplacian(self, transports):
        r = len(transports[0]) if transports else 1
        A = np.zeros((r * self.n_vertices, r * self.n_vertices), dtype=complex)
        eye = np.eye(r, dtype=complex)
        for (u, v, _, _), t in zip(self.edges, transports):
            su, sv = u * r, v * r
            A[su:su + r, su:su + r] += eye
            A[sv:sv + r, sv:sv + r] += eye
            A[sv:sv + r, su:su + r] -= t
            A[su:su + r, sv:sv + r] -= t.conj().T
        return A

    def flat_defect(self, transports):
        worst = 0.0
        for face in self.faces:
            word = np.eye(len(transports[0]), dtype=complex)
            for idx, d in face:
                word = (transports[idx] if d == +1 else transports[idx].conj().T) @ word
            worst = max(worst, float(np.max(np.abs(word - np.eye(len(word))))))
        return worst


# -- the CRSF table as records ----------------------------------------------------


@dataclass(slots=True)
class CRSF:
    """A cycle-rooted spanning forest: edges plus one directed cycle per component."""

    edge_indices: tuple
    cycles: list   # one list of (edge_index, direction) per component


def table_cycles(table):
    """The distinct cycles of a `CRSFTable` by id, each one list of
    (edge_index, direction) steps, its walk's pads trimmed."""
    idx, dirs = table.walks
    return [[(i, d) for i, d in zip(row, signs) if d] for row, signs
            in zip(idx.tolist(), dirs.tolist())]


def per_length_walks(table):
    """The cycles of a `CRSFTable` grouped by length, ascending: per length
    the cycles' ids and their unpadded (W, L) walk, each group walked on its
    own, the reference of the table's one padded walk."""
    idx, dirs = table.walks
    lengths = np.count_nonzero(dirs, axis=1)
    out = []
    for length in np.unique(lengths).tolist():
        ids = np.flatnonzero(lengths == length)
        out.append((ids, idx[ids, :length], dirs[ids, :length]))
    return out


def per_length_cycle_weights(conn, table):
    """Reference for `forests._cycle_weights`: each cycle's weight, 2 - w - 1/w
    (rank 1) or 2 - tr w (rank 2), the cycles of one length checked and
    walked together."""
    weights = np.empty(len(table.walks[0]))
    for ids, idx, dirs in per_length_walks(table):
        conn.graph.check_closed(idx, dirs)
        w = bundles.walk_monodromies(conn, idx, dirs)
        if conn.rank == 1:
            z = w[:, 0, 0]
            weights[ids] = (2 - z - 1 / z).real
        else:
            weights[ids] = (2 - np.trace(w, axis1=1, axis2=2)).real
    return weights


def per_length_windings(mesh, table):
    """Reference for `forests._windings`: each cycle's signed crossings of
    each standard cut, one product per cycle length."""
    edge_cuts = mesh.refine_cuts(standard_cuts(mesh.surface))
    windings = np.zeros((len(table.walks[0]), len(edge_cuts)), dtype=np.int64)
    for ids, idx, dirs in per_length_walks(table):
        windings[ids] = (edge_cuts[:, idx] * dirs).sum(axis=2).T
    return windings


def crsf_views(table):
    """The forests of a `CRSFTable` as `CRSF` records, in table order; forests
    with a cycle in common share its list."""
    cycles = table_cycles(table)
    return [CRSF(tuple(edges), [cycles[j] for j in ids if j >= 0])
            for edges, ids in zip(table.edges.tolist(), table.cycle_ids.tolist())]


def crsf_table(crsfs):
    """The `CRSFTable` of a list of `CRSF` records, its cycles interned by
    object (forests without shared cycle lists give each copy its own id)
    and walked in one array padded with edge 0 and direction 0."""
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
    steps = np.zeros((len(cycles), max(map(len, cycles), default=1), 2), dtype=np.intp)
    for row, cyc in zip(steps, cycles):
        row[:len(cyc)] = cyc
    return CRSFTable(np.array([f.edge_indices for f in crsfs], dtype=np.int8), cycle_ids,
                     (steps[..., 0], steps[..., 1]))


# -- the sparse LU -------------------------------------------------------------
#
# log det' without eigenvalues, at any bundle: the reference of the strip route
# (strips.strip_log_det) and of the characters' closed form
# (torsion.CharacterSum), as the dense eigensolve is at small sizes.  The flat
# sections span the kernel, and their values at vertex 0 span the
# connection's ``flat_basis`` W (k columns).  Rotating vertex 0's fiber to
# [W, W-perp] and deleting W's k coordinates leaves a positive definite L_red,
# and log det' L = k log|V| + log det L_red (the matrix-tree theorem for flat
# unitary bundles: a flat section has the same norm at every vertex), from one
# SuperLU factor of it: sum log|U_ii|.  The same factor confirms the kernel: k
# solves give it, and Lanczos on the pseudo-inverse
# (laplacian._largest_eigenvalue) gives the gap; a flat-basis vector outside
# the numerical kernel, or a gap below ZERO_EIGENVALUE_TOL, is KernelMismatch.
# The Lanczos loop is numpy, not ARPACK: numpy and scipy each load their own
# OpenBLAS, and ARPACK's thread pool and numpy's took turns spinning against
# each other on two cores, so a 3 ms solve sometimes took 70 ms.  SuperLU is
# the only scipy code here.  A holonomy within about 1e-8 of trivial gives
# L_red a pivot near 1e-15, and its LU inverse is then so far from Hermitian
# that the Lanczos check of the true Ritz residual refuses it.

# largest r|V| + 2 r^2 |E|, the stored entries before duplicates merge, that
# the sparse LU assembles: the L-shape at n = 128 (983 040) runs, n = 256
# (3.9 million, 3.2 GB at the LU) is refused
SPARSE_BUDGET = 2_000_000


def check_sparse_budget(rank, n_vertices, n_edges):
    """BudgetExceeded when the sparse route would store more than SPARSE_BUDGET
    entries, r|V| + 2 r^2 |E| before duplicates merge."""
    entries = rank * n_vertices + 2 * rank * rank * n_edges
    if entries > SPARSE_BUDGET:
        raise BudgetExceeded(f"sparse budget: r|V| + 2r^2|E| = {entries} > {SPARSE_BUDGET}")


@dataclass
class SparseLogDet:
    """log det' from one sparse LU, with the numbers that show its health."""

    log_det_prime: float
    kernel_dim: int
    kernel_gap: float | None    # lambda_{k+1}; None when the kernel is everything
    nnz: int                    # stored entries of L_red
    factor_nnz: int             # entries SuperLU stores for its L + U factors
    lanczos_steps: int          # applications of L^+ that the gap took


def sparse_log_det(conn):
    """log det' of the twisted Laplacian of ``conn`` by one sparse LU of L_red
    (see the section's notes above), its kernel the connection's
    ``flat_basis``.

    BudgetExceeded beyond SPARSE_BUDGET, checked before anything is
    assembled.  KernelMismatch when the kernel the factor finds disagrees
    with the flat basis: a basis vector that L does not annihilate, or a
    gap below ZERO_EIGENVALUE_TOL.  LanczosNoConvergence when the gap is not
    found within LANCZOS_MAX_STEPS applications of L^+.
    """
    # imported here only: the test modules that never call it load no scipy
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    g = conn.graph
    r = conn.rank
    nv = g.n_vertices
    basis = conn.flat_basis
    k = basis.shape[1]
    size = r * nv
    check_sparse_budget(r, nv, len(g.edge_u))
    if 0 < k < r:
        # gauge vertex 0 by Q* with Q = [W, W-perp]: its first k coordinates are
        # W's (for k = r any basis of the fiber will do, the standard one included)
        q = np.linalg.svd(basis)[0]
        transports = conn.transports.copy()
        into0, out0 = g.edge_v == 0, g.edge_u == 0
        transports[into0] = q.conj().T @ transports[into0]
        transports[out0] = transports[out0] @ q
        conn = bundles.UnitaryConnection(g, r, transports, q.conj().T @ basis)
    rows, cols, vals = laplacian._triplets(conn)
    L = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    L.eliminate_zeros()
    red = L[k:, k:]
    if red.shape[0] == 0:           # one vertex, all flat: det' is the empty product
        return SparseLogDet(k * math.log(nv), k, None, 0, 0, 0)
    try:
        lu = splu(red, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:     # SuperLU: exactly singular
        raise KernelMismatch(f"reduced Laplacian is singular: more than {k} zero modes") from exc
    ld = k * math.log(nv) + math.fsum(np.log(np.abs(lu.U.diagonal())).tolist())

    # kernel: [I; -L_red^{-1} B*] with B = L[:k, k:], made orthonormal
    kernel = np.zeros((size, 0), dtype=red.dtype)
    if k:
        z = -lu.solve(L[:k, k:].conj().T.toarray())
        kernel = np.linalg.qr(np.vstack([np.eye(k, dtype=z.dtype), z]))[0]
        if np.linalg.eigvalsh(kernel.conj().T @ (L @ kernel))[-1] >= laplacian.ZERO_EIGENVALUE_TOL:
            raise KernelMismatch(f"a flat section is not in the numerical kernel: "
                                 f"fewer than {k} zero modes")

    # L^+ b: solve on ker-perp, then project.  The projections, like the
    # Lanczos loop, use einsum, not numpy's BLAS: SuperLU's solves run on
    # scipy's OpenBLAS, and waking numpy's thread pool between them made the
    # loop up to 20 times slower on two cores
    def project(b):
        return b - np.einsum("ij,j...->i...", kernel,
                             np.einsum("ij,i...->j...", kernel.conj(), b))

    def pinv(b):
        x = np.zeros_like(b)
        x[k:] = lu.solve(project(b)[k:])
        return project(x)

    top, steps = laplacian._largest_eigenvalue(pinv, size, red.dtype)
    gap = 1.0 / top
    if gap < laplacian.ZERO_EIGENVALUE_TOL:
        raise KernelMismatch(f"kernel gap {gap:.3e} below {laplacian.ZERO_EIGENVALUE_TOL}: "
                             f"more than {k} zero modes")
    return SparseLogDet(ld, k, gap, red.nnz, lu.nnz, steps)
