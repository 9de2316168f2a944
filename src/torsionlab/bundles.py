"""Flat unitary vector bundles on mesh graphs.

A connection is one unitary per edge copy, stored for the canonical
direction u -> v; the reverse transport is the inverse.  Flatness means the
monodromy around every face of the subtile complex (including the rings
around cone points) is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import E, N
from .errors import BadCuts, NonUnitaryGauge, NotAClosedWalk, RankMismatch
from .surfaces import standard_cuts
from .torsion import FLAT_SECTION_TOL

UNITARY_TOL = 1e-12
FLATNESS_TOL = 1e-10


def _check_unitary(m, what="matrix"):
    m = np.asarray(m, dtype=complex)
    r = m.shape[0]
    if m.shape != (r, r) or np.max(np.abs(m.conj().T @ m - np.eye(r))) > UNITARY_TOL:
        raise NonUnitaryGauge(f"{what} is not unitary to {UNITARY_TOL}")
    return m


@dataclass
class HolonomyRepresentation:
    """Unitary rank x rank matrices assigned to the fundamental-group generators."""

    rank: int
    generators: list

    def __post_init__(self):
        self.generators = [np.asarray(g, dtype=complex) for g in self.generators]
        for g in self.generators:
            if g.shape != (self.rank, self.rank):
                raise RankMismatch(f"generator of shape {g.shape} in a rank-{self.rank} bundle")
            _check_unitary(g, what="generator")

    @classmethod
    def from_json(cls, spec):
        """``spec["rank"]`` defaults to the generators' size (1 without generators)."""
        gens = [np.array([[complex(re, im) for re, im in row] for row in g], dtype=complex)
                for g in spec["generators"]]
        return cls(rank=int(spec.get("rank", len(gens[0]) if gens else 1)), generators=gens)

    def to_json(self):
        return {
            "rank": self.rank,
            "generators": [[[[z.real, z.imag] for z in row] for row in g] for g in self.generators],
        }


class UnitaryConnection:
    """Rank-r unitary transports on the edges of a mesh graph, with the
    dimension of its flat sections (the Laplacian's kernel) decided from the
    holonomy by whichever constructor below builds it."""

    def __init__(self, graph, rank, transports, flat_sections):
        self.graph = graph
        self.rank = rank
        self.flat_sections = flat_sections
        self.transports = [np.asarray(t, dtype=complex) for t in transports]
        if len(self.transports) != len(graph.edges):
            raise ValueError("one transport per edge copy required")

    def transport(self, edge_index, direction):
        """Transport along edge ``edge_index``; +1 is the stored u -> v direction."""
        t = self.transports[edge_index]
        return t if direction == +1 else t.conj().T


def trivial_connection(graph, rank=1):
    eye = np.eye(rank, dtype=complex)
    return UnitaryConnection(graph, rank, [eye] * len(graph.edges), rank)


def connection_from_holonomy(graph, rep, cuts=None):
    """Flat connection realizing ``rep``: edges crossing cut k carry generator k.

    ``cuts`` are tile-level crossing maps (see surfaces.standard_cuts); when
    omitted they default to the standard cuts of the underlying surface.
    """
    if cuts is None:
        cuts = standard_cuts(graph.surface)
    if len(cuts) != len(rep.generators):
        raise BadCuts(f"{len(cuts)} cuts for {len(rep.generators)} generators")
    for cut in cuts:
        for slot in cut:
            if not graph.surface.complex.is_paired(*slot):
                raise BadCuts(f"cut slot {slot} is a boundary side")
    edge_cuts = graph.refine_cuts(cuts)
    eye = np.eye(rep.rank, dtype=complex)
    transports = []
    for idx in range(len(graph.edges)):
        t = eye
        for k, cut in enumerate(edge_cuts):
            s = cut.get(idx, 0)
            if s == +1:
                t = rep.generators[k] @ t
            elif s == -1:
                t = rep.generators[k].conj().T @ t
        transports.append(t)
    conn = UnitaryConnection(graph, rep.rank, transports, flat_sections_dim(rep))
    ok, worst = flat_check(conn)
    if not ok:
        raise BadCuts(
            f"cut-built connection is not flat (worst face defect {worst:.2e}); "
            "intersecting cuts require commuting generators"
        )
    return conn


def gauge_transform(conn, u):
    """New connection with transports u(v') phi u(v)^{-1} and the same
    (gauge-invariant) flat-section count.

    ``u`` maps vertex index -> unitary; arrays and dicts both work.
    """
    r = conn.rank
    mats = []
    for vid in range(conn.graph.n_vertices):
        g = u[vid]
        mats.append(_check_unitary(g, what=f"gauge at vertex {vid}"))
    transports = []
    for idx, e in enumerate(conn.graph.edges):
        transports.append(mats[e.v] @ conn.transports[idx] @ mats[e.u].conj().T)
    return UnitaryConnection(conn.graph, r, transports, conn.flat_sections)


def cycle_monodromy(conn, cycle):
    """Ordered product of transports along a closed directed edge sequence.

    ``cycle``: list of (edge_index, direction); step k must start where
    step k-1 ended.
    """
    if not cycle:
        raise NotAClosedWalk("empty cycle")
    g = conn.graph
    idx0, d0 = cycle[0]
    e0 = g.edges[idx0]
    pos = e0.v if d0 == +1 else e0.u
    start = e0.u if d0 == +1 else e0.v
    word = conn.transport(idx0, d0)
    for idx, d in cycle[1:]:
        e = g.edges[idx]
        tail = e.u if d == +1 else e.v
        head = e.v if d == +1 else e.u
        if tail != pos:
            raise NotAClosedWalk(f"edge {idx} does not start at vertex {pos}")
        word = conn.transport(idx, d) @ word
        pos = head
    if pos != start:
        raise NotAClosedWalk("walk does not return to its starting vertex")
    return word


def flat_check(conn):
    """(all faces flat to FLATNESS_TOL?, worst face defect)."""
    worst = 0.0
    eye = np.eye(conn.rank)
    for face in conn.graph.faces():
        m = cycle_monodromy(conn, face)
        worst = max(worst, float(np.max(np.abs(m - eye))))
    return worst <= FLATNESS_TOL, worst


def flat_sections_dim(rep):
    """Dimension of the joint fixed subspace of the generators."""
    if not rep.generators:
        return rep.rank
    eye = np.eye(rep.rank)
    stacked = np.vstack([g - eye for g in rep.generators])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s < FLAT_SECTION_TOL))


# -- random unitaries ---------------------------------------------------------


def random_unitary(rng, r):
    """Haar unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) / math.sqrt(2)
    q, rr = np.linalg.qr(z)
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def random_su2(rng):
    """Haar SU(2) from a normalized 4-dimensional Gaussian quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex)


def random_flat_representation(surface, rank, rng):
    """Random unitary representation giving a flat connection on ``surface``.

    Cylinder: one free generator.  Torus: the two cut circles intersect, so
    the generators must commute; they are drawn as a conjugated diagonal pair.
    """
    n_gens = len(standard_cuts(surface))
    if rank == 1:
        gens = [np.array([[np.exp(2j * math.pi * rng.random())]]) for _ in range(n_gens)]
        return HolonomyRepresentation(rank=1, generators=gens)
    if n_gens <= 1:
        if rank == 2:
            gens = [random_su2(rng) for _ in range(n_gens)]
        else:
            gens = [random_unitary(rng, rank) for _ in range(n_gens)]
        return HolonomyRepresentation(rank=rank, generators=gens)
    if rank == 2:
        g = random_su2(rng)
        gens = []
        for _ in range(n_gens):
            th = 2 * math.pi * rng.random()
            gens.append(g @ np.diag([np.exp(1j * th), np.exp(-1j * th)]) @ g.conj().T)
        return HolonomyRepresentation(rank=2, generators=gens)
    g = random_unitary(rng, rank)
    gens = []
    for _ in range(n_gens):
        phases = np.exp(2j * math.pi * rng.random(rank))
        gens.append(g @ np.diag(phases) @ g.conj().T)
    return HolonomyRepresentation(rank=rank, generators=gens)


def generator_loop(mesh, generator=0):
    """A directed edge cycle crossing the given standard cut exactly once.

    Works for the torus and cylinder constructors: a straight loop along the
    periodic direction (generator 0) or the vertical direction (generator 1).
    """
    surf = mesh.surface
    a = surf.params["a"]
    b = surf.params["b"]
    n = mesh.n
    if generator == 0:
        return [mesh.slot_edge[(((tile, 0), i, 0), E)] for tile in range(a) for i in range(n)]
    if surf.kind != "torus":
        raise BadCuts("vertical generator exists only on the torus")
    return [mesh.slot_edge[(((0, tile), 0, j), N)] for tile in range(b) for j in range(n)]
