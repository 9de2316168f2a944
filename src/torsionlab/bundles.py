"""Flat unitary vector bundles on mesh graphs.

A connection is one unitary per edge copy, stored for the canonical
direction u -> v; the reverse transport is the inverse.  Flatness means the
monodromy around every face of the subtile complex (including the rings
around cone points) is the identity.

A walk is a pair of (W, L) integer arrays, edge indices and directions (+1
along u -> v, -1 against, 0 on the pads past a row's end), one row per walk;
`walk_monodromies` multiplies the transports along walks, for faces, CRSF
cycles and loops alike.  `flat_check` walks only the faces through an edge
whose transport is not exactly I, so its work follows the holonomy: none
for the trivial bundle, the faces along the cuts for a cut-built one.

Commuting generators split the bundle into characters, rank-1 bundles of one
phase per generator (HolonomyRepresentation.characters); on a torus or a
cylinder every flat bundle does, and torsion.CharacterSum reads the split.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .complexes import E, N
from .errors import BadCuts, NonUnitaryGauge, NotAClosedWalk, RankMismatch
from .surfaces import SEPARABLE_KINDS, standard_cuts

UNITARY_TOL = 1e-12
FLATNESS_TOL = 1e-10
# a singular value of the generators' stacked g - I below this is a flat
# section: the one kernel rule, for meshes and closed forms alike
FLAT_SECTION_TOL = 1e-10


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

    @classmethod
    def from_phases(cls, phases):
        """The rank-1 representation with generators exp(i phase)."""
        return cls(rank=1, generators=[[[cmath.exp(1j * p)]] for p in phases])

    def characters(self):
        """(rank, generators) array of phases in [-pi, pi]: row j is character j,
        the rank-1 bundle of one phase per generator, and the bundle is their
        direct sum.  Commuting unitaries share an eigenbasis, which one eigh of
        a generic Hermitian combination of them finds; each generator's
        diagonal in that basis gives its phases.  BadCuts when two generators
        do not commute to FLATNESS_TOL: on a torus their cuts cross, and the
        cut-built connection would not be flat."""
        gens = self.generators
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                defect = float(np.max(np.abs(g @ h - h @ g)))
                if defect > FLATNESS_TOL:
                    raise BadCuts(f"generators do not commute (defect {defect:.2e}); "
                                  "only commuting generators split into characters")
        if not gens:
            return np.zeros((self.rank, 0))
        # fixed generic weights on the Hermitian parts g + g* and i(g - g*)
        weights = np.random.default_rng(0).standard_normal((len(gens), 2))
        combo = sum(x * (g + g.conj().T) + y * 1j * (g - g.conj().T)
                    for (x, y), g in zip(weights, gens))
        basis = np.linalg.eigh(combo)[1]
        return np.stack([np.angle(np.einsum("ji,jk,ki->i", basis.conj(), g, basis))
                         for g in gens], axis=1)

    def to_json(self):
        return {
            "rank": self.rank,
            "generators": [[[[z.real, z.imag] for z in row] for row in g] for g in self.generators],
        }


class UnitaryConnection:
    """Rank-r unitary transports on the edges of a mesh graph, with its flat
    sections (the Laplacian's kernel) decided from the holonomy by whichever
    constructor below builds it.

    ``transports`` is an (E, r, r) array: edge k's transport from the fiber
    at its u to the fiber at its v.  ``flat_basis`` is an orthonormal (r, k)
    basis of the flat sections' values at vertex 0; a flat section is fixed
    by its value there, so k is the kernel dimension.
    """

    def __init__(self, graph, rank, transports, flat_basis):
        self.graph = graph
        self.rank = rank
        self.flat_basis = np.asarray(flat_basis)
        if self.flat_basis.ndim != 2 or self.flat_basis.shape[0] != rank:
            raise RankMismatch(f"flat basis of shape {self.flat_basis.shape} in a rank-{rank} "
                               "bundle; it must be rank x k")
        self.transports = np.asarray(transports, dtype=complex)
        if self.transports.shape != (len(graph.edges), rank, rank):
            raise RankMismatch(f"transports of shape {self.transports.shape}; a rank-{rank} "
                               f"bundle needs one {rank} x {rank} transport per edge copy")

    @property
    def flat_sections(self):
        """Dimension of the flat sections, the Laplacian's kernel."""
        return self.flat_basis.shape[1]


def trivial_connection(graph, rank=1):
    eye = np.eye(rank, dtype=complex)
    return UnitaryConnection(graph, rank, np.broadcast_to(eye, (len(graph.edges), rank, rank)),
                             eye)


def connection_from_holonomy(graph, rep, cuts=None):
    """Flat connection realizing ``rep``: edges crossing cut k carry generator k.

    ``cuts`` are tile-level crossing maps (see surfaces.standard_cuts); when
    omitted they default to the standard cuts of the underlying surface.  An
    edge crossing several cuts carries the product of their generators, the
    first cut's applied first; an edge crossing against a cut carries the
    generator's inverse.
    """
    if cuts is None:
        cuts = standard_cuts(graph.surface)
    if len(cuts) != len(rep.generators):
        raise BadCuts(f"{len(cuts)} cuts for {len(rep.generators)} generators")
    r = rep.rank
    transports = np.tile(np.eye(r, dtype=complex), (len(graph.edges), 1, 1))
    for gen, cut in zip(rep.generators, graph.refine_cuts(cuts)):
        idx = np.flatnonzero(cut)
        step = np.where((cut[idx] > 0)[:, None, None], gen, gen.conj().T)
        transports[idx] = step @ transports[idx]
    # in this gauge a flat section is one vector of the generators' fixed space
    conn = UnitaryConnection(graph, r, transports, flat_basis(rep))
    ok, worst = flat_check(conn)
    if not ok:
        raise BadCuts(
            f"cut-built connection is not flat (worst face defect {worst:.2e}); "
            "intersecting cuts require commuting generators"
        )
    return conn


def gauge_transform(conn, u):
    """New connection with transports u(v') phi u(v)^{-1} and flat basis
    u(0) W: the gauge moves the flat sections with it.

    ``u`` maps vertex index -> unitary; arrays and dicts both work.
    """
    g = conn.graph
    mats = np.stack([_check_unitary(u[vid], what=f"gauge at vertex {vid}")
                     for vid in range(g.n_vertices)])
    transports = mats[g.edge_v] @ conn.transports @ mats[g.edge_u].conj().swapaxes(-1, -2)
    return UnitaryConnection(g, conn.rank, transports, mats[0] @ conn.flat_basis)


def walk_monodromies(conn, idx, dirs):
    """(W, r, r) ordered products of transports along the walks (idx, dirs),
    the first step's transport applied first; a step against an edge's
    direction takes its transport's inverse, and a pad step (direction 0) I,
    which keeps the word's bits.  ``MeshGraph.check_closed`` checks closure."""
    steps = conn.transports[idx]                    # (W, L, r, r)
    back = dirs < 0
    steps[back] = steps[back].conj().swapaxes(-1, -2)
    steps[dirs == 0] = np.eye(conn.rank)
    word = steps[:, 0]
    for k in range(1, steps.shape[1]):
        word = steps[:, k] @ word
    return word


def cycle_monodromy(conn, cycle):
    """Ordered product of transports along a closed directed edge sequence.

    ``cycle``: list of (edge_index, direction); step k must start where
    step k-1 ended.
    """
    if not cycle:
        raise NotAClosedWalk("empty cycle")
    steps = np.array([cycle])
    idx, dirs = steps[..., 0], steps[..., 1]
    conn.graph.check_closed(idx, dirs)
    return walk_monodromies(conn, idx, dirs)[0]


def flat_check(conn):
    """(all faces flat to FLATNESS_TOL?, worst face defect).

    Every face is built, and so checked to be a closed walk, but only the
    faces through an edge whose transport is not exactly I are walked, those
    of one length together: a face of identity transports has monodromy
    exactly I and defect exactly 0.0, so the result is that of walking them
    all.  The trivial connection walks no face; a cut-built one, only the
    faces along its cuts."""
    worst = 0.0
    eye = np.eye(conn.rank)
    moved = np.any(conn.transports != eye, axis=(1, 2))
    for _, idx, dirs in conn.graph.face_cycles().values():
        rows = np.flatnonzero(moved[idx].any(axis=1))
        if len(rows):
            word = walk_monodromies(conn, idx[rows], dirs[rows])
            worst = max(worst, float(np.max(np.abs(word - eye))))
    return worst <= FLATNESS_TOL, worst


def flat_basis(rep):
    """Orthonormal (rank, k) basis of the joint fixed subspace of the
    generators: the right singular vectors of the stacked g - I whose
    singular values are below FLAT_SECTION_TOL; real for real generators.
    At rank 1 the stacked g - I is one column, whose one singular value is
    its norm, and the fiber's basis is 1."""
    if not rep.generators:
        return np.eye(rep.rank)
    if rep.rank == 1:
        norm = math.hypot(*(abs(g[0, 0] - 1) for g in rep.generators))
        return np.ones((1, int(norm < FLAT_SECTION_TOL)))
    stacked = np.vstack([g - np.eye(rep.rank) for g in rep.generators])
    if not np.any(stacked.imag):
        stacked = stacked.real
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    return vh[s < FLAT_SECTION_TOL].conj().T


def flat_sections_dim(rep):
    """Dimension of the joint fixed subspace of the generators."""
    return flat_basis(rep).shape[1]


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
    A surface without standard cuts gets no generator, the trivial bundle,
    which is the only flat bundle when its Euler characteristic is at least 1
    (a disk or a sphere: half-turns keep the orientation); below that it has
    loops the draw cannot see, so BadCuts.
    """
    n_gens = len(standard_cuts(surface))
    if n_gens == 0 and surface.complex.euler_characteristic() < 1:
        raise BadCuts(f"{surface.name} has loops but no standard cuts to draw holonomy on")
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

    A straight loop along side a (generator 0) or side b (generator 1) of a
    SEPARABLE_KINDS surface; BadCuts unless that side is periodic.
    """
    surf = mesh.surface
    periodic = SEPARABLE_KINDS.get(surf.kind, (False, False))
    if generator not in (0, 1) or not periodic[generator]:
        raise BadCuts(f"{surf.name} has no periodic side for generator {generator}")
    a = surf.params["a"]
    b = surf.params["b"]
    n = mesh.n
    if generator == 0:
        side = E
        vids = [mesh.vertex_id((tile, 0), i, 0) for tile in range(a) for i in range(n)]
    else:
        side = N
        vids = [mesh.vertex_id((0, tile), 0, j) for tile in range(b) for j in range(n)]
    slots = 4 * np.array(vids) + side
    return list(zip(mesh.slot_edge_index[slots].tolist(), mesh.slot_direction[slots].tolist()))
