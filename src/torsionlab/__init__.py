"""torsionlab: twisted graph Laplacians on square-tiled surfaces.

Builds discretizations of square-tiled flat surfaces carrying flat unitary
bundles, computes twisted determinants and their renormalized limits, and
verifies at desk scale the identities tying spanning trees, cycle-rooted
spanning forests, discrete spectra and zeta-regularized determinants.
"""

__version__ = "0.1.0"

from . import errors
from .surfaces import (SquareTiledSurface, GeometrySummary, build_surface,
                       geometry_summary, rescale, rectangle, torus, cylinder,
                       lshape, slit, cone_model, angle_model, standard_cuts,
                       gauss_bonnet_defect)
from .meshes import MeshGraph, discretize, cone_neighbors
from .bundles import (HolonomyRepresentation, UnitaryConnection,
                      trivial_connection, connection_from_holonomy,
                      gauge_transform, cycle_monodromy, flat_check,
                      flat_sections_dim, random_su2, random_unitary,
                      random_flat_representation, generator_loop)
from .laplacian import (HermitianSpectrum, assemble, spectrum, log_det_prime,
                        discrete_zeta)
from .forests import (CRSFTable, count_spanning_trees, enumerate_crsfs,
                      crsf_weighted_sum, crsf_identity, noncontractible_expectation)
from .meshspectra import (CATALAN, FourierProfile,
                          rectangle_mesh_spectrum, torus_mesh_spectrum,
                          closed_form_log_det,
                          sin_product, sin_product_direct,
                          sin_product_uncorrected, szego_trace_direct,
                          szego_expansion_predicted)
from .torsion import (SeparableSurface, zeta_zero, dedekind_eta,
                      torus_torsion, rectangle_torsion)
from .experiments import (RenormSeries, MeshSource, BumpProfile,
                          renormalized_logdet, convergence_study,
                          dense_renorm_series, model_correction_series,
                          ratio_study, uniform_weyl_check, weyl_slope,
                          build_bump, embedding_check, richardson_extrapolate)
