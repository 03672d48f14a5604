"""Numerical laboratory for Fourier analysis of convex planar bodies:
transforms of indicator functions, zero sets, exponential-basis candidates,
lattice tilings, and machine-checkable non-spectrality certificates."""

__version__ = "0.1.0"

from . import errors, heights
from .geometry import (AffineMap, ConvexBody, ConvexPolygon, GraphBody,
                       Lattice, Point2, Z2, area, centroid, decompose_caps,
                       disc, height_profile, is_symmetric, measures,
                       normalize_edge_to_standard, point_in_polygon,
                       regular_polygon, unit_square, validate_polygon)
from .fourier import (CapScanResult, FourierSample, cap_lower_bound_scan,
                      decay_diagnostic, ft_body, ft_quadrature, grad_ft,
                      height_fourier, transform_batch)
from .zeroset import (AlignmentReport, ZeroPoint, ball_zero_alignment,
                      cap_slope, grid_distance, select_scales,
                      slab_zero_alignment, zeros_on_segment)
from .spectra import (DensityReport, SpectrumCandidate, dual_lattice,
                      landau_density, lattice_points_in_ball,
                      orthogonality_check, parseval_deficiency,
                      separation_check, spectral_gap_check)
from .tiling import TilingVerdict, classify, tiling_lattice, verify_tiling
from .obstruction import (Certificate, FeaturePoint, check_certificate,
                          constraint_density, feature_points,
                          nonspectral_certificate, vertex_constraint_vectors)

__all__ = [
    "AffineMap", "AlignmentReport", "CapScanResult", "Certificate",
    "ConvexBody", "ConvexPolygon", "DensityReport", "FeaturePoint",
    "FourierSample", "GraphBody", "Lattice", "Point2", "SpectrumCandidate",
    "TilingVerdict", "Z2", "ZeroPoint", "area", "ball_zero_alignment",
    "cap_lower_bound_scan", "cap_slope", "centroid", "check_certificate",
    "classify", "constraint_density", "decay_diagnostic", "decompose_caps",
    "disc", "dual_lattice", "errors", "feature_points", "ft_body",
    "ft_quadrature", "grad_ft", "grid_distance", "height_fourier",
    "height_profile", "heights", "is_symmetric", "landau_density",
    "lattice_points_in_ball", "measures", "nonspectral_certificate",
    "normalize_edge_to_standard", "orthogonality_check",
    "parseval_deficiency", "point_in_polygon", "regular_polygon",
    "select_scales", "separation_check", "slab_zero_alignment",
    "spectral_gap_check", "tiling_lattice", "transform_batch", "unit_square",
    "validate_polygon", "verify_tiling", "vertex_constraint_vectors",
    "zeros_on_segment",
]
