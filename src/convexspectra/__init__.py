"""Numerical laboratory for Fourier analysis of convex planar bodies:
transforms of indicator functions, zero sets, exponential-basis candidates,
lattice tilings, and machine-checkable non-spectrality certificates."""

__version__ = "0.1.0"

from . import errors, heights
from .geometry import (ConvexBody, ConvexPolygon, GraphBody, Lattice, Point2,
                       as_polygon, centroid, disc, graph_heights, is_symmetric,
                       measures, normalize_edge_to_standard, regular_polygon,
                       upper_cap, validate_polygon)
from .fourier import (CapScanResult, FourierSample, cap_lower_bound_scan,
                      ft_body, ft_quadrature, grad_ft, height_fourier,
                      transform_batch)
from .zeroset import (AlignmentReport, ZeroPoint, ball_zero_alignment,
                      cap_slope, grid_distance, select_scales,
                      slab_zero_alignment, zeros_on_segment)
from .spectra import (DensityReport, landau_density, lattice_points_in_ball,
                      orthogonality_check, spectral_gap_check)
from .tiling import TilingVerdict, classify, tiling_lattice, verify_tiling
from .obstruction import (Certificate, check_certificate,
                          nonspectral_certificate, witness_kind)

__all__ = [
    "AlignmentReport", "CapScanResult", "Certificate", "ConvexBody",
    "ConvexPolygon", "DensityReport", "FourierSample", "GraphBody", "Lattice",
    "Point2", "TilingVerdict", "ZeroPoint", "as_polygon",
    "ball_zero_alignment", "cap_lower_bound_scan", "cap_slope", "centroid",
    "check_certificate", "classify", "disc", "errors",
    "ft_body", "ft_quadrature", "grad_ft", "graph_heights", "grid_distance",
    "height_fourier", "heights", "is_symmetric", "landau_density",
    "lattice_points_in_ball", "measures", "nonspectral_certificate",
    "normalize_edge_to_standard", "orthogonality_check", "regular_polygon",
    "select_scales", "slab_zero_alignment", "spectral_gap_check",
    "tiling_lattice", "transform_batch", "upper_cap", "validate_polygon",
    "verify_tiling", "witness_kind", "zeros_on_segment",
]
