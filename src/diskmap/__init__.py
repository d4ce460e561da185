"""Discrete conformal maps from triangulated surfaces to the unit disk,
with computable error bounds and triangulation-quality diagnostics."""

__version__ = "0.1.0"

from .beltrami import (
    BeltramiCoefficient,
    assemble_beltrami,
    beltrami_matrix,
    face_weights,
    solve_beltrami,
)
from .bounds import (
    BoundReport,
    BoundsConfig,
    TriangleQuality,
    build_bound_report,
    centered_pinv_norm,
    dirichlet_error_bound,
    gradient_error_terms,
    integrated_error_bound,
    plane_distance_bound,
    quality_report,
    scan_degraded_faces,
    tangent_tilt_bound,
)
from .errors import (
    DegenerateCoefficient,
    DegenerateTriangle,
    DimensionMismatch,
    DiskmapError,
    InsufficientData,
    InvalidTopology,
    NearPole,
    NonFiniteVertex,
    NonFiniteWeight,
    ParseError,
    SingularSystem,
    SolverFailure,
    ZeroReference,
)
from .experiments import (
    ConvergenceRow,
    FitResult,
    emit_report,
    fit_exponent,
    run_sweep,
    solve_hemisphere_case,
)
from .harmonic import (
    dirac_source,
    disk_initial_guess,
    face_nearest,
    solve_weak_lb,
    source_pairs,
)
from .hemisphere import (
    HemisphereMesh,
    HemisphereSpec,
    gen_hemisphere,
    spherical_patch_area,
    stereographic_gradient,
    stereographic_project,
)
from .laplacian import (
    ConformalEnergy,
    CotanLaplacian,
    EnergyBreakdown,
    EnergyEvaluation,
    assemble_laplacian,
    conformal_energy,
    dirichlet_energy,
    energy_gradient,
    face_area_ratios,
    face_image_areas,
    mapped_area,
)
from .mesh import (
    TriangleGeom,
    TriMesh,
    load_mesh,
    save_mesh,
    triangle_metrics,
)
from .minimizer import (
    MinimizerOptions,
    SolveReport,
    minimize,
    normalize_map,
    relative_error,
)
from .surface import ParamSurface, patch_area_quadrature, triangle_rule
