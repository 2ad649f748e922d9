"""Riemann-sum laboratory.

Incomplete (deleted-item) and perturbed-mesh Riemann sums for multiple,
line, and surface integrals, plus two-sided numerical verification of
Green's, Gauss's, and Stokes' theorems with a convergence-study harness.
"""

from .errors import (
    CountOverflow,
    DegenerateBox,
    DegenerateNormal,
    DimensionMismatch,
    EqualPartitionRequired,
    IoFailure,
    MissingTerms,
    NonMonotoneMList,
    OrientationCheckFailed,
    RiemannLabError,
    TagEscape,
    TooFewCells,
    UnboundPlan,
    UnknownScenario,
)
from .geometry import (
    Box,
    DeletionPlan,
    FixedK,
    LargestTerm,
    Logarithmic,
    Partition,
    PerturbedPartition,
    PowerLaw,
    Prefix,
    RandomPick,
    apply_perturbation,
    bind_deletion,
    make_partition,
    make_uniform_partition,
    perturb,
    reflect_partition,
    schedule_count,
    swap_axes_partition,
)
from .fields import (
    ParametricRegion,
    ParametricSurface,
    Path,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    plane_curl,
    reverse_path,
    swap_surface,
)
from .quadrature import FULL, SumEstimate, VariantSpec, region_sum, variant_sum
from .curve_surface import line_sum, surface_sum
from .theorems import TheoremReport, gauss_check, green_check, stokes_check
from .scenarios import Scenario, get_scenario, register_scenario, scenario_names
from .harness import (
    ConvergenceReport,
    SweepRow,
    emit_csv,
    evaluate_scenario,
    render_csv,
    run_sweep,
)
from .summation import neumaier_sum

__version__ = "0.1.0"
