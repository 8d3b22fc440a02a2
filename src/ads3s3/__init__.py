"""Constant-metric closed strings on AdS3 x S3.

Library for constructing the finite-parameter family of string solutions
with constant induced metric on both group-manifold projections, verifying
their geometric properties numerically, solving the invariant bridge between
the AdS and sphere sectors, computing isometry charges, and realizing the
particle and string symplectic structures.
"""

from .algebra import (
    AdsAlgebraElement,
    AdsGroupElement,
    DegenerateConfigurationError,
    SectorMismatchError,
    SphereAlgebraElement,
    SphereGroupElement,
    UnitSphereVector,
    UnitTimelikeVector,
    ValidationError,
    adjoint,
    ads_basis,
    boost,
    exp_algebra,
    inner,
    normalized_commutator,
    sphere_basis,
    to_embedding,
)
from .bridge import InvariantBlock, RegionError, admissible, bridge, feasibility_general, scan_region
from .charges import ChargeSet, charges_analytic, charges_numeric, currents
from .geometry import (
    InducedMetric,
    eom_residual,
    gauge_residual,
    induced_metric_analytic,
    induced_metric_numeric,
    mean_curvatures,
    verify_solution,
)
from .solutions import (
    CanonicalAngles,
    SimpleFamilyPoint,
    SolutionParams,
    apply_isometry,
    canonical_form,
    embedding_surface,
    evaluate,
    family_solution,
    make_solution,
    winding_numbers,
)
from .symplectic import (
    ParticleChart,
    ParticleChartPoint,
    StringChart,
    StringChartPoint,
    TwoFormMatrix,
    poisson_bracket,
)

__version__ = "0.1.0"
