"""Numerical Finsler geometry.

Truncated Taylor-jet arithmetic drives exact pointwise evaluation of the
fundamental tensor, spray, Riemann operator, flag curvature, distortion,
S-curvature, mean Cartan torsion, and mean Landsberg curvature for any
positively 1-homogeneous metric function.  A metric zoo, geodesic flow
with transport diagnostics, and a declarative claim harness sit on top.
"""

from .errors import (DegenerateFlagError, DegenerateMetricError, DomainError,
                     FinslerError, ImplicitSolveError, InvalidParameterError,
                     InvalidProfileError, OutOfOrderError,
                     QuadratureToleranceError, ResolutionError,
                     UnsupportedOrderError)
from .jets import Jet, deriv, extract, jexp, jlog, jpow, jsqrt, seed, value
from .domains import Ball, Box, DiskCylinder, Domain
from .geometry import (CartanNormResult, MetricField, TangentSample,
                       cartan_norm, distortion, flag_curvature,
                       fundamental_tensor, mean_cartan, mean_landsberg,
                       riemann, s_curvature, spray, volume_density)
from .zoo import (KINDS, MetricSpec, ProductProfile, build_metric,
                  default_specs, epsilon_profile, linear_profile,
                  make_euclidean, make_funk_implicit, make_funk_shifted,
                  make_incomplete_slab, make_minkowski, make_randers,
                  make_riemannian, make_szabo_epsilon, make_szabo_product)
from .flow import (GeodesicTrace, TorsionTrace, covariant_derivative_along,
                   growth_estimate, integrate_geodesic, jacobi_propagate,
                   torsion_trace, trace_to_csv)
from .verify import (Claim, ClaimReport, SamplePlan, SuiteReport,
                     closed_one_form_check, load_claims, run_claim, run_suite)

__version__ = "0.1.0"
