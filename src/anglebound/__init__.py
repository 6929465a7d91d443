"""Angle-bounded point sets: how many points fit under a maximum-angle cap.

Core surface:

- geometry: PointSet, angle_at, max_angle, geodesic_diameter, rays_from
- bounds: theta_d, eta_of_theta, f_fraction, cardinality_bound, asymptotic_envelope
- convexity: is_convex_position, caratheodory_decompose, obtuse_witness
- curvature: normal_cone_fraction_mc, gauss_bonnet_sum, dekster_radius,
  min_enclosing_cap, cone_cover_certificate
- constructions: pack_lines, cover_lines, ef_doubling, find_mono_odd_cycle,
  obtuse_triple_witness, n_bounds
- search: minimize_max_angle, max_cardinality_search
"""

__version__ = "0.1.0"

from .bounds import (  # noqa: F401
    BoundReport,
    asymptotic_envelope,
    cardinality_bound,
    eta_of_theta,
    f_fraction,
    theta_d,
)
from .constructions import (  # noqa: F401
    EdgeColoring,
    LineArrangement,
    NBoundsReport,
    cover_lines,
    ef_doubling,
    find_mono_odd_cycle,
    n_bounds,
    obtuse_triple_witness,
    pack_lines,
)
from .convexity import (  # noqa: F401
    ConvexPositionVerdict,
    ObtuseWitness,
    caratheodory_decompose,
    is_convex_position,
    min_pairwise_dot,
    obtuse_witness,
    simplex_contains_origin,
)
from .curvature import (  # noqa: F401
    Cone,
    CurvatureEstimate,
    SphericalCap,
    cone_cover_certificate,
    dekster_radius,
    gauss_bonnet_sum,
    min_enclosing_cap,
    normal_cone_fraction_mc,
)
from .errors import PreconditionError  # noqa: F401
from .geometry import (  # noqa: F401
    PointSet,
    angle_at,
    geodesic_diameter,
    max_angle,
    rays_from,
)
from .search import SearchResult, max_cardinality_search, minimize_max_angle  # noqa: F401
