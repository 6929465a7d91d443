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

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so `from anglebound
import cardinality_bound` loads `bounds` and not numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": ["BoundReport", "asymptotic_envelope", "cardinality_bound", "eta_of_theta",
               "f_fraction", "theta_d"],
    "constructions": ["EdgeColoring", "LineArrangement", "NBoundsReport", "cover_lines",
                      "ef_doubling", "find_mono_odd_cycle", "n_bounds",
                      "obtuse_triple_witness", "pack_lines"],
    "convexity": ["ConvexPositionVerdict", "ObtuseWitness", "caratheodory_decompose",
                  "is_convex_position", "min_pairwise_dot", "obtuse_witness",
                  "simplex_contains_origin"],
    "curvature": ["Cone", "CurvatureEstimate", "SphericalCap", "cone_cover_certificate",
                  "dekster_radius", "gauss_bonnet_sum", "min_enclosing_cap",
                  "normal_cone_fraction_mc"],
    "errors": ["PreconditionError"],
    "geometry": ["PointSet", "angle_at", "geodesic_diameter", "max_angle", "rays_from"],
    "search": ["SearchResult", "max_cardinality_search", "minimize_max_angle"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
