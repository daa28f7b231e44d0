"""Numerical dynamics of rational maps whose Julia set may lie in a circle."""

from .algebra import (
    INF,
    Moebius,
    Poly,
    RationalMap,
    SpherePoint,
    chordal_distance,
    conjugate,
    critical_points,
    even_part_lift,
)
from .parser import format_map, map_from_coeff_json, parse_map
from .roots import RootSet, all_roots

__all__ = [
    "INF",
    "Moebius",
    "Poly",
    "RationalMap",
    "RootSet",
    "SpherePoint",
    "all_roots",
    "chordal_distance",
    "conjugate",
    "critical_points",
    "even_part_lift",
    "format_map",
    "map_from_coeff_json",
    "parse_map",
]
