"""Numerical dynamics of rational maps whose Julia set may lie in a circle."""

from .algebra import (
    INF,
    Moebius,
    Poly,
    RationalMap,
    SpherePoint,
    chordal_distance,
    compose,
    conjugate,
    critical_points,
    derivative,
    even_part_lift,
)
from .parser import format_map, map_from_coeff_json, parse_map
from .roots import RootSet, all_roots, newton_refine

__all__ = [
    "INF",
    "Moebius",
    "Poly",
    "RationalMap",
    "RootSet",
    "SpherePoint",
    "all_roots",
    "chordal_distance",
    "compose",
    "conjugate",
    "critical_points",
    "derivative",
    "even_part_lift",
    "format_map",
    "map_from_coeff_json",
    "newton_refine",
    "parse_map",
]
