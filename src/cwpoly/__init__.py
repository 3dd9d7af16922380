"""Constant-width polygons in polygonal Minkowski planes.

Any planar convex polygon has constant width in exactly one polygonal norm
(up to scale).  This package constructs that norm's unit ball and its dual,
then computes and cross-verifies the derived objects: central equidistant,
equidistant family, dual-ball lengths, curvature radii, evolute, involute,
signed areas, and the iterated involute sequence converging to the central
point of the polygon.
"""
from .backend import FLOAT, RATIONAL, Backend, FloatBackend, RationalBackend, get_backend
from .ball import (
    MinkowskiPlane,
    WidthResult,
    ball_from_dual,
    build_plane,
    dual_ball,
    is_constant_width,
    reorder_parallel,
    support,
    unit_ball,
    width,
)
from .core import (
    CenteredBall,
    ConvexPolygon,
    GeometryError,
    IdentityError,
    InputError,
    PairedPolygon,
    RegionTest,
    Vec2,
    chord_count,
    det,
    dot,
    minkowski_sum,
    mixed_area,
    point_region_test,
    polygon_area,
    vec,
)
from .cw import (
    BarbierCheck,
    CentralEquidistant,
    barbier,
    central_equidistant,
    chakerian_invariant,
    cusps_of_central,
    equidistant,
    half_arc_length,
    half_area_identity,
    min_convex_c,
    v_length,
)
from .evolute import (
    ContainmentResult,
    Evolute,
    Involute,
    containment_check,
    dual_involute,
    evolute,
    evolute_cusps,
    involute,
    signed_area,
    signed_area_gap,
)
from .iterate import (
    IterationStep,
    IterationTrace,
    check_nesting,
    check_trace,
    iterate_involutes,
    width_family,
)
from .svgout import Layer, render_svg
from .verify import Check, Report, run_verify

__version__ = "0.1.0"
