"""Layout substrate: geometry, technology, cells, netlists, routed designs."""

from .cells import (
    CellLibrary,
    CellMaster,
    PinDirection,
    PinSpec,
    make_standard_library,
)
from .design import Design, Route, RouteSegment, Via, route_connectivity_ok
from .drc import Violation, assert_clean, check_design
from .visualize import layer_usage_chart, placement_map, vpin_map, wire_density_map
from .geometry import Point, Rect, bounding_box, centroid, hpwl, snap, snap_point
from .io import design_from_dict, design_to_dict, load_design, save_design
from .netlist import CellInstance, Net, Netlist, PinRef
from .technology import (
    Direction,
    MetalLayer,
    Technology,
    make_default_technology,
)

__all__ = [
    "CellInstance",
    "CellLibrary",
    "CellMaster",
    "Design",
    "Direction",
    "MetalLayer",
    "Net",
    "Netlist",
    "PinDirection",
    "PinRef",
    "PinSpec",
    "Point",
    "Rect",
    "Route",
    "RouteSegment",
    "Technology",
    "Via",
    "Violation",
    "assert_clean",
    "bounding_box",
    "centroid",
    "check_design",
    "design_from_dict",
    "design_to_dict",
    "hpwl",
    "layer_usage_chart",
    "load_design",
    "make_default_technology",
    "make_standard_library",
    "placement_map",
    "route_connectivity_ok",
    "save_design",
    "snap",
    "snap_point",
    "vpin_map",
    "wire_density_map",
]
