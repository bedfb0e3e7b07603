"""Synthetic benchmark generation: placement, netlist synthesis, routing."""

from .variants import BusConfig, add_buses, build_bus_benchmark
from .benchmarks import (
    BENCHMARK_SPECS,
    BenchmarkSpec,
    build_benchmark,
    build_suite,
    scaled_spec,
    spec_by_name,
)
from .netlist_gen import NetlistConfig, generate_nets
from .paper_scale import (
    VPIN_DENSITY_PER_CELL,
    PaperScaleConfig,
    build_paper_scale_view,
    n_vpins,
)
from .placement import PlacementConfig, generate_placement
from .router import CongestionGrid, GlobalRouter, RouterConfig, layer_pairs

__all__ = [
    "BENCHMARK_SPECS",
    "BenchmarkSpec",
    "BusConfig",
    "CongestionGrid",
    "GlobalRouter",
    "NetlistConfig",
    "PaperScaleConfig",
    "PlacementConfig",
    "RouterConfig",
    "VPIN_DENSITY_PER_CELL",
    "add_buses",
    "build_benchmark",
    "build_bus_benchmark",
    "build_paper_scale_view",
    "build_suite",
    "generate_nets",
    "generate_placement",
    "layer_pairs",
    "n_vpins",
    "scaled_spec",
    "spec_by_name",
]
