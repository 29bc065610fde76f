"""Incremental sphere-graph free-space maps for safety-aware path planning."""

from .core import BuildParams, IterationReport, Portal, Segment, SphereMap
from .errors import BadMagicError, ConfigError, ParseError, PayloadError, TruncatedError
from .geometry import enclosing_sphere
from .ltv import (LtvMap, LtvSegment, decode, encode, encoded_size, extract,
                  fit_box, misclassified_fraction, size_report)
from .mission import (MissionResult, MissionTrace, build_spheremap, reveal,
                      run_mission, sweep_positions)
from .planner import (ClearanceField, PlannerParams, PlanResult, astar_nodes,
                      astar_sphere_graph, evaluate_path, grid_astar, plan_cached,
                      rrt_star, transition_cost)
from .smap_io import load_map, save_map
from .spatial import NodeIndex, ObstacleIndex
from .validate import check_all, check_clearance, check_structure
from .voxelgrid import (FREE, OCCUPIED, OUT_OF_BOUNDS, UNKNOWN, OccupancyGrid,
                        UpdateCube, downsample, frontier_points, load_grid,
                        obstacle_points, raycast_free, save_grid, surface_points)
from .worlds import (WorldSpec, generate_world, largest_free_component_fraction,
                     two_route_world)

__version__ = "0.1.0"
