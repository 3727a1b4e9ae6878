"""Outer-weakly convex domination: predicates, exact solvers, products, bound checks.

Library surface. Everything here runs on plain `Graph`/`VertexSet` values with
vertices 0..n-1; the CLI in `owc.cli` wraps the same functions.
"""

from .convexity import (
    IntervalCache,
    geodesics,
    interval,
    interval_closure,
    is_convex,
    is_weakly_convex,
    is_weakly_convex_oracle,
)
from .domination import (
    DEFAULT_CAP,
    OwcResult,
    domination_number,
    enumerate_min_owc_sets,
    is_dominating,
    is_outer_convex_dominating,
    is_owc_dominating,
    isolated_in_induced,
    outer_convex_domination_number,
    owc_domination_number,
    script_p,
    script_p_realizer,
)
from .graph6 import Graph6Error, graph_from_graph6, to_graph6
from .graphs import (
    DistanceMatrix,
    Graph,
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_matrix,
    family,
    graph_from_edge_list,
    graph_from_spec,
    induced_subgraph,
    is_connected,
    is_complete_graph,
    load_graph_file,
    path_graph,
    star_graph,
)
from .harness import (
    BoundReport,
    SweepConfig,
    check_cartesian,
    check_cartesian_projection,
    check_cartesian_rectangle,
    check_lexico_projection,
    check_lexicographic,
    check_strong,
    check_strong_kmn,
    check_strong_kn,
    parse_sweep_config,
    run_sweep,
    write_reports,
)
from .constructions import (
    ConstructionSet,
    HypothesisError,
    cartesian_left_cover,
    cartesian_right_cover,
    lexico_anchor,
    strong_kmn_pair,
    strong_kn_slice,
    strong_left_cover,
    strong_right_cover,
    verify_on_product,
)
from .products import (
    ProductGraph,
    cartesian,
    edge_count_formula,
    lexicographic,
    product,
    strong,
)

__version__ = "0.1.0"
