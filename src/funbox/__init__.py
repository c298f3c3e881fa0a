"""Exact graph functionality / symmetric difference toolkit.

Core objects: bit-row graphs, interval and point models, exact box systems,
extremal family generators, and seeded verification campaigns.
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    GraphError,
    SizeLimitError,
    equal_labeled,
    from_edge_list,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
)
from .parameters import (  # noqa: F401
    AbcReport,
    PremiseViolation,
    RefutationPair,
    StructureReport,
    Witness,
    check_abc_partition,
    fun_graph,
    fun_vertex,
    fun_vertex_naive,
    fun_vertices,
    is_function_of,
    is_threshold,
    pair_witness,
    recover_half_graph_orders,
    refute_function,
    sd_graph,
    sd_pair,
    structure_scan,
    witness_is_valid,
)
from .intervals import (  # noqa: F401
    IntervalRep,
    PointRep,
    check_sd_lemma,
    find_low_fun_witness,
    graph_from_intervals,
    graph_from_points,
    normalize,
)
from .constructions import (  # noqa: F401
    ConstructionLabels,
    abc_graph,
    extend_gk_to_abc,
    g_k,
    half_graph,
    hypercube,
    point_box_incidence,
)
from .geometry import (  # noqa: F401
    BoxSystem,
    RealizationError,
    RealizationReport,
    embed_pointbox_r3,
    graph_from_boxes,
    incidence_graph,
    realize_abc_intervals,
    realize_abc_unit_squares,
    realize_pointbox_plane,
)
from .rng import SplitMix64  # noqa: F401
from .campaigns import (  # noqa: F401
    CampaignConfig,
    CampaignReport,
    random_graph,
    random_interval_rep,
    random_permutation,
    verify_campaign,
)
