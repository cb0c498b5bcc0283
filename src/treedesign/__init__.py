"""ADMM heuristics for tree-constrained network design.

Centralized and distributed solvers with exact spanning-tree / rooted-
arborescence projections, applied to hop-constrained multicommodity-flow
tree design, plus an exhaustive optimality oracle for desk-scale validation.
"""

from .graphs import (
    DirectedArcSet,
    GraphGenerationError,
    InvalidTreeError,
    TreeIndicator,
    UndirectedGraph,
    bidirect,
    generate_erdos_renyi,
    is_spanning_tree,
    tree_path,
)
from .projection import (
    DisconnectedGraphError,
    NoArborescenceError,
    mst_kruskal,
    mwra_edmonds,
    project_binary,
    project_tree,
)
from .qp import (
    InfeasibleSubproblemError,
    QpSolution,
    QpWorkspace,
    QuadraticProgram,
    solve_qp,
)
from .mcf import (
    Commodity,
    Instance,
    check_feasible,
    objective,
    random_instance,
    read_instance,
    route_on_tree,
    write_instance,
)
from .oracle import (
    BudgetExceededError,
    EnumerationBudget,
    enumerate_arborescences,
    enumerate_spanning_trees,
    exact_project,
    exact_solve,
    spanning_tree_count_kirchhoff,
)
from .central import (
    CentralState,
    SolverConfig,
    SubproblemRuntime,
    build_centralized_subproblem,
    init_state,
    residual_central,
    solve_central,
    step,
)
from .distributed import (
    World,
    build_agent_subproblem,
    consensus_gap,
    init_world,
    residual_distributed,
    solve_distributed,
    sync_round,
)
from .report import SolveReport, compute_gap

__version__ = "0.1.0"
