"""Information-budget feasibility prediction for problem-solving agents.

The package answers "can this agent afford this problem?" before any search
is run: it prices a task in bits, estimates the bits gained per action, and
compares the implied effective cost against the budget. Simulation and
benchmark modules validate the prediction's lower-bound behaviour on a
stopping-time model, a noisy identification task, and random-graph
coloring.
"""

from .info import (
    INFINITE_COST,
    binary_entropy,
    effective_cost,
    entropy_bits,
    search_information,
    select_action,
    solvability_verdict,
)
from .stopping import (
    BoundReport,
    GainSequenceSpec,
    StepCapExceeded,
    completion_fraction,
    cost_bounds,
    high_prob_steps,
    run_trials,
    simulate_stopping,
    summarize_trials,
)
from .gp import (
    EstimationReport,
    EstimationTask,
    GPPosterior,
    HypothesisGrid,
    RBFKernel,
    a_priori_estimate,
    estimate_total_information,
    information_gain,
    monte_carlo_error,
)
from .slope import (
    AgentTrace,
    SlopeTask,
    SweepReport,
    run_noise_sweep,
    run_slope_agent,
)
from .coloring import (
    AGENT_KINDS,
    DEFAULT_CONFIGS,
    CampaignReport,
    ColoringInstance,
    Graph,
    SearchStats,
    count_proper_colorings,
    gen_erdos_renyi,
    is_k_colorable,
    predict_cost,
    run_campaign,
    solve,
)
from .approx import (
    EpsilonGoalReport,
    FeasibilityVerdict,
    FiniteOptInstance,
    KnapsackSpec,
    default_knapsack,
    feasibility_at_accuracy,
    goal_set,
    information_vs_epsilon,
)

__version__ = "0.1.0"
