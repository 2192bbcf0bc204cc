"""Information-budget feasibility prediction for problem-solving agents.

The package answers "can this agent afford this problem?" before any search
is run: it prices a task in bits, estimates the bits gained per action, and
compares the implied effective cost against the budget. Simulation and
benchmark modules validate the prediction's lower-bound behaviour on a
stopping-time model, a noisy identification task, and random-graph
coloring.

Each library module loads on first use. ``import acp`` registers the seven
of them (``info``, ``seeding``, ``stopping``, ``gp``, ``slope``,
``coloring`` and ``approx``) with ``importlib.util.LazyLoader``: each is in
``sys.modules`` and is an attribute of the package at once, but its code
runs only when one of its attributes is first read. The public names below
resolve through the package's ``__getattr__``, so ``acp.run_trials`` loads
``stopping`` (and the ``seeding`` it imports) and nothing else. Neither
``import acp`` nor ``import acp.cli`` runs library code, and a subcommand
runs only the modules it uses:

  bounds    seeding, stopping
  estimate  info, gp
  slope     info, gp, seeding, slope
  coloring  info, seeding, coloring
  approx    info, gp, approx

``multiprocessing`` loads only when a run starts a worker pool.

The modules are registered lazily rather than imported inside functions
because code outside the package, such as the benchmark's tracer in
``perfbench/tracing.py``, finds them in ``sys.modules`` by name. Before
Python 3.12 a LazyLoader module is not safe to load from two threads at
once. ``acp`` starts no threads; a worker pool's helper threads pickle only
objects of modules already loaded.
"""

import importlib.util
import sys

#: Library module -> the public names it defines.
_EXPORTS = {
    "info": (
        "INFINITE_COST",
        "binary_entropy",
        "effective_cost",
        "entropy_bits",
        "search_information",
        "select_action",
        "solvability_verdict",
    ),
    "seeding": (),
    "stopping": (
        "BoundReport",
        "GainSequenceSpec",
        "StepCapExceeded",
        "completion_fraction",
        "cost_bounds",
        "high_prob_steps",
        "run_trials",
        "simulate_stopping",
        "summarize_trials",
    ),
    "gp": (
        "EstimationReport",
        "EstimationTask",
        "GPPosterior",
        "HypothesisGrid",
        "RBFKernel",
        "a_priori_estimate",
        "estimate_total_information",
        "information_gain",
        "monte_carlo_error",
    ),
    "slope": (
        "AgentTrace",
        "SlopeTask",
        "SweepReport",
        "run_noise_sweep",
        "run_slope_agent",
    ),
    "coloring": (
        "AGENT_KINDS",
        "DEFAULT_CONFIGS",
        "CampaignReport",
        "ColoringInstance",
        "Graph",
        "SearchStats",
        "count_proper_colorings",
        "gen_erdos_renyi",
        "is_k_colorable",
        "predict_cost",
        "run_campaign",
        "solve",
    ),
    "approx": (
        "EpsilonGoalReport",
        "FiniteOptInstance",
        "KnapsackSpec",
        "default_knapsack",
        "goal_set",
        "information_vs_epsilon",
    ),
}

#: Public name -> the library module that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def _register(module: str) -> None:
    """Put library module ``module`` in sys.modules and on the package, to run on first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register(_module)
del _module


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
