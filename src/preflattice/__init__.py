"""Collective choice analysis: preference aggregation, entropy measures,
maximum likelihood orderings, chain decompositions, and an agent-based
cultural evolution simulator."""

from .aggregate import (
    aggregate_reach,
    borda_scores,
    classify_cycles,
    common_indifferences,
    condense,
    position_counts,
)
from .core import (
    Order,
    Profile,
    count_weak_orders,
    enumerate_weak_orders,
    make_order,
    preference_matrix,
    profile_from_dict,
    transition_matrix,
)
from .culture import CultureConfig, classify_epochs, run, run_replicates, variety_table
from .entropy import (
    markov_aggregate,
    markov_order,
    shannon_entropy,
    spectral_radius,
    stationary_distribution,
    topological_entropy,
)
from .errors import InputError, PrefLatticeError, ResourceError
from .graphalg import (
    digraph,
    max_antichain,
    maximal_circuit_free_subbigraphs,
    poset,
    tg_connected,
)
from .mlorder import max_likelihood_order, restrict_estimates, tally, uncertainty
from .selforg import (
    derive_precedents,
    elect_managers,
    extract_prefs,
    group_order,
    group_topology,
    partition_subscribers,
    referral_check,
    validate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "CultureConfig",
    "InputError",
    "Order",
    "PrefLatticeError",
    "Profile",
    "ResourceError",
    "aggregate_reach",
    "borda_scores",
    "classify_cycles",
    "classify_epochs",
    "common_indifferences",
    "condense",
    "count_weak_orders",
    "derive_precedents",
    "digraph",
    "elect_managers",
    "enumerate_weak_orders",
    "extract_prefs",
    "group_order",
    "group_topology",
    "make_order",
    "markov_aggregate",
    "markov_order",
    "max_antichain",
    "max_likelihood_order",
    "maximal_circuit_free_subbigraphs",
    "partition_subscribers",
    "poset",
    "position_counts",
    "preference_matrix",
    "profile_from_dict",
    "referral_check",
    "restrict_estimates",
    "run",
    "run_replicates",
    "shannon_entropy",
    "spectral_radius",
    "stationary_distribution",
    "tally",
    "tg_connected",
    "topological_entropy",
    "transition_matrix",
    "uncertainty",
    "validate_protocol",
    "variety_table",
]
