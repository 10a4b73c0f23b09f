"""Tri-hybrid multi-user precoding with pattern-reconfigurable antennas.

Library layout:

* :mod:`trihybrid.harmonics` - real spherical-harmonics basis, gain
  synthesis, and a positivity audit on a quadrature grid.
* :mod:`trihybrid.channel` - planar-array geometry, response vectors, and
  one per-path sum that builds both the (K, N_T, T) EM-domain channel
  blocks and the channel under a candidate set's per-element gains.
* :mod:`trihybrid.wmmse` - the alternating weighted-MMSE solver with
  closed-form block updates, whose per-user updates read the statistics of
  the links p = H F_D (``link_stats``), and the norm-constrained pattern
  subproblem.  The power budget is an argument of the solve.
* :mod:`trihybrid.decomposition` - analog/baseband factorization of the
  fully digital precoder.
* :mod:`trihybrid.projection` - candidate pattern sets, file loading, and
  projection of optimized patterns onto realizable sets.
* :mod:`trihybrid.harness` - Monte-Carlo batches, config files, CSV output.
"""

from .channel import (
    Scenario,
    ScenarioConfig,
    UpaGeometry,
    effective_channels,
    far_field_arv,
    generate_scenario,
    near_field_arv,
)
from .decomposition import HybridFactors, decompose, phase_projection, sum_rate_loss
from .harmonics import (
    AngularGrid,
    basis_vector,
    gauss_legendre_grid,
    min_gain_on_grid,
    synthesize_gain,
)
from .harness import RunConfig, TrialRecord, emit_csv, parse_config, run_trials
from .projection import (
    CandidatePatternSet,
    apply_projection,
    candidate_gain,
    load_candidates,
    project_antenna,
    save_candidates,
    steered_candidate_set,
)
from .wmmse import (
    SolverConfig,
    SolverResult,
    SolverState,
    link_stats,
    run_algorithm1,
    solve_ac_subproblem,
    sum_rate,
)

__all__ = [
    "AngularGrid",
    "CandidatePatternSet",
    "HybridFactors",
    "RunConfig",
    "Scenario",
    "ScenarioConfig",
    "SolverConfig",
    "SolverResult",
    "SolverState",
    "TrialRecord",
    "UpaGeometry",
    "apply_projection",
    "basis_vector",
    "candidate_gain",
    "decompose",
    "effective_channels",
    "emit_csv",
    "far_field_arv",
    "gauss_legendre_grid",
    "generate_scenario",
    "link_stats",
    "load_candidates",
    "min_gain_on_grid",
    "near_field_arv",
    "parse_config",
    "phase_projection",
    "project_antenna",
    "run_algorithm1",
    "run_trials",
    "save_candidates",
    "solve_ac_subproblem",
    "steered_candidate_set",
    "sum_rate",
    "sum_rate_loss",
    "synthesize_gain",
]

__version__ = "0.1.0"
