"""Tri-hybrid multi-user precoding with pattern-reconfigurable antennas.

Library layout:

* :mod:`trihybrid.harmonics` - real spherical-harmonics basis, gain
  synthesis, quadrature grids, pattern power budget.
* :mod:`trihybrid.channel` - planar-array geometry, response vectors, and
  one per-path sum that builds both the (K, N_T, T) EM-domain channel
  blocks and the channel under given per-element gains.
* :mod:`trihybrid.wmmse` - the alternating weighted-MMSE solver with
  closed-form block updates, whose per-user updates take the links
  p = H F_D, and the norm-constrained pattern subproblem.
* :mod:`trihybrid.decomposition` - analog/baseband factorization of the
  fully digital precoder.
* :mod:`trihybrid.projection` - candidate pattern sets, file loading, and
  projection of optimized patterns onto realizable sets.
* :mod:`trihybrid.harness` - Monte-Carlo batches, config files, CSV output.
"""

from .channel import (
    PathGeometry,
    Scenario,
    ScenarioConfig,
    UpaGeometry,
    direct_channel_oracle,
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
    index_of,
    min_gain_on_grid,
    pattern_power,
    real_sph_harmonic,
    sphere_quadrature,
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
    run_algorithm1,
    solve_ac_subproblem,
    sum_rate,
)

__all__ = [
    "AngularGrid",
    "CandidatePatternSet",
    "HybridFactors",
    "PathGeometry",
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
    "direct_channel_oracle",
    "effective_channels",
    "emit_csv",
    "far_field_arv",
    "gauss_legendre_grid",
    "generate_scenario",
    "index_of",
    "load_candidates",
    "min_gain_on_grid",
    "near_field_arv",
    "parse_config",
    "pattern_power",
    "phase_projection",
    "project_antenna",
    "real_sph_harmonic",
    "run_algorithm1",
    "run_trials",
    "save_candidates",
    "solve_ac_subproblem",
    "sphere_quadrature",
    "steered_candidate_set",
    "sum_rate",
    "sum_rate_loss",
    "synthesize_gain",
]

__version__ = "0.1.0"
