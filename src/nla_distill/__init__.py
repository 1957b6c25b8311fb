"""Quantum-scissor amplifier distillation of lossy EPR entanglement.

Truncated-Fock-space simulation of the heralded amplifier circuits, closed
forms for every benchmark and operating curve, and the constrained searches
that reproduce the operating-point figures.
"""

from .analytic import (RECORD_SQUEEZING_DB, InfeasibleParameterError,
                       db_from_lambda, eps_ladder, eps_no_nla, eps_opt_formula,
                       kappa_rho, lambda_from_db, purity_formula,
                       purity_ladder, purity_no_nla, purity_tradeoff,
                       r_from_squeeze_db, squeeze_db_from_r, success_prob)
from .fock import (PureState, apply_beamsplitter, debug_serialize, epr_state,
                   fidelity, fock_state, herald_beamsplitter, norm_sq,
                   partial_trace, project_fock, purity, quadrature_moment,
                   rename_modes, reorder_modes, squeezed_vacuum, tensor,
                   vacuum)
from .metrics import epr_criterion
from .nla import (DistillationResult, closed_form_state, distill_and_measure,
                  dual_stage_circuit, lossy_channel_state, scissor_circuit,
                  single_stage_circuit, truncated_pair_state)
from .optimize import (UnachievableTargetError, best_entanglement_vs_stages,
                       eta_candidates, optimize_entanglement,
                       purity_for_target_entanglement)

__version__ = "0.1.0"

__all__ = [
    "RECORD_SQUEEZING_DB", "InfeasibleParameterError",
    "UnachievableTargetError",
    "eps_no_nla", "purity_no_nla", "purity_tradeoff",
    "success_prob", "eps_opt_formula", "purity_formula",
    "kappa_rho", "eps_ladder", "purity_ladder",
    "lambda_from_db", "db_from_lambda", "r_from_squeeze_db",
    "squeeze_db_from_r",
    "PureState", "vacuum", "fock_state", "epr_state", "squeezed_vacuum",
    "tensor", "apply_beamsplitter", "herald_beamsplitter",
    "project_fock", "partial_trace", "quadrature_moment", "norm_sq", "purity",
    "fidelity", "debug_serialize", "rename_modes", "reorder_modes",
    "epr_criterion",
    "DistillationResult", "lossy_channel_state",
    "scissor_circuit", "single_stage_circuit", "dual_stage_circuit",
    "closed_form_state", "truncated_pair_state", "distill_and_measure",
    "eta_candidates", "optimize_entanglement",
    "purity_for_target_entanglement", "best_entanglement_vs_stages",
]
