"""stablab: utility-maximization stability laboratory on finite scenario trees.

Solves exponential-type problems (share strategies on the real line) and
power-type problems (fraction strategies on the positive half-line) by convex
duality, and measures how optimal wealth, strategies, values and prices move
under certified perturbations of the utility.
"""
from .market import (AdmissibilityViolation, Measure, ScenarioTree, Strategy,
                     TreeValidationError, bracket_distance, branching_tree,
                     build_tree, conditional_expectation, conditional_probs,
                     martingale_residual, node_weights, tree_from_file,
                     wealth_additive, wealth_multiplicative)
from .utilities import (RatioCertificate, SandwichAudit, UtilityField,
                        UtilityOnR, UtilityOnRPlus, certify_ratio_bounds,
                        conjugate_sandwich_audit, make_exponential,
                        make_perturbed_exponential, make_perturbed_power,
                        make_power, make_power_family_member,
                        rescale_to_unit_alpha, shifted_inverse_mix)
from .entropic import (DualMeasure, NoMartingaleMeasure, NonConvergence,
                       OptimalityReport, PrimalSolution, extract_dual,
                       generalized_entropy, martingale_price_bounds,
                       minimal_entropy_measure, solve_primal, verify_optimality)
from .positive import (NumeraireAudit, OpportunityProcess, PositiveSolution,
                       RatioDiagnostics, auxiliary_measure, numeraire_audit,
                       opportunity_process, ratio_defects, ratio_diagnostics,
                       scaled_strategy_distance, share_amounts,
                       solve_power_field)
from .pricing import PriceResult, davis_price, indifference_price
from .sweeps import (AuditReport, ConfigError, RateFit, SweepReport, SweepSpec,
                     audit_probabilistic_lemmas, fit_rate, load_config,
                     make_claim, report_csv, report_json, shipped_families,
                     sweep_delta, sweep_p)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityViolation", "Measure", "ScenarioTree", "Strategy",
    "TreeValidationError", "bracket_distance", "branching_tree", "build_tree",
    "conditional_expectation", "conditional_probs", "martingale_residual",
    "node_weights", "tree_from_file", "wealth_additive", "wealth_multiplicative",
    "RatioCertificate", "SandwichAudit", "UtilityField", "UtilityOnR",
    "UtilityOnRPlus", "certify_ratio_bounds", "conjugate_sandwich_audit",
    "make_exponential", "make_perturbed_exponential", "make_perturbed_power",
    "make_power", "make_power_family_member", "rescale_to_unit_alpha",
    "shifted_inverse_mix",
    "DualMeasure", "NoMartingaleMeasure", "NonConvergence", "OptimalityReport",
    "PrimalSolution", "extract_dual", "generalized_entropy", "martingale_price_bounds",
    "minimal_entropy_measure", "solve_primal", "verify_optimality",
    "NumeraireAudit", "OpportunityProcess", "PositiveSolution",
    "RatioDiagnostics", "auxiliary_measure", "numeraire_audit",
    "opportunity_process", "ratio_defects", "ratio_diagnostics",
    "scaled_strategy_distance", "share_amounts", "solve_power_field",
    "PriceResult", "davis_price", "indifference_price",
    "AuditReport", "ConfigError", "RateFit", "SweepReport", "SweepSpec",
    "audit_probabilistic_lemmas", "fit_rate", "load_config", "make_claim",
    "report_csv", "report_json", "shipped_families", "sweep_delta", "sweep_p",
    "__version__",
]
