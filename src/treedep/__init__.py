"""Markov tree dependence toolkit.

Construct joint distributions from bivariate tree specifications (a marginal
per node, a copula per edge), sample them reproducibly, decide stochastic
orderings exactly on finite supports, audit the stochastic-monotonicity
hypotheses of the tree comparison theorems, and compute perturbed-random-walk
robustness bands.
"""

__version__ = "0.1.0"

from .copulas import (
    BivariateCopula,
    Clayton,
    Comonotone,
    Gaussian,
    Independence,
    SurvivalClayton,
    parse_copula,
    theta_from_rho,
)
from .discrete import (
    DiscreteBivariate,
    DiscreteJoint,
    DiscreteTreeSpec,
    markov_joint,
)
from .marginals import (
    Dirac,
    DiscreteUniform,
    Empirical,
    Marginal,
    Normal,
    RectifiedNormal,
    Uniform,
    parse_marginal,
)
from .ordering import (
    ConditionReport,
    OrderReport,
    audit_theorem_conditions,
    lo_check,
    mtp2_check,
    psmd_check,
    schur_leq,
    si_check,
    sm_check_lp,
    uo_check,
)
from .sampler import SampleBatch, TreeSpec, sample
from .trees import DirectedTree, TheoremQuery, make_chain, make_hmm_tree, make_star

__all__ = [
    "BivariateCopula",
    "Clayton",
    "Comonotone",
    "ConditionReport",
    "Dirac",
    "DirectedTree",
    "DiscreteBivariate",
    "DiscreteJoint",
    "DiscreteTreeSpec",
    "DiscreteUniform",
    "Empirical",
    "Gaussian",
    "Independence",
    "Marginal",
    "Normal",
    "OrderReport",
    "RectifiedNormal",
    "SampleBatch",
    "SurvivalClayton",
    "TheoremQuery",
    "TreeSpec",
    "Uniform",
    "audit_theorem_conditions",
    "lo_check",
    "make_chain",
    "make_hmm_tree",
    "make_star",
    "markov_joint",
    "mtp2_check",
    "parse_copula",
    "parse_marginal",
    "psmd_check",
    "sample",
    "schur_leq",
    "si_check",
    "sm_check_lp",
    "theta_from_rho",
    "uo_check",
]
