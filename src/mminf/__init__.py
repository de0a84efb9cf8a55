"""Certified numerics for infinite-server queue transition kernels and the
semi-log-convexity inequalities of their semigroups."""

__version__ = "0.1.0"

from .bounds import (
    CaseResult,
    VerificationReport,
    glmrs_bound,
    lemma_K,
    log_laplacian,
    remark_M,
    sharp_bound,
    sharpness_decay,
    verify_generalized,
    verify_kernel_lemma,
    verify_theorem,
)
from .distributions import (
    CertifiedPmf,
    binomial_log_pmf,
    convolve,
    poisson_log_pmf,
    poisson_window,
)
from .kernel import (
    Observable,
    QueueParams,
    SemigroupValue,
    generator_apply,
    kernel_entry,
    mehler_row,
    reversibility_defect,
    semigroup_apply,
)
from .oracle import (
    SimulationConfig,
    exact_lemma_check,
    exact_rational_convolution,
    gillespie_sample,
    gillespie_terminal_states,
    uniformized_kernel,
)
