"""Sparse recovery by tree-search matching pursuits, with RIP certification
and a Monte-Carlo benchmark harness."""

from .linalg import (
    DegenerateColumnError,
    IncrementalFactorization,
    factor_init,
)
from .pursuit import (
    ALGORITHMS,
    CostModel,
    DegenerateDictionaryError,
    PursuitConfig,
    PursuitResult,
    SupportTrie,
    TerminationRule,
    path_cost,
    run_aomp,
    run_mmp_bf,
    run_mmp_df,
    run_omp,
    scatter_estimate,
)
from .benchlab import (
    SparseProblem,
    SweepReport,
    TrialResult,
    anmse,
    derive_trial_seed,
    emit_report,
    gen_problem,
    nmse_value,
    reference_configs,
    run_sweep,
    run_trial,
)
from .ripcert import (
    BoundPair,
    EnumerationCapError,
    RicCertificate,
    check_recovery_condition,
    compute_ric,
    lemma1_bounds,
    matrix_digest,
)

__version__ = "0.1.0"
