"""Oblivious transfer and password identification in the noisy-storage model.

Exact classical entropy primitives, security-bound calculators for
depolarizing storage, two-universal hashing, desk-scale linear codes, a
single-qubit simulator, and executable protocol state machines.
"""

from .bounds import (
    InfeasibleStorageError,
    NoPositiveLengthError,
    OptimizationError,
    OtParams,
    PreconditionError,
    QidParams,
    RobustParams,
    StorageModel,
    binary_entropy,
    depolarizing_capacity,
    feasible_region,
    impersonation_error,
    inv_binary_entropy,
    ot_epsilon,
    ot_length,
    qid_error,
    rate_curve,
    robust_ot_length,
    sigma,
    strong_converse_exponent,
)
from .codes import LinearCode, QidCode, gv_parameters, qid_code
from .distributions import JointDistribution, SubDistribution
from .entropy import (
    SplitResult,
    guessing_probability,
    min_entropy,
    nonuniformity,
    psucc_classical,
    smooth_sub_distribution,
    split_binary,
    split_multi,
)
from .hashing import ToeplitzHash, collision_bound, hash_apply, pa_distance
from .protocols import (
    StoreAllBob,
    estimate_leakage,
    run_qid,
    run_robust_rot,
    run_rot,
)
from .qsim import bb84_prepare, depolarize, helstrom, measure

__version__ = "0.1.0"
