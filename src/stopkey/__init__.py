"""Variable-length secret key agreement from randomly stopped bit sequences.

The package splits along the protocol pipeline:

- probability: exact rational pmfs, joints, entropies
- randomsource: deterministic seeded randomness with named substreams
- keylaws: key-string laws, the stopped-sequence property, verifiers
- dyadic: exact fair-bit sampling from a pmf, round-weight entropy
- common: the dyadic decomposition of a pmf into rounds with codewords,
  and the zero-error protocol when both parties share the source
- reconciled: hash-checked protocols for correlated (unequal) sources
- formats: the on-disk document formats
- harness: statistics, bound checking, experiment reports
- cli: the command line front end

The names below are the working surface; everything else is importable
from its home module.
"""

from .common import (
    CommonLaw,
    KeyAgreeEngine,
    alice_keygen,
    bob_keygen,
    engine_for,
    exact_common_law,
)
from .dyadic import KnuthYaoSampler
from .errors import (
    FormatError,
    InvariantError,
    ProtocolError,
    ReconcilerContractError,
    StopkeyError,
    ValidationError,
)
from .harness import ExperimentConfig, Report, bounds_dashboard, run_simulation
from .keylaws import (
    ErrorLengthPair,
    KeyLaw,
    PrefixCodebook,
    StoppingRule,
    compose_error_length,
    concat_laws,
    converse_bound,
    law_from_codebook,
    law_from_stopping_rule,
    pointwise_mass_bound,
    stopping_rule_of,
    verify_rsbs,
)
from .probability import JointPmf, Pmf, agreement_stats, entropy, mutual_information
from .randomsource import RandomSource
from .reconciled import (
    ConstantReconciler,
    HashFunction,
    IdentityReconciler,
    OneWayHashReconciler,
    Reconciler,
    almost_common_bounds,
    almost_common_keygen,
    analyze_almost_common,
    average_almost_common,
    correlated_keygen,
    derandomize_hash,
    reconciler_stats,
)

__version__ = "0.1.0"

__all__ = [
    "Pmf",
    "JointPmf",
    "entropy",
    "mutual_information",
    "agreement_stats",
    "RandomSource",
    "KeyLaw",
    "PrefixCodebook",
    "StoppingRule",
    "ErrorLengthPair",
    "verify_rsbs",
    "law_from_codebook",
    "law_from_stopping_rule",
    "stopping_rule_of",
    "concat_laws",
    "compose_error_length",
    "pointwise_mass_bound",
    "converse_bound",
    "KnuthYaoSampler",
    "KeyAgreeEngine",
    "CommonLaw",
    "engine_for",
    "alice_keygen",
    "bob_keygen",
    "exact_common_law",
    "HashFunction",
    "Reconciler",
    "IdentityReconciler",
    "ConstantReconciler",
    "OneWayHashReconciler",
    "almost_common_keygen",
    "almost_common_bounds",
    "analyze_almost_common",
    "average_almost_common",
    "derandomize_hash",
    "correlated_keygen",
    "reconciler_stats",
    "ExperimentConfig",
    "Report",
    "bounds_dashboard",
    "run_simulation",
    "StopkeyError",
    "ValidationError",
    "FormatError",
    "ProtocolError",
    "ReconcilerContractError",
    "InvariantError",
    "__version__",
]
