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

The names in ``__all__`` are the working surface; everything else is
importable from its home module. Each is imported from its home module
on first use, so ``import stopkey`` loads no submodule.
"""

import importlib

# each public name's home module
_HOMES = {
    "common": (
        "CommonLaw",
        "KeyAgreeEngine",
        "alice_keygen",
        "bob_keygen",
        "engine_for",
        "exact_common_law",
    ),
    "dyadic": ("KnuthYaoSampler",),
    "errors": (
        "FormatError",
        "InvariantError",
        "ProtocolError",
        "ReconcilerContractError",
        "StopkeyError",
        "ValidationError",
    ),
    "harness": ("ExperimentConfig", "Report", "bounds_dashboard", "run_simulation"),
    "keylaws": (
        "ErrorLengthPair",
        "KeyLaw",
        "PrefixCodebook",
        "StoppingRule",
        "compose_error_length",
        "concat_laws",
        "converse_bound",
        "law_from_codebook",
        "law_from_stopping_rule",
        "pointwise_mass_bound",
        "stopping_rule_of",
        "verify_rsbs",
    ),
    "probability": ("JointPmf", "Pmf", "agreement_stats", "entropy", "mutual_information"),
    "randomsource": ("RandomSource",),
    "reconciled": (
        "ConstantReconciler",
        "HashFunction",
        "IdentityReconciler",
        "OneWayHashReconciler",
        "Reconciler",
        "almost_common_bounds",
        "almost_common_keygen",
        "analyze_almost_common",
        "average_almost_common",
        "correlated_keygen",
        "derandomize_hash",
        "reconciler_stats",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
