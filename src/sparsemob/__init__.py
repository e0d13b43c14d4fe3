"""Stay/travel mobility inference for temporally sparse trajectories.

The package infers, per GPS record, whether a device was staying at a
location or traveling through it, while abstaining whenever the sampling is
too sparse to certify either. It ships the sliding-window inference, an
exhaustive reference oracle, a random-walk simulator with continuous ground
truth, an evaluation harness, and two classic baselines, all behind a
deterministic batch CLI.

Each public name is imported from its submodule on first use, so importing
the package (as every CLI start does) loads none of them.
"""

import importlib

__version__ = "0.1.0"

#: README's entry points and the types they take or return, by the submodule
#: that defines each; every other name stays importable from its submodule,
#: with no stability promise
_HOMES = {
    "baselines": ("BucketConfig", "HmmModel", "VotingModel", "hmm_train", "voting_train"),
    "core": ("LABEL_STAY", "LABEL_TRAVEL", "LABEL_UNLABELED", "LabeledTrajectory",
             "MobilityParams", "Trajectory"),
    "evaluate": ("ExperimentConfig", "MetricsReport", "RateOutcome", "compute_metrics",
                 "resampling_experiment"),
    "oracle": ("exact_label",),
    "sds": ("sds_label",),
    "simulate": ("CtrwConfig", "GroundTruthPath", "continuous_labels", "generate_ctrw",
                 "observe"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
