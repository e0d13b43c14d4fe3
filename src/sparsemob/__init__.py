"""Stay/travel mobility inference for temporally sparse trajectories.

The package infers, per GPS record, whether a device was staying at a
location or traveling through it, while abstaining whenever the sampling is
too sparse to certify either. It ships the sliding-window inference, an
exhaustive reference oracle, a random-walk simulator with continuous ground
truth, an evaluation harness, and two classic baselines, all behind a
deterministic batch CLI.
"""

from .baselines import BucketConfig, HmmModel, VotingModel, hmm_train, voting_train
from .core import LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED, MobilityParams, Trajectory
from .evaluate import (
    ExperimentConfig,
    MetricsReport,
    RateOutcome,
    compute_metrics,
    resampling_experiment,
)
from .oracle import exact_label
from .sds import LabeledTrajectory, sds_label
from .simulate import (
    CtrwConfig,
    GroundTruthPath,
    continuous_labels,
    generate_ctrw,
    observe,
)

__version__ = "0.1.0"

# README's entry points and the types they take or return; every other name
# stays importable from its submodule, with no stability promise
__all__ = [
    "BucketConfig",
    "CtrwConfig",
    "ExperimentConfig",
    "GroundTruthPath",
    "HmmModel",
    "LABEL_STAY",
    "LABEL_TRAVEL",
    "LABEL_UNLABELED",
    "LabeledTrajectory",
    "MetricsReport",
    "MobilityParams",
    "RateOutcome",
    "Trajectory",
    "VotingModel",
    "compute_metrics",
    "continuous_labels",
    "exact_label",
    "generate_ctrw",
    "hmm_train",
    "observe",
    "resampling_experiment",
    "sds_label",
    "voting_train",
]
