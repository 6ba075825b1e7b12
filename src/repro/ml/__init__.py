"""ML substrate: numpy models, trainers (SGD / DP-SGD), metrics, transforms.

Everything the Sage pipelines of Table 1 train with, implemented from
scratch: closed-form ridge and AdaSSP linear regression, logistic
regression and MLPs via one shared backprop (``MLPModel``), non-private SGD
and DP-SGD with per-example clipping + RDP accounting.
"""

from repro.ml.base import DifferentiableModel, Estimator, per_example_sq_norms
from repro.ml.dpsgd import (
    DPSGDConfig,
    DPSGDResult,
    clipped_noisy_mean_gradients,
    dpsgd_train,
)
from repro.ml.estimators import (
    DPSGDClassifierEstimator,
    DPSGDRegressorEstimator,
    MLPClassifierEstimator,
    MLPRegressorEstimator,
)
from repro.ml.linear import AdaSSPRegressor, RidgeRegression
from repro.ml.metrics import (
    accuracy,
    mse,
    squared_errors,
    zero_one_losses,
)
from repro.ml.neural import MLPModel, relu, sigmoid
from repro.ml.preprocessing import (
    scale_to_0_1,
    train_test_split,
)
from repro.ml.sgd import MomentumState, SGDConfig, minibatch_indices, sgd_train

__all__ = [
    "Estimator",
    "DifferentiableModel",
    "per_example_sq_norms",
    "MLPModel",
    "relu",
    "sigmoid",
    "RidgeRegression",
    "AdaSSPRegressor",
    "SGDConfig",
    "sgd_train",
    "minibatch_indices",
    "MomentumState",
    "DPSGDConfig",
    "DPSGDResult",
    "dpsgd_train",
    "clipped_noisy_mean_gradients",
    "MLPRegressorEstimator",
    "MLPClassifierEstimator",
    "DPSGDRegressorEstimator",
    "DPSGDClassifierEstimator",
    "mse",
    "accuracy",
    "squared_errors",
    "zero_one_losses",
    "scale_to_0_1",
    "train_test_split",
]
