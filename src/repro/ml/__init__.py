"""From-scratch numpy ML substrate (no sklearn/scipy/torch on the box).

Everything the paper's pipeline touches as a model lives here: the
Random-Forest downstream task, the FPE's MLP classifier, and the
Table V replacement models (SVM, NB, GP, MLP) plus the RTDL-style
tabular ResNet used by the DL baselines.
"""
from .forest import RandomForest, cross_val_score
from .gp import GPRegressor
from .linear import LinearSVM
from .metrics import f1_score, one_minus_rae, precision_recall, score
from .mlp import MLP
from .naive_bayes import GaussianNB
from .resnet import TabularResNet
from .tree import DecisionTree

__all__ = [
    "RandomForest",
    "cross_val_score",
    "GPRegressor",
    "LinearSVM",
    "f1_score",
    "one_minus_rae",
    "precision_recall",
    "score",
    "MLP",
    "GaussianNB",
    "TabularResNet",
    "DecisionTree",
]
