"""From-scratch numpy ML substrate (no sklearn/scipy/torch on the box).

Everything the paper's pipeline touches as a model lives here: the
Random-Forest downstream task, the FPE's MLP classifier, and the
Table V replacement models (SVM, NB, GP, MLP) plus the RTDL-style
tabular ResNet used by the DL baselines.
"""
