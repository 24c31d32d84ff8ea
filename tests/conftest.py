"""Fixtures shared by the engine and baseline tests."""
import pytest

from repro.core.fpe import FPEModel, label_corpus
from repro.synth_data import fpe_corpus


@pytest.fixture(scope="session")
def fpe(spark):
    """A small deterministic FPE: CCWS, d=16, labelled on five corpus sets."""
    corpus = fpe_corpus(5, seed=1000)
    labels = label_corpus(spark, corpus, thre=0.01, cv_cfg={"k": 3, "n_trees": 4})
    return FPEModel.fit(corpus, labels, fixed_variant="ccws", d_options=(16,), seed=0)
