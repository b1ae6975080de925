"""Geometric Dirichlet Means topic inference.

Topic estimation by weighted clustering of normalized documents followed by a
geometric vertex correction, plus projection-based topic-proportion inference
and evaluation metrics.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    NormalizedCorpus,
    load_uci_bag_of_words,
    normalize,
    save_uci_bag_of_words,
    split_holdout,
)
from .synth import LdaParams, GroundTruth, generate_corpus, sample_dirichlet
from .clustering import ClusteringResult, fit_dpmeans, fit_kmeans, kmeanspp_init
from .geometry import TopicPolytope, geometric_objective, project_rows
from .gdm import GdmConfig, GdmModel, default_extensions, extend, fit_gdm, fit_ngdm
from .metrics import PerplexityReport, infer_theta, min_matching_distance, perplexity
