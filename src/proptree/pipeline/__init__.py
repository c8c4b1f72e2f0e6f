"""Two-step baseline: CRF segmentation, then entity-pair edge scoring."""

from .crf import CrfModel, crf_objective, train_crf
from .edge_models import LtmModel, MttModel, mtt_log_partition_and_marginals, train_ltm, train_mtt
from .predict import greedy_entity_parents, pipeline_predict

__all__ = [
    "CrfModel", "LtmModel", "MttModel", "crf_objective", "greedy_entity_parents",
    "mtt_log_partition_and_marginals", "pipeline_predict", "train_crf", "train_ltm", "train_mtt",
]
