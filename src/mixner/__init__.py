"""Code-mixed NER toolkit: corpus handling, CRF tagging, evaluation."""

from .corpus import (Dataset, ParseError, Sentence, TagSet, Token, induce_tagset,
                     mix_datasets, parse_conll, validate_iob, write_conll)
from .crf import (CrfModel, TrainConfig, TrainHistory, decode, load_model,
                  log_partition, marginals, nll_and_gradient, save_model,
                  sequence_score, train, viterbi)
from .eval import ConfusionMatrix, EvalReport, render_report, score_entities
from .features import (EncodedCorpus, EncodedSentence, FeatureIndex, build_index,
                       encode_dataset)

__version__ = "0.1.0"
