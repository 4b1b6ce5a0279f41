"""Code-mixed NER toolkit: corpus handling, CRF tagging, evaluation."""

from .corpus import (Dataset, EntitySpan, ParseError, Sentence, TagSet, Token,
                     extract_entities, induce_tagset, mix_datasets, parse_conll,
                     spans_to_tags, validate_iob, write_conll)
from .crf import (CrfModel, TrainConfig, TrainHistory, decode, load_model,
                  log_partition, marginals, nll_and_gradient, save_model,
                  sequence_score, train, viterbi, viterbi_batch)
from .eval import (ConfusionMatrix, EvalReport, render_report, score_entities,
                   token_confusion)
from .features import (EncodedSentence, FeatureIndex, build_index,
                       encode_dataset, extract_attributes)

__version__ = "0.1.0"
