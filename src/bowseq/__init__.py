"""Seq2seq translation with a sentence-level bag-of-words training target."""

from .autodiff import (
    GradCheckReport,
    Node,
    ParameterStore,
    ShapeError,
    backward,
    finite_difference_check,
)
from .data import (
    BOS,
    EOS,
    PAD,
    UNK,
    Batch,
    ExamplePair,
    ToyTaskSpec,
    Vocab,
    build_vocab,
    extract_bag,
    generate_toy_corpus,
    load_pairs,
    make_batches,
)
from .inference import BeamConfig, Hypothesis, beam_search, greedy_decode, normalized_score
from .metrics import BagReport, BleuReport, bag_overlap, corpus_bleu
from .model import (
    ModelConfig,
    Seq2SeqModel,
    bow_probabilities,
    load_checkpoint,
    save_checkpoint,
)
from .objectives import (
    AdamState,
    LossBreakdown,
    ScheduleParams,
    adam_step,
    bag_loss,
    bag_weight,
    clip_gradients,
    total_loss,
    word_loss,
)
from .training import EpochStats, ValidationSet, train_model


def _keep_freed_memory() -> None:
    """Make glibc's malloc keep freed memory for reuse instead of returning it.

    Every training batch builds the same large temporaries: the LSTM scan
    buffers, the attention broadcasts and the generator's score buffer.  By
    default glibc maps blocks above a dynamic threshold (at most 32 MiB) with
    mmap and trims freed heap tops, so each batch faults its scratch memory
    in afresh: about 1500 minor page faults per warm batch at the A4 shape,
    and about 10,500 at V=16000, E=H=128, B=16, T=20, where the 41 MB score
    buffer is mapped and unmapped on every batch.  Serving every block below
    64 MiB from the heap and trimming only above 256 MiB of free top keeps
    that memory faulted in across batches: both counts fall to 0.  Setting
    either parameter also turns off the dynamic threshold.  Elsewhere this
    does nothing.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold, m_trim_threshold = -3, -1
    if mallopt(m_mmap_threshold, 64 << 20):
        mallopt(m_trim_threshold, 256 << 20)


_keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BagReport",
    "Batch",
    "BeamConfig",
    "BleuReport",
    "BOS",
    "EOS",
    "EpochStats",
    "ExamplePair",
    "GradCheckReport",
    "Hypothesis",
    "LossBreakdown",
    "ModelConfig",
    "Node",
    "PAD",
    "ParameterStore",
    "ScheduleParams",
    "Seq2SeqModel",
    "ShapeError",
    "ToyTaskSpec",
    "UNK",
    "ValidationSet",
    "Vocab",
    "adam_step",
    "backward",
    "bag_loss",
    "bag_overlap",
    "bag_weight",
    "beam_search",
    "bow_probabilities",
    "build_vocab",
    "clip_gradients",
    "corpus_bleu",
    "extract_bag",
    "finite_difference_check",
    "generate_toy_corpus",
    "greedy_decode",
    "load_checkpoint",
    "load_pairs",
    "make_batches",
    "normalized_score",
    "save_checkpoint",
    "total_loss",
    "train_model",
    "word_loss",
]
