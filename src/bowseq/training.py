"""Epoch-driven training with seeded determinism and per-epoch checkpoints.

All randomness flows from one master generator in a documented order: model
initialization first, then per epoch one integer draw for the batch shuffle
followed by dropout masks in forward execution order.  Identical settings
therefore reproduce bit-identical parameter trajectories, checkpoints, and
metrics (the wall-clock column aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Batch, ExamplePair, Vocab, make_batches
from .inference import _check_source, greedy_decode_batch
from .metrics import bag_overlap, corpus_bleu
from .model import Seq2SeqModel, save_checkpoint
from .objectives import (
    AdamState,
    LossBreakdown,
    NonFiniteGradientError,
    ScheduleParams,
    adam_step,
    bag_loss,
    bag_weight,
    clip_gradients,
    total_loss,
    word_loss,
)
from . import autodiff as ad

LOG_HEADER = (
    "# epoch\tbag_weight\tword_loss\tbag_loss\ttotal_loss\twall_s\tval_bleu\tval_bag_f1\n"
    "# losses are epoch means; wall_s is nondeterministic timing\n"
)


class TrainingError(RuntimeError):
    pass


@dataclass
class ValidationSet:
    sources: list[list[int]]
    references: list[list[str]]
    vocab: Vocab


@dataclass
class EpochStats:
    epoch: int
    bag_weight: float
    word_loss: float
    bag_loss: float
    total_loss: float
    wall_seconds: float
    val_bleu: float | None = None
    val_bag_f1: float | None = None
    batches: list[LossBreakdown] = field(default_factory=list)

    def log_line(self) -> str:
        bleu = "NA" if self.val_bleu is None else f"{self.val_bleu:.2f}"
        f1 = "NA" if self.val_bag_f1 is None else f"{self.val_bag_f1:.4f}"
        return (
            f"{self.epoch}\t{self.bag_weight:.6g}\t{self.word_loss:.10g}\t"
            f"{self.bag_loss:.10g}\t{self.total_loss:.10g}\t{self.wall_seconds:.3f}\t"
            f"{bleu}\t{f1}\n"
        )


def _check_validation(model: Seq2SeqModel, val: ValidationSet) -> None:
    """What ``_validate`` needs of the set, checked before the first epoch
    trains rather than after it."""
    if not val.sources:
        raise ValueError("validation set has no sentence")
    if len(val.references) != len(val.sources):
        raise ValueError(f"validation set has {len(val.sources)} sources but "
                         f"{len(val.references)} references")
    if len(val.vocab) != model.config.tgt_vocab_size:
        raise ValueError(f"validation vocabulary has {len(val.vocab)} entries, the model's "
                         f"target vocabulary {model.config.tgt_vocab_size}")
    for source in val.sources:
        _check_source(model, source)


def _validate(model: Seq2SeqModel, val: ValidationSet) -> tuple[float, float]:
    decoded = greedy_decode_batch(model, val.sources)
    hyps = [val.vocab.decode(ids) for ids in decoded]
    return corpus_bleu(hyps, val.references).bleu, bag_overlap(hyps, val.references).f1


def _train_batch(
    model: Seq2SeqModel,
    batch: Batch,
    weight: float,
    clip_norm: float,
    adam: AdamState,
    rng: np.random.Generator,
    epoch: int,
    index: int,
) -> LossBreakdown:
    """Forward, backward, clip and one Adam step for one batch.

    The gradients live from the backward pass to the Adam step that reads
    them and are released there, also when the step raises, so neither the
    next batch nor the epoch-end validation and checkpoints run beside them.
    Gradients a caller left behind are released before the forward pass.
    The batch's graph is local here, so it is freed on return, before the
    next batch builds its own.
    """
    model.params.zero_gradients()
    forward = model.forward_teacher_forced(batch, train=True, rng=rng)
    l_word = word_loss(forward)
    l_bag = bag_loss(forward.bag_scores, batch.bag_indicator)
    loss = total_loss(l_word, l_bag, weight)
    breakdown = LossBreakdown(float(l_word.value), float(l_bag.value), weight)
    if not np.isfinite(breakdown.total):
        raise TrainingError(
            f"non-finite loss at epoch {epoch}, batch {index}: "
            f"word={breakdown.word} bag={breakdown.bag}"
        )
    try:
        ad.backward(loss)
        breakdown.clip_factor = clip_gradients(model.params, clip_norm)
        adam_step(model.params, adam)
    except NonFiniteGradientError as err:
        raise TrainingError(
            f"non-finite gradient at epoch {epoch}, batch {index}: "
            f"first in parameter {err.parameter!r}"
        ) from err
    finally:
        model.params.zero_gradients()
    return breakdown


def train_model(
    model: Seq2SeqModel,
    pairs: Sequence[ExamplePair],
    schedule: ScheduleParams,
    rng: np.random.Generator,
    *,
    epochs: int,
    batch_size: int,
    lr: float = 3e-4,
    clip_norm: float = 10.0,
    validation: ValidationSet | None = None,
    checkpoint_dir: str | Path | None = None,
    log_path: str | Path | None = None,
    record_batches: bool = False,
) -> list[EpochStats]:
    """Run the full training loop; returns one EpochStats per epoch.

    ``rng`` must be the same generator that initialized ``model`` so the
    draw order stays reproducible.  A non-finite loss or gradient aborts with
    the epoch and batch index before that batch updates any parameter,
    rather than training onward from poisoned parameters.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be positive, got {epochs}")
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not clip_norm > 0:
        raise ValueError(f"clip_norm must be positive, got {clip_norm}")
    if not pairs:
        raise ValueError("no training pairs")
    if validation is not None:
        _check_validation(model, validation)
    ckpt_dir = None
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    log_file = None
    if log_path is not None:
        Path(log_path).parent.mkdir(parents=True, exist_ok=True)
        log_file = open(log_path, "w", encoding="utf-8")
        log_file.write(LOG_HEADER)
        log_file.flush()

    vocab_size = model.config.tgt_vocab_size
    adam = AdamState.for_store(model.params, lr=lr)
    history: list[EpochStats] = []
    try:
        for epoch in range(epochs):
            started = time.perf_counter()
            weight = bag_weight(epoch, schedule)
            shuffle_seed = int(rng.integers(0, 2**63))
            batches = make_batches(pairs, batch_size, vocab_size, shuffle_seed)
            word_sum = bag_sum = total_sum = 0.0
            recorded: list[LossBreakdown] = []
            for index, batch in enumerate(batches):
                breakdown = _train_batch(model, batch, weight, clip_norm, adam, rng, epoch, index)
                word_sum += breakdown.word
                bag_sum += breakdown.bag
                total_sum += breakdown.total
                if record_batches:
                    recorded.append(breakdown)

            stats = EpochStats(
                epoch=epoch,
                bag_weight=weight,
                word_loss=word_sum / len(batches),
                bag_loss=bag_sum / len(batches),
                total_loss=total_sum / len(batches),
                wall_seconds=0.0,
                batches=recorded,
            )
            if validation is not None:
                stats.val_bleu, stats.val_bag_f1 = _validate(model, validation)
            stats.wall_seconds = time.perf_counter() - started
            history.append(stats)
            if log_file is not None:
                log_file.write(stats.log_line())
                log_file.flush()
            if ckpt_dir is not None:
                save_checkpoint(model, ckpt_dir / f"epoch-{epoch:03d}.ckpt")
        if ckpt_dir is not None:
            save_checkpoint(model, ckpt_dir / "final.ckpt")
    finally:
        if log_file is not None:
            log_file.close()
    return history
