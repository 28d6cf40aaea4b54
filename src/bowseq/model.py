"""Bidirectional LSTM encoder-decoder with bilinear-tanh attention.

Per source position the encoder state is the elementwise sum of the forward
and backward LSTM outputs, so every layer keeps the same width and stacked
layers consume the summed outputs of the layer below.  The decoder attends
with its top-layer state q_t: scores tanh(q_t^T W h_i) are softmax-normalized
over real source positions, the context v_t is the weighted sum of encoder
states, and the generator maps v_t (or [q_t; v_t]) to pre-softmax scores s_t
over the target vocabulary.  The sentence-level bag-of-words probability is
sigmoid of the scores summed over the real target timesteps.

Sequences are time-major (T*B)-row matrices: rows t*B .. t*B+B-1 hold step
t.  Each LSTM layer and direction is one ``lstm_scan`` primitive, which
projects all its inputs in one matmul and steps through the positions.
The decoder has no input feeding, so under teacher forcing attention and
generator run once over all T steps, attention as one ``attention``
primitive from the decoder states to the contexts.  Decoding builds no
graph: ``start_decoding`` and each step at T=1 run the same kernels on
arrays, ``lstm_forward`` and ``attention_forward``, and decoding turns the
scores into log-probabilities.
Training builds the (T*B, V) scores once: one fused primitive takes the
word loss and the bag sum from them in log space, and its backward rule
turns them into their own gradient in place.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Node, ParameterStore
from .data import BOS, Batch

CHECKPOINT_MAGIC = b"BOWSEQCK"
CHECKPOINT_VERSION = 1

GENERATOR_INPUTS = ("context", "concat")


@dataclass(frozen=True)
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    emb_size: int = 64
    hidden_size: int = 64
    enc_layers: int = 1
    dec_layers: int = 1
    dropout: float = 0.2
    generator_input: str = "context"

    def __post_init__(self) -> None:
        if min(self.src_vocab_size, self.tgt_vocab_size) < 5:
            raise ValueError("vocabulary sizes must cover the 4 reserved indices plus content")
        if min(self.emb_size, self.hidden_size, self.enc_layers, self.dec_layers) < 1:
            raise ValueError("sizes and layer counts must be positive")
        if self.dec_layers > self.enc_layers:
            raise ValueError(
                f"dec_layers ({self.dec_layers}) must not exceed enc_layers ({self.enc_layers}):"
                " decoder states are seeded from the top encoder layers"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.generator_input not in GENERATOR_INPUTS:
            raise ValueError(f"generator_input must be one of {GENERATOR_INPUTS}")


@dataclass
class EncoderStates:
    """Training's graph encoding: summed states, validity mask, layer finals."""

    memory: Node                    # (L*B, H) time-major: rows i*B .. i*B+B-1 are position i
    mask: np.ndarray                # (B, L) float 0/1
    finals: list[tuple[tuple[Node, Node], tuple[Node, Node]]]  # [(fwd(h,c), bwd(h,c))] per layer


@dataclass
class DecoderState:
    layers: list[tuple[np.ndarray, np.ndarray]]  # (h, c) per layer, bottom first

    def gather(self, rows: np.ndarray) -> DecoderState:
        """The state of the given rows, in that order."""
        return DecoderState([(h[rows], c[rows]) for h, c in self.layers])


@dataclass
class StepOutput:
    """One decoding step's outputs."""

    scores: np.ndarray              # (rows, V) pre-softmax s_t
    state: DecoderState


@dataclass
class ForwardPass:
    """Teacher-forced outputs of all T steps; the losses read only these."""

    word: Node                       # word negative log-likelihood, mean over the batch
    bag_scores: Node                 # (B, K) bag columns' scores summed over real steps
    generator_input: Node            # (T*B, H or 2H) the generator's input, time-major
    generator: tuple[Node, Node]     # its weight and bias

    @property
    def scores(self) -> Node:
        """The (T*B, V) pre-softmax scores, time-major, built anew on every
        read: training never holds them whole.  A constant: no gradient
        flows back through them."""
        w, b = self.generator
        return ad.constant(parallel.matmul(self.generator_input.value, w.value, bias=b.value))


def bow_probabilities(step_scores: Sequence[Node], timesteps: Sequence[int] | None = None) -> Node:
    """Sentence-level bag probabilities: sigmoid of scores summed over steps.

    The (B, V) step scores are added by ``fold_steps`` in ascending timestep
    order, the fold that training's ``generator_losses`` runs for the bag.
    Floating-point addition does not associate, so that canonical order is
    what makes the result invariant to how callers permute their inputs.
    Timesteps default to list positions.  The result is a constant: no
    gradient flows back to the step scores.
    """
    step_scores = list(step_scores)
    if not step_scores:
        raise ValueError("bow_probabilities: empty input")
    if timesteps is None:
        timesteps = range(len(step_scores))
    timesteps = list(timesteps)
    if len(timesteps) != len(step_scores) or len(set(timesteps)) != len(timesteps):
        raise ValueError("bow_probabilities: timesteps must be unique and match the inputs")
    ranked = sorted(zip(timesteps, step_scores), key=lambda kv: kv[0])
    blocks = np.stack([n.value for _, n in ranked])
    units = np.ones((blocks.shape[1], len(blocks)))
    return ad.constant(ad.stable_sigmoid(ad.fold_steps(blocks, units)))


class LstmCell:
    """One LSTM layer; gates fused along columns as [input, forget, cell, output]."""

    def __init__(
        self,
        store: ParameterStore,
        prefix: str,
        input_size: int,
        hidden_size: int,
        init,
    ) -> None:
        self.hidden_size = hidden_size
        self.w_in = store.create(f"{prefix}.w_in", init((input_size, 4 * hidden_size)))
        self.w_rec = store.create(f"{prefix}.w_rec", init((hidden_size, 4 * hidden_size)))
        bias = init((1, 4 * hidden_size))
        bias[0, hidden_size : 2 * hidden_size] += 1.0  # forget-gate bias starts open
        self.bias = store.create(f"{prefix}.bias", bias)

    def step(
        self,
        x: Node,
        h: Node,
        c: Node,
        mask: np.ndarray | None = None,
        reverse: bool = False,
    ) -> tuple[Node, Node, Node]:
        """Run the layer over time-major inputs x (T*B, in) from the state
        (h, c), last step first if ``reverse``; rows with ``mask`` (B, T) 0
        (trailing PAD) keep their previous state.  Returns the (T*B, H)
        outputs in position order and the final (h, c)."""
        return ad.lstm_scan(x, self.w_in, self.bias, h, c, self.w_rec, mask, reverse)


class Seq2SeqModel:
    """Encoder, attention, decoder, and generator over a shared ParameterStore.

    Construction with an ``init_rng`` draws uniform(-0.1, 0.1) entries in
    registration order (embeddings, encoder layers fwd/bwd, decoder layers,
    attention, generator); without it all parameters start at zero, which is
    the hook checkpoint loading uses.
    """

    def __init__(self, config: ModelConfig, init_rng: np.random.Generator | None = None) -> None:
        self.config = config
        self.params = ParameterStore()
        if init_rng is None:
            init = lambda shape: np.zeros(shape)
        else:
            init = lambda shape: init_rng.uniform(-0.1, 0.1, shape)

        cfg = config
        self.src_embed = self.params.create("src_embed", init((cfg.src_vocab_size, cfg.emb_size)))
        self.tgt_embed = self.params.create("tgt_embed", init((cfg.tgt_vocab_size, cfg.emb_size)))
        self.enc_cells: list[tuple[LstmCell, LstmCell]] = []
        for layer in range(cfg.enc_layers):
            in_size = cfg.emb_size if layer == 0 else cfg.hidden_size
            fwd = LstmCell(self.params, f"enc.l{layer}.fwd", in_size, cfg.hidden_size, init)
            bwd = LstmCell(self.params, f"enc.l{layer}.bwd", in_size, cfg.hidden_size, init)
            self.enc_cells.append((fwd, bwd))
        self.dec_cells: list[LstmCell] = []
        for layer in range(cfg.dec_layers):
            in_size = cfg.emb_size if layer == 0 else cfg.hidden_size
            self.dec_cells.append(
                LstmCell(self.params, f"dec.l{layer}", in_size, cfg.hidden_size, init)
            )
        self.attn_bilinear = self.params.create(
            "attn.bilinear", init((cfg.hidden_size, cfg.hidden_size))
        )
        gen_in = cfg.hidden_size if cfg.generator_input == "context" else 2 * cfg.hidden_size
        self.gen_weight = self.params.create("gen.weight", init((gen_in, cfg.tgt_vocab_size)))
        self.gen_bias = self.params.create("gen.bias", init((1, cfg.tgt_vocab_size)))

    # -- helpers ------------------------------------------------------------

    def _maybe_dropout(self, x: Node, train: bool, rng: np.random.Generator | None) -> Node:
        rate = self.config.dropout
        if not train or rate == 0.0:
            return x
        if rng is None:
            raise ValueError("training-mode forward needs an RNG for dropout masks")
        return ad.dropout(x, ad.make_dropout_mask(rng, x.value.shape, rate))

    # -- encoder ------------------------------------------------------------

    def encode(
        self,
        source: np.ndarray,
        source_mask: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> EncoderStates:
        source = np.asarray(source)
        if source.ndim != 2:
            raise ValueError(f"source batch must be 2-d, got shape {source.shape}")
        batch, length = source.shape
        if length < 1:
            raise ValueError("empty source")
        if source_mask is None:
            source_mask = np.ones((batch, length), dtype=np.float64)
        # Rows are time-major, so one dropout draw covers the positions in order.
        x = self._maybe_dropout(
            ad.embedding_lookup(self.src_embed, source.T.reshape(-1)), train, rng
        )
        step_mask = None if np.all(source_mask > 0) else source_mask
        zeros = ad.constant(np.zeros((batch, self.config.hidden_size)))
        finals = []
        for layer, (fwd, bwd) in enumerate(self.enc_cells):
            if layer > 0:
                x = self._maybe_dropout(x, train, rng)
            fwd_out, fh, fc = fwd.step(x, zeros, zeros, step_mask)
            bwd_out, bh, bc = bwd.step(x, zeros, zeros, step_mask, reverse=True)
            finals.append(((fh, fc), (bh, bc)))
            x = ad.add(fwd_out, bwd_out)
        return EncoderStates(memory=x, mask=source_mask, finals=finals)

    def _seeds(self, finals: list) -> list:
        """Decoder layer j starts from encoder layer enc_layers - dec_layers + j."""
        return finals[self.config.enc_layers - self.config.dec_layers :]

    def start_decoding(self, source: np.ndarray, source_mask: np.ndarray) -> tuple:
        """``encode``'s arithmetic on arrays, with no graph: the memory in
        ``attention_layout``'s (keys, values, open) and the first ``DecoderState``.
        A layer's buffers go once the layer above has read its outputs."""
        x = ad.embedding_rows(self.src_embed.value, source.T.reshape(-1))
        drop = None if np.all(source_mask > 0) else (source_mask.T <= 0)[:, :, None]
        zeros = np.zeros((source.shape[0], self.config.hidden_size))
        finals = []
        for fwd, bwd in self.enc_cells:
            (fc, fh), (bc, bh) = (
                ad.lstm_forward(parallel.matmul(x, cell.w_in.value, bias=cell.bias.value),
                                zeros, zeros, cell.w_rec.value, drop, reverse)[1:]
                for cell, reverse in ((fwd, False), (bwd, True)))
            finals.append((fh[-1] + bh[0], fc[-1] + bc[0]))
            x = (fh + bh).reshape(-1, self.config.hidden_size)
            del fc, fh, bc, bh
        return ad.attention_layout(x, source_mask), DecoderState(self._seeds(finals))

    # -- attention ----------------------------------------------------------

    def attend(self, query: Node, encoded: EncoderStates) -> Node:
        """The (T*B, H) attention contexts of time-major decoder states
        ``query`` (T*B, H)."""
        return ad.attention(query, self.attn_bilinear, encoded.memory, encoded.mask)

    # -- decoder ------------------------------------------------------------

    def decode_step(self, prev_tokens: np.ndarray, state: DecoderState, memory: tuple) -> StepOutput:
        """One step for previous tokens (B,) over ``start_decoding``'s memory,
        on arrays: the teacher-forced pass's arithmetic at T = 1."""
        x = ad.embedding_rows(self.tgt_embed.value, prev_tokens)
        layers = []
        for cell, (h, c) in zip(self.dec_cells, state.layers):
            xw = parallel.matmul(x, cell.w_in.value, bias=cell.bias.value)
            _, c_all, h_all = ad.lstm_forward(xw, h, c, cell.w_rec.value)
            x = h_all[0]
            layers.append((x, c_all[0]))
        projected = parallel.matmul(x, self.attn_bilinear.value)
        context = ad.attention_forward(projected, *memory)[2]
        gen_in = context if self.config.generator_input == "context" else np.concatenate(
            [x, context], axis=1)
        scores = parallel.matmul(gen_in, self.gen_weight.value, bias=self.gen_bias.value)
        return StepOutput(scores, DecoderState(layers))

    # -- full teacher-forced pass -------------------------------------------

    def forward_teacher_forced(
        self,
        batch: Batch,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> ForwardPass:
        """The decoder under teacher forcing, ending in the fused generator,
        word loss and bag sum of ``generator_losses``."""
        encoded = self.encode(batch.source, batch.source_mask, train, rng)
        bos = np.full((1, batch.size), BOS, dtype=np.int64)
        prev = np.concatenate([bos, batch.target[:, :-1].T]).reshape(-1)
        x = self._maybe_dropout(ad.embedding_lookup(self.tgt_embed, prev), train, rng)
        seeds = self._seeds(encoded.finals)
        for layer, (cell, ((fh, fc), (bh, bc))) in enumerate(zip(self.dec_cells, seeds)):
            if layer > 0:
                x = self._maybe_dropout(x, train, rng)
            x, _, _ = cell.step(x, ad.add(fh, bh), ad.add(fc, bc))
        context = self.attend(x, encoded)
        if self.config.generator_input == "context":
            gen_in = context
        else:
            gen_in = ad.concat_cols([x, context])
        generator = (self.gen_weight, self.gen_bias)
        word, bag = ad.generator_losses(gen_in, *generator, batch.target, batch.target_mask,
                                        batch.bag_columns)
        return ForwardPass(word, bag, gen_in, generator)


def save_checkpoint(model: Seq2SeqModel, path: str | Path) -> None:
    """Binary layout: magic, version, config JSON, then each parameter as
    (name length, name bytes, rank, dims, little-endian float64 row-major).
    Parameters appear in registration order, making files bit-reproducible.

    The bytes go to a sibling ``<name>.tmp`` file, which is flushed to disk
    and then renamed over ``path``: a crash leaves either the old checkpoint
    or the new one, never a truncated file.
    """
    header = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks.append(struct.pack("<I", len(header)))
    chunks.append(header)
    names = model.params.names()
    chunks.append(struct.pack("<I", len(names)))
    for name, node in model.params.items():
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(node.value, dtype="<f8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes(order="C"))
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with partial.open("wb") as out:
            out.writelines(chunks)
            out.flush()
            os.fsync(out.fileno())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


class CheckpointError(ValueError):
    pass


def load_checkpoint(path: str | Path) -> Seq2SeqModel:
    blob = Path(path).read_bytes()
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"truncated checkpoint {path}")
        piece = view[pos : pos + n]
        pos += n
        return piece

    if bytes(take(len(CHECKPOINT_MAGIC))) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a model checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", take(4))
    config = ModelConfig(**json.loads(bytes(take(hlen)).decode("utf-8")))
    model = Seq2SeqModel(config)

    (count,) = struct.unpack("<I", take(4))
    seen = []
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        name = bytes(take(nlen)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        data = np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
        if name not in model.params:
            raise CheckpointError(f"unexpected parameter {name!r} in {path}")
        node = model.params[name]
        if node.value.shape != shape:
            raise CheckpointError(
                f"parameter {name!r} shape {shape} does not match model {node.value.shape}"
            )
        node.value[...] = data
        seen.append(name)
    if pos != len(view):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    if seen != model.params.names():
        raise CheckpointError(f"checkpoint parameter set does not match model in {path}")
    return model
