"""Training objectives: word loss, bag loss, weight schedule, optimizer.

Both loss terms are means over the batch and come from pre-softmax scores,
so they are computed in log space and no probability is floored.  The word
loss is the negative log-likelihood of each gold token under the softmax of
its step's scores, summed over real target positions; the teacher-forced
pass computes it, fused with the generator.  The bag loss scores the
sentence-level sigmoid of the step-summed scores against the bag, the set
of regular target words, as the one primitive ``bag_nll``: only the words
in the bag are penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Node, ParameterStore
from .model import ForwardPass

@dataclass(frozen=True)
class ScheduleParams:
    """Bag-weight schedule: weight(epoch) = min(cap, start + slope * epoch)."""

    cap: float = 1.0
    start: float = 0.1
    slope: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= self.cap:
            raise ValueError(f"need 0 <= start <= cap, got start={self.start} cap={self.cap}")
        if self.slope < 0.0:
            raise ValueError(f"slope must be non-negative, got {self.slope}")

    @classmethod
    def baseline(cls) -> "ScheduleParams":
        return cls(cap=0.0, start=0.0, slope=0.0)


def bag_weight(epoch: int, params: ScheduleParams) -> float:
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return min(params.cap, params.start + params.slope * epoch)


@dataclass
class LossBreakdown:
    word: float
    bag: float
    weight: float
    clip_factor: float = 1.0        # what clip_gradients scaled the gradients by

    @property
    def total(self) -> float:
        return self.word + self.weight * self.bag


def word_loss(forward: ForwardPass) -> Node:
    """Mean over the batch of the summed gold-token negative log-likelihood,
    logsumexp minus the gold score of each real target step's scores.  The
    teacher-forced pass computes it inside ``generator_losses``, together
    with the bag sum, so that the (T*B, V) scores are never built whole;
    this reads that node."""
    return forward.word


def bag_loss(bag_scores: Node, indicator: np.ndarray) -> Node:
    """Mean over the batch of the bag negative log-likelihood, from the
    step-summed scores s of each bag's columns: -log sigmoid(s), which is
    softplus(-s), on each word of the bag.  ``indicator`` is the 0/1 mask
    of s, a batch's ``bag_indicator``; rows with an empty bag contribute
    zero.  The result is one ``bag_nll`` node on ``bag_scores``."""
    return ad.bag_nll(bag_scores, indicator)


def total_loss(word: Node, bag: Node | None, weight: float) -> Node:
    """word + weight * bag; the bag term is left out of the graph at weight 0."""
    if bag is None or weight == 0.0:
        return word
    return ad.add(word, ad.scale(bag, float(weight)))


# 256 KB of float64 per array: a block's value, gradient, moments and scratch
# stay in cache across Adam's dozen elementwise operations, and clipping's
# squares need no full-size temporary.
_BLOCK = 1 << 15


class NonFiniteGradientError(FloatingPointError):
    """The global gradient norm is not finite; names the parameter at which
    the running sum of squares first stopped being finite."""

    def __init__(self, parameter: str) -> None:
        self.parameter = parameter
        super().__init__(f"non-finite gradient norm at parameter {parameter!r}")


def clip_gradients(store: ParameterStore, max_norm: float = 10.0) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the factor applied (1.0 when no clipping was needed).  A
    non-finite norm raises NonFiniteGradientError before any gradient is
    touched: scaling an inf entry by a zero factor would only turn it into
    NaN.  The blocks' squares are summed in parallel parts, each through a
    block-sized scratch array that the part allocates itself, and the block
    sums are added in block order: the total does not depend on how the
    blocks were split.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for name, node in store.items():
        g = node.grad.reshape(-1)
        sums = np.empty(-(-g.size // _BLOCK))

        def sum_squares(lo: int, hi: int) -> None:
            squares = np.empty(min(_BLOCK, g.size))
            for j in range(lo, hi):
                block = g[j * _BLOCK : (j + 1) * _BLOCK]
                np.multiply(block, block, out=squares[: block.size])
                sums[j] = squares[: block.size].sum()

        parallel.each(sum_squares, sums.size, g.size)
        for block_sum in sums.tolist():
            total += block_sum
        if not math.isfinite(total):
            raise NonFiniteGradientError(name)
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for _, node in store.items():
        if node._grad is not None:  # a missing gradient reads as read-only zeros
            grad = np.atleast_1d(node._grad)
            parallel.each(lambda lo, hi: np.multiply(grad[lo:hi], factor, out=grad[lo:hi]),
                          len(grad), grad.size)
    return factor


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the step counter."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_store(cls, store: ParameterStore, lr: float = 3e-4, **kwargs) -> "AdamState":
        state = cls(lr=lr, **kwargs)
        for name, node in store.items():
            state.m[name] = np.zeros_like(node.value)
            state.v[name] = np.zeros_like(node.value)
        return state


def adam_step(store: ParameterStore, state: AdamState) -> None:
    """One bias-corrected Adam update from the currently accumulated gradients.

    Walks each parameter in cache-sized blocks, the blocks in parallel; each
    part allocates its own pair of block-sized scratch arrays, so no
    operation makes a full-size temporary.  The arithmetic is elementwise
    and in the whole-array formula's order, so the result is bit-identical.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1 ** state.step
    correct2 = 1.0 - b2 ** state.step
    for name, node in store.items():
        # Views: the stored arrays are C-contiguous (see ParameterStore.create).
        x = node.value.reshape(-1)
        m = state.m[name].reshape(-1)
        v = state.v[name].reshape(-1)
        g = node.grad.reshape(-1)

        def update(first: int, last: int) -> None:
            pair = np.empty((2, min(_BLOCK, x.size)))
            for lo in range(first * _BLOCK, min(last * _BLOCK, x.size), _BLOCK):
                hi = lo + _BLOCK
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                s, t = pair[0][: gb.size], pair[1][: gb.size]
                mb *= b1
                np.multiply(1.0 - b1, gb, out=s)
                mb += s
                vb *= b2
                np.multiply(gb, gb, out=s)
                s *= 1.0 - b2
                vb += s
                # x -= lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(vb, correct2, out=s)
                np.sqrt(s, out=s)
                s += state.eps
                np.divide(mb, correct1, out=t)
                t *= state.lr
                t /= s
                x[lo:hi] -= t

        parallel.each(update, -(-x.size // _BLOCK), x.size)
