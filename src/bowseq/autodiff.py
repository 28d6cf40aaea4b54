"""Minimal reverse-mode automatic differentiation over float64 arrays.

The graph is define-by-run: every primitive eagerly computes its value,
records its parents, and stores a rule that pushes the output gradient back
into them.  Graphs are rebuilt for every forward pass; nothing is cached
between steps.

Graphs must stay acyclic, so that reference counting frees each one as soon
as its root is dropped and the cyclic garbage collector never has work to
do.  A node references its parents and its backward rule; the rule
references the parents and the arrays it saved, never its own output node:
``backward`` passes that node in as the rule's argument.  A graph is
backpropagated once: ``backward`` drops each rule, and with it the arrays
it saved, as soon as the rule has run, and refuses a graph that has lost a
rule.  A missing gradient reads as a zero view and stores nothing, so
forward-only graphs and constants never allocate one.  Every rule hands each
of its inputs its share through ``_accumulate``, and ``_accumulate`` alone
decides who keeps a gradient: a node that needs none drops its share, so no
rule asks which of its inputs are constants.

The model runs on one coarse primitive per layer, each with a hand-written
backward rule over time-major (T*B)-row matrices, which hold T steps of B
rows: ``lstm_scan`` runs a whole LSTM layer in one direction, input projection
included, ``attention`` takes the bilinear projection, weights and contexts of
all decoder steps at once, and the losses work in log space on the scores.
The forward arithmetic of the LSTM and attention primitives is a plain
function on arrays (``lstm_forward``, and ``attention_forward`` over the
encoder layout of ``attention_layout``), which decoding calls without a graph.
``generator_losses`` fuses the generator with the word loss and the sum
of each sentence's bag columns, so that training holds the (T*B, V) scores
once, in one buffer that their gradient overwrites, and never a (B, V) bag,
and ``bag_nll`` is the whole bag loss on the (B, K) bag.  The bag sum is
``fold_steps``, the one fold of steps that ``model.bow_probabilities`` runs
too.  Nothing floors a probability: there is no word softmax, no log node
and no sigmoid node; ``stable_sigmoid`` and ``stable_softplus`` are array
functions.

Nothing broadcasts implicitly.  The elementwise ``add`` and ``mul`` take
two arrays of one shape; a bias is a (1, n) row of ``lstm_scan`` or
``generator_losses``, whose backward rule sums its gradient over rows.
Anything richer (gold-column losses, the bag loss, attention over a memory)
is its own primitive with an explicit backward rule, so no gradient ever
flows through an implicit numpy broadcast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import parallel


class ShapeError(ValueError):
    """Operand shapes violate a primitive's conformance rule."""

    def __init__(self, op: str, *shapes: tuple) -> None:
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        rendered = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {rendered}")


class Node:
    """One value in the computation graph.

    ``grad`` always has the same shape as ``value``.  A node with no
    gradient reads as a read-only zero view and stores nothing; every rule
    adds through ``_accumulate``, which adopts the first contribution.
    ``requires_grad`` holds for a parameter and for every node computed from
    one: it decides which rules ``backward`` runs, and which nodes
    ``_accumulate`` lets keep a gradient.  Leaves (no parents) accumulate
    gradients across graphs until released.  An interior node's gradient
    lives only from its first contribution to the end of its own rule.
    ``backward`` calls that rule once, as ``_backward(node)`` with the node
    itself, so no rule needs to capture its own output, and takes it off the
    node before the call.
    """

    __slots__ = ("value", "_grad", "parents", "requires_grad", "_backward")

    def __init__(
        self,
        value,
        parents: Sequence["Node"] = (),
        requires_grad: bool = False,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self.parents = tuple(parents)
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self._backward: Callable[[Node], None] | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            return np.broadcast_to(0.0, self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if not self.parents else "op"
        return f"Node({kind}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value) -> Node:
    """Leaf that never receives a gradient: ``_accumulate`` drops whatever
    a rule hands it."""
    return Node(value)


def parameter(value) -> Node:
    """Trainable leaf; gradients accumulate until zeroed."""
    return Node(value, requires_grad=True)


def _accumulate(node: Node, fresh: np.ndarray) -> None:
    """Add ``fresh``, an array of the node's shape that nothing else holds,
    into the node's gradient; a node with no gradient yet adopts it.  This
    is the one place that decides who keeps a gradient: a node whose
    ``requires_grad`` is false, a constant or a node computed from constants
    alone, drops ``fresh``."""
    if not node.requires_grad:
        return
    if node._grad is None:
        node._grad = fresh
    else:
        node._grad += fresh


# ---------------------------------------------------------------------------
# elementwise and matrix primitives
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of two arrays of one shape."""
    if a.value.shape != b.value.shape:
        raise ShapeError("add", a.value.shape, b.value.shape)
    out = Node(a.value + b.value, parents=(a, b))

    def backward(out: Node) -> None:
        _accumulate(a, out.grad.copy())
        _accumulate(b, out.grad.copy())

    out._backward = backward
    return out


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of two arrays of one shape."""
    if a.value.shape != b.value.shape:
        raise ShapeError("mul", a.value.shape, b.value.shape)
    out = Node(a.value * b.value, parents=(a, b))

    def backward(out: Node) -> None:
        _accumulate(a, out.grad * b.value)
        _accumulate(b, out.grad * a.value)

    out._backward = backward
    return out


def scale(a: Node, factor: float) -> Node:
    """Multiply by a non-differentiable Python scalar."""
    factor = float(factor)
    out = Node(a.value * factor, parents=(a,))

    def backward(out: Node) -> None:
        _accumulate(a, out.grad * factor)

    out._backward = backward
    return out


def sum_all(a: Node) -> Node:
    """Reduce to a 0-d scalar."""
    out = Node(a.value.sum(), parents=(a,))

    def backward(out: Node) -> None:
        _accumulate(a, np.full(a.value.shape, out.grad))

    out._backward = backward
    return out


def embedding_rows(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Rows of a (V, E) table array by an integer index vector; an index
    outside [0, V) is an error, not a wrap."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("embedding_lookup: indices must be a 1-d integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embedding_lookup: index out of range for table of {table.shape[0]} rows")
    return table[idx]


def embedding_lookup(table: Node, indices: np.ndarray) -> Node:
    """Gather rows of a (V, E) table by an integer index vector."""
    if table.value.ndim != 2:
        raise ShapeError("embedding_lookup", table.value.shape)
    idx = np.asarray(indices)
    out = Node(embedding_rows(table.value, idx), parents=(table,))

    def backward(out: Node) -> None:
        d_table = np.zeros_like(table.value)
        np.add.at(d_table, idx, out.grad)
        _accumulate(table, d_table)

    out._backward = backward
    return out


def concat_cols(nodes: Sequence[Node]) -> Node:
    """Concatenate (m, n_i) matrices along columns."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("concat_cols: empty input")
    rows = nodes[0].value.shape[0]
    for n in nodes:
        if n.value.ndim != 2 or n.value.shape[0] != rows:
            raise ShapeError("concat_cols", *(m.value.shape for m in nodes))
    out = Node(np.concatenate([n.value for n in nodes], axis=1), parents=nodes)
    offsets = np.cumsum([0] + [n.value.shape[1] for n in nodes])

    def backward(out: Node) -> None:
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accumulate(n, out.grad[:, lo:hi].copy())

    out._backward = backward
    return out


def dropout(a: Node, mask: np.ndarray) -> Node:
    """Apply a precomputed inverted-dropout mask (entries 0 or 1/keep).

    Evaluation mode simply skips this op; callers draw masks only while
    training so the RNG stream is untouched otherwise.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.value.shape:
        raise ShapeError("dropout", a.value.shape, mask.shape)
    out = Node(a.value * mask, parents=(a,))

    def backward(out: Node) -> None:
        _accumulate(a, out.grad * mask)

    out._backward = backward
    return out


def make_dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Inverted-dropout mask: kept entries scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) >= rate).astype(np.float64) / keep


# ---------------------------------------------------------------------------
# fused model kernels
# ---------------------------------------------------------------------------


def lstm_scan(x: Node, w_in: Node, bias: Node, h: Node, c: Node, w_rec: Node,
              mask: np.ndarray | None = None, reverse: bool = False) -> tuple[Node, Node, Node]:
    """A whole LSTM layer: the input projection x @ w_in + bias in one
    product, then every step's gates, state update and padding carry.

    ``x`` holds the inputs of T steps of B rows, time-major, B being the
    rows of the initial (h, c).  Gates lie along columns as [input, forget,
    cell, output].  The steps run in position order, or last position first
    if ``reverse``.  ``mask``, a (B, T) 0/1 array, marks real positions: a
    row with mask 0 carries its previous h and c through the step unchanged.

    Returns the nodes (outputs, h', c'): the (T*B, H) states of every step
    in position order, and the state after the last step taken, all views of
    the forward's (T, B, ·) buffers.  They are one primitive: c' holds the
    backward rule, h' is a child of c' and outputs of h', and their own
    rules only hand their gradients over.  The forward is ``lstm_forward``,
    and the layer keeps its tz, c and h, 6H floats per row and step; after
    the backward rule only c and h, 2H, since tz goes with the rule.  The
    rule recomputes the gates and tanh(c) with the forward's ufuncs, turns
    tz into the slope in place, walks the steps in reverse, writing every dz
    into one (T*B, 4H) array and adding the recurrent weight gradient step
    by step, and ends with the products of the input projection's gradients
    on that array.
    """
    batch, hs = h.value.shape
    rows = x.value.shape[0]
    if (
        x.value.ndim != 2
        or w_in.value.shape != (x.value.shape[1], 4 * hs)
        or bias.value.shape != (1, 4 * hs)
        or rows == 0
        or batch == 0
        or rows % batch
        or c.value.shape != h.value.shape
        or w_rec.value.shape != (hs, 4 * hs)
    ):
        raise ShapeError("lstm_scan", x.value.shape, w_in.value.shape, bias.value.shape,
                         h.value.shape, c.value.shape, w_rec.value.shape)
    steps = rows // batch
    drop = None
    if mask is not None:
        if np.shape(mask) != (batch, steps):
            raise ShapeError("lstm_scan", x.value.shape, h.value.shape, np.shape(mask))
        drop = (np.asarray(mask, dtype=np.float64).T <= 0)[:, :, None]  # (T, B, 1)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    w = w_rec.value
    xw = parallel.matmul(x.value, w_in.value, bias=bias.value)
    tz, c_all, h_all = lstm_forward(xw, h.value, c.value, w, drop, reverse)
    scale, shift, scale_sq = _gate_columns(hs)
    c_out = Node(c_all[order[-1]], parents=(x, w_in, bias, h, c, w_rec))
    h_out = Node(h_all[order[-1]], parents=(c_out,))
    outputs = Node(h_all.reshape(rows, hs), parents=(h_out,))
    handed_over: list[np.ndarray | None] = []

    def hand_over(out: Node) -> None:
        handed_over.append(out._grad)

    def backward_c(out: Node) -> None:
        # The outputs rule runs before the h' rule, so h''s gradient pops first.
        dh = handed_over.pop() if handed_over else None
        d_outputs = handed_over.pop() if handed_over else None
        d_steps = None if d_outputs is None else d_outputs.reshape(steps, batch, hs)
        # An absent child reads as zero.
        dh = np.zeros((batch, hs)) if dh is None else dh
        dc = np.zeros((batch, hs)) if out._grad is None else out._grad
        slope = tz  # turned into the slope in place: the graph is backpropagated once
        act = slope * scale
        act += shift
        i_all, f_all, g_all, o_all = (act[:, :, k * hs : (k + 1) * hs] for k in range(4))
        # d act / d z is (1 - tz^2) / 4 on the sigmoid blocks and 1 - tz^2 on g.
        np.multiply(slope, slope, out=slope)
        np.subtract(1.0, slope, out=slope)
        slope *= scale_sq
        # On a padded row this is tanh of the carried c, which no term reads.
        tanh_c_all = np.tanh(c_all)
        d_tanh_c = tanh_c_all * tanh_c_all
        np.subtract(1.0, d_tanh_c, out=d_tanh_c)
        dz_all = np.empty((rows, 4 * hs))
        for t in reversed(order):
            first = t == order[0]
            prev = t + 1 if reverse else t - 1
            if d_steps is not None:
                dh = dh + d_steps[t]
            dc_t = dc + dh * o_all[t] * d_tanh_c[t]
            dz = dz_all[t * batch : (t + 1) * batch]
            np.multiply(dc_t, g_all[t], out=dz[:, :hs])
            np.multiply(dc_t, c.value if first else c_all[prev], out=dz[:, hs : 2 * hs])
            np.multiply(dc_t, i_all[t], out=dz[:, 2 * hs : 3 * hs])
            np.multiply(dh, tanh_c_all[t], out=dz[:, 3 * hs :])
            dz *= slope[t]
            dh_prev, dc_prev = parallel.matmul(dz, w.T), dc_t * f_all[t]
            if drop is not None:
                # Padded rows hand their gradient straight to the previous
                # state.  That is the sum of the carry and the step's own
                # terms: on a padded row the terms are zero, on a real row
                # the carry is.
                np.copyto(dz, 0.0, where=drop[t])
                np.copyto(dh_prev, dh, where=drop[t])
                np.copyto(dc_prev, dc, where=drop[t])
            _accumulate(w_rec, parallel.matmul((h.value if first else h_all[prev]).T, dz))
            dh, dc = dh_prev, dc_prev
        del slope, act, i_all, f_all, g_all, o_all, tanh_c_all, d_tanh_c
        _accumulate(x, parallel.matmul(dz_all, w_in.value.T))
        _accumulate(w_in, parallel.matmul(x.value.T, dz_all))
        _accumulate(bias, dz_all.sum(axis=0, keepdims=True))
        _accumulate(h, dh)
        _accumulate(c, dc)

    outputs._backward = hand_over
    h_out._backward = hand_over
    c_out._backward = backward_c
    return outputs, h_out, c_out


def lstm_forward(xw: np.ndarray, h: np.ndarray, c: np.ndarray, w_rec: np.ndarray,
                 drop: np.ndarray | None = None, reverse: bool = False) -> tuple[np.ndarray, ...]:
    """The forward arithmetic of ``lstm_scan`` on arrays; ``drop`` is None
    or the (T, B, 1) bool array of padded rows.  Returns the (T, B, ·)
    buffers (tz, c, h): tanh of the scaled pre-activations, written over the
    (T*B, 4H) projections ``xw``, which nothing else may read, and every
    step's state, carried on padded rows; the gates and tanh(c) are scratch."""
    batch, hs = h.shape
    steps = xw.shape[0] // batch
    tz = xw.reshape(steps, batch, 4 * hs)   # tanh(scale * z), in place
    # sigmoid(z) = 0.5 + 0.5 tanh(z / 2), so one tanh over the four gate
    # blocks, scaled per column, yields all gate activations at once.
    scale, shift, _ = _gate_columns(hs)
    hw = np.empty((batch, 4 * hs))
    act = np.empty((batch, 4 * hs))  # [i, f, g, o]
    tanh_c = np.empty((batch, hs))
    c_all = np.empty((steps, batch, hs))
    h_all = np.empty((steps, batch, hs))
    i, f, g, o = (act[:, k * hs : (k + 1) * hs] for k in range(4))
    h_prev, c_prev = h, c
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        z = tz[t]
        z += parallel.matmul(h_prev, w_rec, hw)
        z *= scale
        np.tanh(z, out=z)
        np.multiply(z, scale, out=act)
        act += shift
        np.multiply(f, c_prev, out=c_all[t])
        c_all[t] += i * g
        np.tanh(c_all[t], out=tanh_c)
        np.multiply(o, tanh_c, out=h_all[t])
        if drop is not None:
            np.copyto(h_all[t], h_prev, where=drop[t])
            np.copyto(c_all[t], c_prev, where=drop[t])
        h_prev, c_prev = h_all[t], c_all[t]
    return tz, c_all, h_all


@functools.lru_cache(maxsize=None)
def _gate_columns(hs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column (scale, shift, scale**2) that turn tanh into the [i, f,
    g, o] gates: act = scale * tanh(scale * z) + shift is sigmoid on i, f, o
    and tanh on g."""
    scale = np.full((1, 4 * hs), 0.5)
    scale[0, 2 * hs : 3 * hs] = 1.0
    shift = np.full((1, 4 * hs), 0.5)
    shift[0, 2 * hs : 3 * hs] = 0.0
    columns = (scale, shift, scale * scale)
    for array in columns:
        array.flags.writeable = False
    return columns


#: Most entries ``attention_forward`` holds in one temporary: 2^23 float64
#: entries, 64 MiB.  It runs its steps in chunks that fit it.
_SCORE_BUDGET = 1 << 23


def attention(query: Node, bilinear: Node, memory: Node, mask: np.ndarray) -> Node:
    """Bilinear-tanh attention contexts of T*B queries over a source memory.

    ``query`` is (T*B, H), the decoder states; ``bilinear`` the (H, H)
    matrix; ``memory`` (L*B, H), the encoder states, both time-major;
    ``mask`` the (B, L) 0/1 source mask.  Row t*B + b of the weights is the
    softmax over real positions i of tanh((query @ bilinear)[t*B + b] .
    memory[i*B + b]), exactly 0 at masked positions, and row t*B + b of the
    (T*B, H) result is the sum over i of those weights times memory[i*B +
    b].  Every output entry is computed the same way whatever T is, so one
    decoder step gives the same bits as the same step inside a longer pass.
    The forward is ``attention_layout`` and ``attention_forward``.

    The backward rule takes the context term first, adding its memory
    gradient and forming the weights' gradient, then the weights term,
    adding its memory gradient: the order in which separate weights and
    context nodes ran.  The projected queries' (T*B, H) gradient then gives
    those of ``query`` and ``bilinear``.
    """
    batch, length = np.shape(mask)
    rows, hidden = query.value.shape[0], query.value.shape[-1]
    if (
        query.value.ndim != 2
        or bilinear.value.shape != (hidden, hidden)
        or memory.value.shape != (length * batch, hidden)
        or rows % batch
    ):
        raise ShapeError("attention", query.value.shape, bilinear.value.shape,
                         memory.value.shape, (batch, length))
    steps = rows // batch
    keys, values, open_ = attention_layout(memory.value, mask)
    projected = parallel.matmul(query.value, bilinear.value)
    act, w, contexts = attention_forward(projected, keys, values, open_)
    out = Node(contexts, parents=(query, bilinear, memory))

    def backward(out: Node) -> None:
        g = out.grad.reshape(steps, batch, hidden).transpose(1, 0, 2)  # (B, T, H)
        # The weights' (T, B, L) gradient, C-contiguous as a weights node
        # held it, so that its row sums below add in that node's order.
        g_w = np.ascontiguousarray((g @ values).transpose(1, 0, 2))
        dm = (w.transpose(1, 2, 0) @ g).transpose(1, 0, 2)
        _accumulate(memory, dm.reshape(memory.value.shape))
        d_act = w * (g_w - (g_w * w).sum(axis=2, keepdims=True))
        d_energy = (d_act * (1.0 - act * act)).transpose(1, 0, 2)  # (B, T, L)
        qb = projected.reshape(steps, batch, hidden).transpose(1, 0, 2)
        dm = (d_energy.transpose(0, 2, 1) @ qb).transpose(1, 0, 2)
        _accumulate(memory, dm.reshape(memory.value.shape))
        d_projected = (d_energy @ keys).transpose(1, 0, 2).reshape(rows, hidden)
        _accumulate(query, parallel.matmul(d_projected, bilinear.value.T))
        _accumulate(bilinear, parallel.matmul(query.value.T, d_projected))

    out._backward = backward
    return out


def attention_layout(memory: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays ``attention_forward`` reads from a time-major (L*B, H)
    memory and its (B, L) 0/1 source mask: the contiguous (B, L, H) keys,
    the contiguous (B, H, L) values and the (B, L) bool open positions.
    Every row needs an open position."""
    mask = np.asarray(mask, dtype=np.float64)
    if np.any(mask.sum(axis=1) == 0.0):
        raise ValueError("attention: fully masked row")
    steps = memory.reshape(-1, mask.shape[0], memory.shape[1])
    return (np.ascontiguousarray(steps.transpose(1, 0, 2)),
            np.ascontiguousarray(steps.transpose(1, 2, 0)), mask > 0)


def attention_forward(projected: np.ndarray, keys: np.ndarray, values: np.ndarray,
                      open_: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``attention``'s forward over the layout of ``attention_layout``: the
    (T, B, L) energies tanh(q . k) and weights of (T*B, H) projected queries,
    and their (T*B, H) contexts.  Both products are reduced over chunks of
    steps within ``_SCORE_BUDGET`` entries (one step at least); each entry
    is one reduction over a contiguous row, so chunks and T move no bit."""
    batch, length, hidden = keys.shape
    steps = projected.shape[0] // batch
    span = max(1, _SCORE_BUDGET // (batch * length * hidden))  # steps per chunk
    queries = projected.reshape(steps, batch, 1, hidden)
    act = np.empty((steps, batch, length))
    contexts = np.empty((steps, batch, hidden))
    for t in range(0, steps, span):
        (queries[t : t + span] * keys).sum(axis=3, out=act[t : t + span])
    np.tanh(act, out=act)
    e = np.exp(act) * open_
    w = e / e.sum(axis=2, keepdims=True)
    for t in range(0, steps, span):
        (w[t : t + span, :, None] * values).sum(axis=3, out=contexts[t : t + span])
    return act, w, contexts.reshape(steps * batch, hidden)


def fold_steps(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (B, n) sum over t of weights[b, t] * blocks[t, b] of (T, B, n)
    ``blocks`` and (B, T) ``weights``, typically a 0/1 mask of real steps.
    The steps are added as a left fold in ascending t, one fixed order
    whatever produced them."""
    total = blocks[0] * weights[:, :1]
    term = np.empty_like(total)
    for t in range(1, blocks.shape[0]):
        np.multiply(blocks[t], weights[:, t : t + 1], out=term)
        total += term
    return total


def generator_losses(x: Node, weight: Node, bias: Node, targets: np.ndarray, mask: np.ndarray,
                     bag_columns: np.ndarray) -> tuple[Node, Node]:
    """The generator scores x @ weight + bias of T*B time-major rows, fused
    with the masked word loss and the bag sum that read them.

    ``targets`` and ``mask`` are (B, T), so row t*B + b of ``x`` holds step
    t of sentence b, and row b of the (B, K) ``bag_columns`` names the
    score columns of sentence b's bag.  Returns the nodes (word, bag):

    - word: the negative log-likelihood of the gold columns under the row
      softmax, logsumexp(row) - gold score, summed over real steps and
      divided by B.  No probability is floored.
    - bag: the (B, K) scores of each row's bag columns summed over the
      steps with ``mask`` as weights by ``fold_steps``; with all V columns
      in order, the dense bag sum.

    The forward computes the (T*B, V) scores once, into one buffer, and
    normalises them there: each row keeps its max, its exp sum and its gold
    score, and the buffer its exp, which the graph holds until the backward
    rule has run.  That rule writes (softmax - one-hot) * mask * d(word) / B
    over the exp, adds d(bag) * mask into the bag columns with one gather
    and one scatter, and takes the gradients of x, weight and bias from the
    buffer.  A column repeated in a row gets only one of its adds, so a
    column may repeat only where d(bag) is zero, as at ``bag_nll``'s masked
    padding.  The scores and word loss are the arithmetic of a separate
    product-plus-bias node and a cross-entropy node, bit for bit.

    The work is split over the cores by ``parallel``, in phases that each
    write their own slices: by columns the products and the bias, and by
    rows the softmax.  No split moves a bit.

    As in ``lstm_scan``, word is a child of bag whose own rule only hands
    its gradient over, and bag's rule does the work for both.  When nothing
    read the bag, its gradient stays unallocated and the bag term is skipped.
    """
    targets, bag_columns = np.asarray(targets), np.asarray(bag_columns)
    mask = np.asarray(mask, dtype=np.float64)
    xv, w, b = x.value, weight.value, bias.value
    if (
        xv.ndim != 2
        or w.ndim != 2
        or xv.shape[1] != w.shape[0]
        or b.shape != (1, w.shape[1])
        or targets.ndim != 2
        or targets.size == 0
        or mask.shape != targets.shape
        or xv.shape[0] != targets.size
        or bag_columns.ndim != 2 or len(bag_columns) != len(targets)
    ):
        raise ShapeError("generator_losses", xv.shape, w.shape, b.shape, targets.shape,
                         mask.shape, bag_columns.shape)
    if not all(np.issubdtype(a.dtype, np.integer) for a in (targets, bag_columns)):
        raise ValueError("generator_losses: targets and bag columns must be integers")
    batch, steps = targets.shape
    vocab = w.shape[1]
    for name, index in (("target index", targets), ("bag column", bag_columns)):
        if index.size and (index.min() < 0 or index.max() >= vocab):
            raise IndexError(f"generator_losses: {name} out of range")
    gold = targets.T.reshape(-1)
    row_mask = mask.T.reshape(-1, 1)
    # Where step t of each row's bag columns sits in the flattened scores.
    picks = np.arange(steps * batch).reshape(steps, batch, 1) * vocab + bag_columns
    top = np.empty((xv.shape[0], 1))
    total = np.empty((xv.shape[0], 1))
    gold_score = np.empty(xv.shape[0])

    def normalise(lo: int, hi: int) -> None:
        part = e[lo:hi]
        gold_score[lo:hi] = part[np.arange(hi - lo), gold[lo:hi]]
        np.max(part, axis=1, keepdims=True, out=top[lo:hi])
        part -= top[lo:hi]
        np.exp(part, out=part)
        np.sum(part, axis=1, keepdims=True, out=total[lo:hi])

    # Non-finite scores give a NaN loss, which the caller reports.
    with np.errstate(invalid="ignore"):
        e = parallel.matmul(xv, w, bias=b)
        bag = fold_steps(e.reshape(-1)[picks], mask)
        parallel.each(normalise, e.shape[0], e.size)
        nll = np.log(total[:, 0]) - (gold_score - top[:, 0])
        value = np.sum(nll.reshape(-1, batch).T * mask) * (1.0 / batch)
    bag_out = Node(bag, parents=(x, weight, bias))
    word_out = Node(value, parents=(bag_out,))
    handed_over: list[float] = []

    def backward_word(out: Node) -> None:
        handed_over.append(float(out.grad))

    def backward_bag(out: Node) -> None:
        d_word = handed_over.pop() if handed_over else 0.0
        row_scale = row_mask * (d_word / batch)

        def softmax_minus_gold(lo: int, hi: int) -> None:
            part = e[lo:hi]
            part /= total[lo:hi]
            # Exact for gold probabilities of 1/2 and above.
            part[np.arange(hi - lo), gold[lo:hi]] -= 1.0
            part *= row_scale[lo:hi]

        parallel.each(softmax_minus_gold, e.shape[0], e.size)
        if out._grad is not None:
            e.reshape(-1)[picks] += out._grad * mask.T[:, :, None]
        d_weight, d_bias = np.empty_like(w), np.empty((1, vocab))

        def weight_and_bias(lo: int, hi: int) -> None:
            cols = e[:, lo:hi]
            np.matmul(xv.T, cols, out=d_weight[:, lo:hi])
            np.sum(cols, axis=0, keepdims=True, out=d_bias[:, lo:hi])

        parallel.columns(weight_and_bias, w.shape[0], e.shape[0], vocab)
        _accumulate(weight, d_weight)
        _accumulate(bias, d_bias)
        _accumulate(x, parallel.matmul(e, w.T))

    word_out._backward = backward_word
    bag_out._backward = backward_bag
    return word_out, bag_out


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def stable_softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), which is -log sigmoid(-x), as max(x, 0) + log1p(e^-|x|)
    so no exp overflows."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bag_nll(bag: Node, indicator: np.ndarray) -> Node:
    """The bag negative log-likelihood of (B, K) step-summed scores s of
    the bag's columns, a mean over the B rows: sum(softplus(-s) * indicator)
    for the (B, K) 0/1 mask ``indicator``, which is -log sigmoid(s) on the
    bag's words.  On a (B, V) sum and indicator it is the dense loss.

    Its gradient is indicator * -sigmoid(-s) times the upstream over B.  It
    does not vanish the way the gradient of a floored log of a probability
    does.
    """
    ind = np.asarray(indicator, dtype=np.float64)
    s = bag.value
    if s.ndim != 2 or ind.shape != s.shape:
        raise ShapeError("bag_nll", s.shape, ind.shape)
    factor = 1.0 / s.shape[0]
    # Non-finite scores give a NaN loss, which the caller reports, and no
    # warning: an infinite softplus times an indicator of 0 is NaN.
    with np.errstate(invalid="ignore"):
        out = Node(np.sum(stable_softplus(s * -1.0) * ind) * factor, parents=(bag,))

    def backward(out: Node) -> None:
        d = out.grad * factor * ind
        d *= stable_sigmoid(s * -1.0)
        d *= -1.0
        _accumulate(bag, d)

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Node) -> list[Node]:
    """Post-order over the requires_grad subgraph (parents before children)."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(leaf) into every reachable trainable leaf.

    A graph is backpropagated once.  Each interior node's rule is taken off
    the node before it runs, so the arrays it saved go once it has run, also
    when it raises, and each interior gradient goes with it.  A graph in
    which some interior node has lost its rule, whether to an earlier pass
    or to a rule that raised, is refused with a ValueError before any rule
    runs.  Leaf gradients add up across graphs until zero_gradients.
    """
    if root.value.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.value.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    if any(node.parents and node._backward is None for node in order):
        raise ValueError("backward: the graph was already backpropagated")
    _accumulate(root, np.ones_like(root.value))
    for node in reversed(order):
        if node.parents:
            rule, node._backward = node._backward, None
            rule(node)
            node.grad = None


# ---------------------------------------------------------------------------
# parameter registry and gradient checking
# ---------------------------------------------------------------------------


class ParameterStore:
    """Ordered name -> trainable leaf registry.

    Registration order is the contract for seeded initialization, checkpoint
    layout, and optimizer state, so it is preserved everywhere.
    """

    def __init__(self) -> None:
        self._params: dict[str, Node] = {}

    def create(self, name: str, value: np.ndarray) -> Node:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        # C order, so that the optimizer can walk a parameter as a flat view.
        node = parameter(np.asarray(value, order="C"))
        self._params[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._params.items())

    def zero_gradients(self) -> None:
        """Release every parameter's gradient.  It reads as zeros until the
        next backward pass, whose first contribution it adopts; training
        calls this once the optimizer step has read the gradients."""
        for node in self._params.values():
            node.grad = None


@dataclass
class ParameterCheck:
    name: str
    max_rel_error: float
    passed: bool


@dataclass
class GradCheckReport:
    step: float
    tolerance: float
    checks: list[ParameterCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_rel_error(self) -> float:
        return max((c.max_rel_error for c in self.checks), default=0.0)

    def format(self) -> str:
        lines = [f"{'parameter':<24} {'max rel err':>12}  status"]
        for c in self.checks:
            lines.append(f"{c.name:<24} {c.max_rel_error:>12.3e}  {'PASS' if c.passed else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} (tolerance {self.tolerance:g})")
        return "\n".join(lines)


def finite_difference_check(
    loss_fn: Callable[[ParameterStore], Node],
    store: ParameterStore,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    ``loss_fn`` must rebuild the scalar loss graph from the store's current
    values and be deterministic across calls (dropout off, no RNG draws).
    Relative error per entry is |analytic - numeric| / max(|numeric|, 1e-8);
    a parameter passes when its worst entry is under ``tolerance``.
    """
    store.zero_gradients()
    backward(loss_fn(store))
    analytic = {name: node.grad.copy() for name, node in store.items()}

    report = GradCheckReport(step=step, tolerance=tolerance)
    for name, node in store.items():
        flat = node.value.reshape(-1)
        grads = analytic[name].reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = float(loss_fn(store).value)
            flat[j] = orig - step
            f_minus = float(loss_fn(store).value)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            rel = abs(grads[j] - numeric) / max(abs(numeric), 1e-8)
            worst = max(worst, rel)
        report.checks.append(ParameterCheck(name, worst, worst < tolerance))
    return report
