"""Shared pytest wiring for the suite.

The acceptance tests record one human-readable pass/fail line per criterion;
this hook replays those lines after the run so they reach the terminal (and
any log the run is teed into) even though pytest captures stdout by default.

``score_losses`` lets tests put chosen scores through the fused generator
primitive that training runs, and ``every_column`` gives that primitive the
dense (B, V) bag.
"""

import numpy as np

from bowseq import autodiff as ad

ACCEPTANCE_LINES: list[str] = []


def every_column(batch, vocab):
    """(B, V) bag columns naming every column in order: the bag of
    ``generator_losses`` is then the dense (B, V) sum of the scores."""
    return np.tile(np.arange(vocab), (batch, 1))


def score_losses(scores, targets, mask):
    """(word, bag) of ``generator_losses`` on given time-major (T*B, V)
    scores, an array or a node, with the dense (B, V) bag: the generator is
    the identity, whose product x @ I + 0 is x exactly."""
    x = scores if isinstance(scores, ad.Node) else ad.constant(scores)
    vocab = x.value.shape[1]
    return ad.generator_losses(x, ad.constant(np.eye(vocab)), ad.constant(np.zeros((1, vocab))),
                               targets, mask, every_column(len(targets), vocab))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
