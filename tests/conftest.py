"""Shared pytest wiring for the suite.

The acceptance tests record one human-readable pass/fail line per criterion;
this hook replays those lines after the run so they reach the terminal (and
any log the run is teed into) even though pytest captures stdout by default.

``score_losses`` lets tests put chosen scores through the fused generator
primitive that training runs.
"""

import numpy as np

from bowseq import autodiff as ad

ACCEPTANCE_LINES: list[str] = []


def score_losses(scores, targets, mask):
    """(word, bag) of ``generator_losses`` on given time-major (T*B, V)
    scores, an array or a node: the generator is the identity, whose
    product x @ I + 0 is x exactly."""
    x = scores if isinstance(scores, ad.Node) else ad.constant(scores)
    vocab = x.value.shape[1]
    return ad.generator_losses(x, ad.constant(np.eye(vocab)), ad.constant(np.zeros((1, vocab))),
                               targets, mask)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
