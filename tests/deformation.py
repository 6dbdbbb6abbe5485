"""Deformation matrices of braid words on V^r, for tests.

The package never forms these nr x nr matrices: it moves only the rows it
needs through `braid.act_on_rows`.  The tests use the whole matrix to check
the cocycle rule, the braid relations and the stability of H and E.
"""

from radonmono.braid import act_on_rows
from radonmono.linalg import Matrix


def word_matrix(g, word):
    """The deformation matrix of a braid word: the identity rows of V^r moved
    through the word by `act_on_rows`."""
    spec, size = g[0].spec, g[0].rows * len(g)
    rows = [list(row) for row in Matrix.identity(spec, size).entries]
    act_on_rows(g, word, rows)
    return Matrix.from_rows(spec, rows, cols=size)


def local_matrix(g, letter):
    """The deformation matrix of a single braid letter on V^r.

    Positive letter i places the block [[0, g_{i+1}], [1, 1 - g_{i+1}^-1 g_i
    g_{i+1}]] at block position i; the negative letter carries the closed
    form [[(g_{i+1} - 1) g_i^-1, 1], [g_i^-1, 0]], which equals the inverse
    of the positive matrix of the advanced tuple.
    """
    return word_matrix(g, [letter])
