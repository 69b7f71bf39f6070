"""Prefix trees of argument tuples, as `kernel._arg_blocks` yields them,
turned into plain rows and back.

A tree is `(cols, trail)`: level l of `trail` is a pair (parent, value),
one entry per node, where parent indexes the nodes of level l - 1 and value
is the node's entry in argument position cols[l].  `tree_rows` reads the
rows top-down, level by level, independently of the closure's own decoder,
which walks up from the rows it needs.
"""

import numpy as np


def tree_rows(tree):
    """(rows, r) int64 argument tuples of a prefix tree, in its order."""
    cols, trail = tree
    prefix = np.empty((1, 0), dtype=np.int64)
    for parent, value in trail:
        prefix = np.column_stack([prefix[parent], value])
    rows = np.empty_like(prefix)
    rows[:, list(cols)] = prefix
    return rows


def rows_tree(rows):
    """A tree whose rows are `rows`: one chain of r nodes per row."""
    rows = np.asarray(rows, dtype=np.int64)
    n, r = rows.shape
    trail = [(np.arange(n) if level else np.zeros(n, dtype=np.int64), rows[:, level])
             for level in range(r)]
    return list(range(r)), trail
