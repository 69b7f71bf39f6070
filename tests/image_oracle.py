"""The values of every operation on a set of rows, one argument tuple at a time.

Every r-tuple of rows, in every order, is evaluated at every coordinate by
reading the coordinate's algebra's stored table at the tuple's index: the
enumeration that `freealg._image_rows` replaces by its walk over residual
classes.  Shares no code with the library.
"""

import numpy as np


def image(gens, coord_algs, rows):
    """The set of row tuples that some operation takes on some r-tuple of `rows`."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(coord_algs))
    out = set()
    for oi, op in enumerate(gens[0].ops):
        r = op.arity
        args = np.indices((len(rows),) * r).reshape(r, -1)   # every r-tuple of positions
        values = np.empty((args.shape[1], len(coord_algs)), dtype=np.int64)
        for c, ai in enumerate(coord_algs):
            alg = gens[ai]
            index = np.zeros(args.shape[1], dtype=np.int64)
            for j in range(r):
                index = index * alg.size + rows[args[j], c]
            values[:, c] = np.asarray(alg.ops[oi].table)[index]
        out |= set(map(tuple, values.tolist()))
    return out


def new_rows(gens, coord_algs, rows):
    """The values of the operations on `rows` that are not rows."""
    return image(gens, coord_algs, rows) - set(map(tuple, np.asarray(rows).tolist()))


def closed(gens, coord_algs, rows):
    """The subuniverse `rows` generate, in the order its rows were found."""
    got = list(dict.fromkeys(map(tuple, np.asarray(rows).tolist())))
    while True:
        more = sorted(new_rows(gens, coord_algs, got))
        if not more:
            return got
        got += more
