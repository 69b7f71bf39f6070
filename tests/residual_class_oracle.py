"""The residual class tables of the box route, one full argument list at a time.

This is the enumeration the reach pass of `algebras._residual_classes`
replaced: each full list's image is read off the leaf's stored table over
every argument row the list's value sets give, classes at r are numbered by
first occurrence in lex order, and below r each partial list's row of
successor classes is found through a dict of the next level's lists.  The
classes below r are numbered in lex order of those rows, which is the order
of their mixed-radix keys.  Shares no code with the library.
"""

import itertools

import numpy as np


def _levels(d, r, sym):
    return [list(itertools.combinations_with_replacement(range(d), t) if sym
                 else itertools.product(range(d), repeat=t)) for t in range(r + 1)]


def _value(leaf, row):
    index = 0
    for v in row:
        index = index * leaf.size + v
    return int(leaf.table[index])


def table_entries(d, r, sym):
    """The partial lists of at most r of d value sets."""
    return sum(map(len, _levels(d, r, sym)))


def image_rows(sets, r, sym):
    """For each full list in lex order, its argument rows as the box route
    counts them: every row for a sequence; for a multiset, the distinct rows
    once each group of positions with one value set is sorted."""
    counts = []
    for full in _levels(len(sets), r, sym)[r]:
        groups = [[i for i, k in enumerate(full) if k == g] for g in sorted(set(full))]
        rows = {tuple(tuple(sorted(row[i] for i in group)) if sym else tuple(row[i] for i in group)
                      for group in groups)
                for row in itertools.product(*(sets[k] for k in full))}
        counts.append(len(rows))
    return counts


def residual_classes(leaf, sets, r, sym):
    """(trans, images) as `_residual_classes` returns them."""
    d = len(sets)
    levels = _levels(d, r, sym)
    image_id = {}
    cls = []
    for full in levels[r]:
        image = frozenset(_value(leaf, row)
                          for row in itertools.product(*(sets[k] for k in full)))
        cls.append(image_id.setdefault(image, len(image_id)))
    trans = [None] * r
    for t in range(r - 1, -1, -1):
        rank = {part: i for i, part in enumerate(levels[t + 1])}
        rows = [tuple(cls[rank[tuple(sorted(part + (k,))) if sym else part + (k,)]]
                      for k in range(d)) for part in levels[t]]
        distinct = sorted(set(rows))
        number = {row: i for i, row in enumerate(distinct)}
        trans[t] = np.asarray(distinct, dtype=np.int64).reshape(len(distinct), d)
        cls = [number[row] for row in rows]
    return trans, list(image_id)
