"""Congruence triples as boolean n x n relations, one element pair at a time.

The oracle for `witnesses.role_partitions` and the column-wise
`congruences.induced_product_congruence`: each factor's (alpha, beta, gamma)
relation is written out from the staircase rule, and two elements of a
subset are related when every coordinate pair is.
"""

import numpy as np


def staircase_relation(q: int, second: bool) -> np.ndarray:
    """Related values of the chain 0..q: the first staircase pairs
    {q, q-1}, {q-2, q-3}, ..., the second leaves {q} alone and pairs
    {q-1, q-2}, ..."""
    blocks = []
    top = q if not second else q - 1
    if second:
        blocks.append({q})
    while top >= 0:
        blocks.append({top, top - 1} - {-1})
        top -= 2
    return np.array([[any({x, y} <= b for b in blocks) for y in range(q + 1)]
                     for x in range(q + 1)])


def role_relations(role: str, q: int) -> list[np.ndarray]:
    """(alpha, beta, gamma) on one factor of the given role."""
    if role == "last":
        return [np.eye(2, dtype=bool), np.ones((2, 2), bool), np.ones((2, 2), bool)]
    first, second = staircase_relation(q, False), staircase_relation(q, True)
    if role == "pair-second" and q % 2 == 0:
        first, second = second, first
    return [np.ones((q + 1, q + 1), bool), first, second]


def relation(part) -> np.ndarray:
    ids = part.block_id
    return ids[:, None] == ids[None, :]


def product_relation(coords: np.ndarray, rels) -> np.ndarray:
    """Elements related when each coordinate pair is: `coords` has one row
    per element, and `rels[c]` relates the values of coordinate c."""
    n = len(coords)
    out = np.ones((n, n), dtype=bool)
    for c, rel in enumerate(rels):
        out &= rel[coords[:, c][:, None], coords[:, c][None, :]]
    return out
