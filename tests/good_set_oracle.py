"""The element-by-element membership rule of the sharpness witness's good set.

`witnesses.good_boxes` builds the good set as a union of boxes; this is the
rule it replaced, kept as an oracle for the tests.  `minus_point` builds
broken good sets as boxes.
"""

from typing import Sequence


def good_coords(coords: Sequence[int], roles: Sequence[dict], q: int) -> bool:
    """The membership rule for the distinguished subuniverse.

    Elements whose final coordinate is 0 are always good.  Otherwise the
    pair sequence must be a run of null pairs, then one pair of shape (-,0)
    or (0,-), then a constant run of (q,0) or (0,q) respectively; the half
    coordinate of odd m behaves as the first component of one more pair.
    """
    if coords[-1] == 0:
        return True
    pairs = []
    half = None
    for i, r in enumerate(roles):
        if r["role"] == "pair-first":
            pairs.append((coords[i], coords[i + 1]))
        elif r["role"] == "half":
            half = coords[i]
    i = 0
    while i < len(pairs) and pairs[i] == (0, 0):
        i += 1
    if i == len(pairs):
        return True  # all pairs null; the half stays unconstrained
    x, y = pairs[i]
    if y == 0:
        return all(p == (q, 0) for p in pairs[i + 1 :]) and (half is None or half == q)
    if x == 0:
        return all(p == (0, q) for p in pairs[i + 1 :]) and (half is None or half == 0)
    return False


def minus_point(box, point) -> list:
    """The box less one point (a box of singletons), as disjoint boxes: the
    first coordinate that differs from the point's takes its other values
    there."""
    if not all(p in vals for vals, (p,) in zip(box, point)):
        return [box]
    return [list(point[:c]) + [rest] + list(box[c + 1:])
            for c, vals in enumerate(box)
            if (rest := tuple(v for v in vals if v != point[c][0]))]
