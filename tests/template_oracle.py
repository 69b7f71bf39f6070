"""The element-by-element template rule of `witnesses.filtered_subproduct`.

`filtered_subproduct` builds the template subproduct as a union of boxes;
this is the rule it replaced, kept as an oracle for the tests.
"""

import numpy as np


def template_filter(ambient, f_ids, zeros, a, d):
    """(b_ids, tags) of the elements of A1 x A2 x A3 x A4 that lie in F on
    the last two coordinates and match at least one template."""
    z1, z2, z4 = zeros
    s4 = ambient.factors[3].size
    f_set = set(int(x) for x in f_ids)
    dec = ambient.indexing.digits(np.arange(ambient.size))
    b_ids, tags = [], {}
    for eid in range(ambient.size):
        x1, x2, x3, x4 = (int(v) for v in dec[eid])
        if (x3 * s4 + x4) not in f_set:
            continue
        matched = []
        if x2 == z2 and x3 == a:
            matched.append(1)
        if x1 == z1 and x2 == z2:
            matched.append(2)
        if x1 == z1 and x3 == d:
            matched.append(3)
        if x4 == z4:
            matched.append(4)
        if matched:
            b_ids.append(eid)
            tags[eid] = tuple(matched)
    return b_ids, tags
