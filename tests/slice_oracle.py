"""The absorbing-slice scan with a scalar loop over wildcard-dependent rows.

This is the scan `algebras._slice_scan` used before it expanded the wildcard
choices in numpy; the tests keep it as an oracle.  Rows come in plain
lexicographic order from itertools.  With `found` given, it records every
escaping application as (e, "plain" | "multi") instead of returning the first.
"""

import itertools

import numpy as np

from finalg.algebras import _slice_witness


def _row_chunks(n, t, chunk=200_000):
    it = itertools.combinations_with_replacement(range(n), t)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.int64)


def scalar_slice_scan(oi, ops_c, rest_rows, rest_ids, boxes, e, weights, key_to_id,
                      member_mask, found=None):
    ncoords = rest_rows.shape[1]
    arity = ops_c[0].arity
    t = arity - e
    wild_combos = [
        list(itertools.combinations_with_replacement([int(v) for v in b], e))
        for b in boxes
    ]

    for rows in _row_chunks(len(rest_ids), t):
        chunk = rows.shape[0]
        stacked = []
        for c in range(ncoords):
            colvals = rest_rows[rows, c].T  # (t, chunk)
            outs = [
                ops_c[c].apply_cols(
                    np.concatenate(
                        [colvals,
                         np.repeat(np.asarray(combo, dtype=np.int64)[:, None], chunk, axis=1)]
                    )
                    if e
                    else colvals
                )
                for combo in wild_combos[c]
            ]
            stacked.append(np.stack(outs, axis=0))  # (ncombo_c, chunk)
        multi = np.zeros(chunk, dtype=bool)
        keys = np.zeros(chunk, dtype=np.int64)
        vary = []
        for c in range(ncoords):
            vc = (stacked[c] != stacked[c][0]).any(axis=0)
            vary.append(vc)
            multi |= vc
            keys += stacked[c][0] * weights[c]
        eids = key_to_id[keys]
        bad = (~multi) & ((eids < 0) | ~member_mask[np.clip(eids, 0, None)])
        if found is not None:
            found.extend((e, "plain") for _ in range(int(bad.sum())))
        elif bad.any():
            i = int(np.argmax(bad))
            target = [int(stacked[c][0, i]) for c in range(ncoords)]
            return _slice_witness(oi, rows[i], rest_ids, rest_rows, boxes, e, ops_c,
                                  weights, key_to_id, target)
        for i in np.flatnonzero(multi):
            vcs = [c for c in range(ncoords) if vary[c][i]]
            base_key = int(keys[i]) - sum(int(stacked[c][0, i]) * int(weights[c]) for c in vcs)
            choices = [sorted({int(v) for v in stacked[c][:, i]}) for c in vcs]
            for combo in itertools.product(*choices):
                key = base_key + sum(v * int(weights[c]) for v, c in zip(combo, vcs))
                eid = int(key_to_id[key])
                if eid < 0 or not member_mask[eid]:
                    if found is not None:
                        found.append((e, "multi"))
                        continue
                    target = [int(stacked[c][0, i]) for c in range(ncoords)]
                    for v, c in zip(combo, vcs):
                        target[c] = v
                    return _slice_witness(oi, rows[i], rest_ids, rest_rows, boxes, e,
                                          ops_c, weights, key_to_id, target)
    return None
