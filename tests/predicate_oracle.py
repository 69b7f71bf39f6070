"""Brute-force oracles for the pointwise predicates of `finalg.algebras`.

They walk every argument tuple with itertools and evaluate the operation
one tuple at a time with `scalar_oracle.apply`, sharing no code with the
count-grid checks of `is_k_absorbing`, `is_k_majority` and
`is_near_unanimity`.
"""

import itertools

from scalar_oracle import apply


def k_absorbing(op, zero, k):
    """Every tuple with at least k arguments `zero` goes to `zero`."""
    return all(apply(op, args) == zero
               for args in itertools.product(range(op.size), repeat=op.arity)
               if args.count(zero) >= k)


def k_majority(op, k):
    """Every element is k-absorbing."""
    return all(k_absorbing(op, z, k) for z in range(op.size))


def near_unanimity(op):
    """An operation of arity >= 3 that is (arity - 1)-majority."""
    return op.arity >= 3 and k_majority(op, op.arity - 1)
