"""Finite groups by explicit closure.

Degrees here are tiny (rack sizes), so the closure is materialised by
breadth-first multiplication rather than any stabiliser-chain machinery;
element order is the BFS discovery order and is fully deterministic.
"""

from __future__ import annotations

import sys
from math import gcd

import numpy as np

from .errors import ResourceError
from .linalg import _int_dtype, charge_budget, matrix_stack
from .racks import RackTable

DEFAULT_CLOSURE_CAP = 10_000_000

# What a closure charges per element besides its tuple's 8-byte slots and
# ints past the small-int cache (tests/test_permutations.py measures it):
# tuple header, set and list slots and the products in hand peak at 300 for
# the function module on the transpositions of S_6, 175 for Inn of S_7.
BYTES_PER_ELEMENT = 320


class FiniteGroup(list):
    """A closed group's elements in BFS order, identity first: flat tuples of
    a permutation's images, then (den, *entries) of a k x k matrix entries /
    den row by row in lowest terms (reduced mod p over F_p), if any."""

    order = property(len)


def _element_bytes(e):
    return BYTES_PER_ELEMENT + 8 * len(e) + sum(
        sys.getsizeof(x) for x in e if not -5 <= x <= 256)


def _times(tail, stack, den, top, p):
    """The tails (den, *entries) of m @ stack[i] / den for every i, where m
    is the matrix tail[1:] / tail[0], each in lowest terms (mod p if p)."""
    s, k = stack.shape[:2]
    dtype = _int_dtype(k * top * max(map(abs, tail[1:]), default=0))
    prods = np.array(tail[1:], dtype=dtype).reshape(k, k) @ np.asarray(stack, dtype)
    d = tail[0] * den  # 1 over Z and F_p
    return [(d // g, *(x // g for x in row)) if (g := gcd(d, *row)) > 1 else (d, *row)
            for row in (prods % p if p else prods).reshape(s, k * k).tolist()]


def group_closure(degree: int, perms, mats=(),
                  cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """The group generated by the pairs (perms[i], mats[i]) of the images
    of a permutation of range(degree) and an invertible ExactMatrix, or by
    the permutations alone when mats is empty: each element, in BFS order,
    times each generator, (p, a) (q, b) = (p[q], a @ b), the permutations
    by indexing and the matrices by one stacked product, exact on int64 or
    Python ints as _int_dtype decides.  Raises ResourceError past `cap`
    elements or when the element list, charged before it doubles, would
    pass the memory budget.
    """
    ident = tuple(range(degree))
    if mats:
        stack, den, top = matrix_stack(mats)
        ident += (1, *np.eye(mats[0].rows, dtype=np.int64).ravel().tolist())
    elements, seen, limit = FiniteGroup([ident]), {ident}, 1
    for cur in elements:  # the element list is the BFS queue
        tails = (_times(cur[degree:], stack, den, top, mats[0].ring.characteristic)
                 if mats else [()] * len(perms))
        for g, tail in zip(perms, tails):
            prod = (*map(cur.__getitem__, g), *tail)
            if prod in seen:
                continue
            seen.add(prod)
            elements.append(prod)
            if len(elements) > cap:
                raise ResourceError(f"group closure exceeded cap {cap}: the "
                                    "group is larger, or infinite")
            if len(elements) > limit:  # charge the doubled list
                limit *= 2
                charge_budget(limit * _element_bytes(prod),
                              f"a group closure of {limit} elements",
                              "use a smaller rack or module")
    return elements


def inner_group(rack: RackTable, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """The permutation group generated by the rack translations, the rows
    of its table."""
    return group_closure(rack.size, rack.table, cap=cap)
