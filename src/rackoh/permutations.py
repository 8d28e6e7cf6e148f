"""Finite permutation groups by explicit closure.

Degrees here are tiny (rack sizes), so the closure is materialised by
breadth-first multiplication rather than any stabiliser-chain machinery;
element order is the BFS discovery order and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ResourceError
from .racks import RackTable

DEFAULT_CLOSURE_CAP = 10_000_000


@dataclass(frozen=True)
class Permutation:
    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError(f"{self.images} is not a permutation")

    @classmethod
    def identity(cls, degree):
        return cls(tuple(range(degree)))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        """(p * q)(i) = p(q(i)): apply q first."""
        if self.degree != other.degree:
            raise InputError("degree mismatch")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self):
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))


def group_closure(generators, cap: int = DEFAULT_CLOSURE_CAP, degree=None):
    """Full element list generated by `generators`, BFS order from identity.

    Every generator has finite order, so closing under multiplication alone
    already yields a group.  Raises ResourceError past `cap` elements.
    """
    if degree is None:
        if not generators:
            raise InputError("empty generator list needs an explicit degree")
        degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise InputError("generators must share a degree")
    ident = Permutation.identity(degree)
    seen = {ident.images}
    order_list = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in generators:
                prod = cur * g
                if prod.images not in seen:
                    seen.add(prod.images)
                    order_list.append(prod)
                    nxt.append(prod)
                    if len(order_list) > cap:
                        raise ResourceError(
                            f"permutation closure exceeded cap {cap}")
        frontier = nxt
    return order_list


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple
    elements: tuple

    @property
    def order(self):
        return len(self.elements)

    @classmethod
    def generated_by(cls, generators, degree=None, cap=DEFAULT_CLOSURE_CAP):
        elems = group_closure(list(generators), cap=cap, degree=degree)
        return cls(elems[0].degree, tuple(generators), tuple(elems))


def inner_group(rack: RackTable, cap: int = DEFAULT_CLOSURE_CAP) -> PermGroup:
    """The permutation group generated by the rack translations."""
    gens = tuple(Permutation(rack.translation(x)) for x in range(rack.size))
    return PermGroup.generated_by(gens, degree=rack.size, cap=cap)


def point_orbit(group: PermGroup, point: int) -> set:
    """Orbit of a point under the group, by BFS over the generators."""
    if not 0 <= point < group.degree:
        raise InputError(f"point {point} out of range for degree {group.degree}")
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for g in group.generators:
                q = g(p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen
