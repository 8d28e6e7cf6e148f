"""Cohomology of finite racks in every supported flavour.

Ordinary field coefficients, integral cohomology with torsion, the
invariant subcomplex with its comparison map, twisted (single-operator
and Jordan-block) coefficients, first group cohomology of the structure
group, the degree-2 comparison against it, brute-force nonabelian degree-2
classes, and the extension-rack cocycle test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .cochains import (DEFAULT_ACTION_GROUP_CAP, _block_rows,
                       _fixed_space_stack, differential, finite_action_group,
                       invariant_basis)
from .errors import InputError, PreconditionError, ResourceError
from .linalg import (QQ, ZZ, AbelianGroup, ExactMatrix, PrimeField, SmithForm,
                     _is_prime_power, _quotient_invariants, lattice_quotient)
from .modules import (CoeffModule, constant_module, function_module,
                      jordan_module, trivial_module)
from .permutations import DEFAULT_CLOSURE_CAP, inner_group
from .racks import RackTable, is_quandle, make_semidirect, orbits

CHECK_BETTI_MN = "betti_equals_m_pow_n"
CHECK_BETTI0 = "betti0_equals_fixed_space_dim"
CHECK_TORSION_PRIMES = "torsion_primes_divide_N"
CHECK_UNIV_COEFF = "integral_free_rank_matches_rational"
CHECK_XI_ISO = "invariant_map_full_rank"
CHECK_TWISTED_VANISH = "twisted_vanishing_eigenvalue_ne_1"
CHECK_TWISTED_JORDAN = "twisted_jordan_betti_m_pow_n"
CHECK_SAME_OP = "same_operator_betti_formula"
CHECK_H2_MATCH = "h2_group_comparison_match"

QUANDLE_NOTE = ("quandle and degeneracy subcomplex dimensions are not computed "
                "separately; they follow from the known splitting of the full "
                "complex")


def prime_factors(n: int) -> tuple:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DegreeData:
    degree: int
    betti: int
    torsion: tuple = ()


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    passed: bool
    details: str = ""


@dataclass
class CohomologyReport:
    rack_spec: str
    rack: RackTable
    module_desc: dict
    degrees: list
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def betti(self):
        return [d.betti for d in self.degrees]

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        part = orbits(self.rack)
        return {
            "rack": {
                "spec": self.rack_spec,
                "size": self.rack.size,
                "table": [list(r) for r in self.rack.table],
                "orbit_count": part.orbit_count,
                "quandle": is_quandle(self.rack),
            },
            "module": self.module_desc,
            "degrees": [
                {"n": d.degree, "betti": d.betti, "torsion": list(d.torsion)}
                for d in self.degrees
            ],
            "checks": [
                {"name": c.name, "pass": c.passed,
                 **({"details": c.details} if c.details else {})}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# cached complex


class RackComplex:
    """Differentials and ranks of one (rack, module) pair, cached by degree."""

    def __init__(self, rack: RackTable, module: CoeffModule, rack_spec="custom",
                 closure_cap: int = DEFAULT_CLOSURE_CAP):
        self.rack = rack
        self.module = module
        self.rack_spec = rack_spec
        self.closure_cap = closure_cap
        self._diff: dict = {}
        self._rank: dict = {}
        self._smith: dict = {}
        self._orbits = None
        self._group_order = None

    @property
    def orbit_count(self):
        if self._orbits is None:
            self._orbits = orbits(self.rack)
        return self._orbits.orbit_count

    @property
    def inner_order(self):
        if self._group_order is None:
            self._group_order = inner_group(self.rack,
                                            cap=self.closure_cap).order
        return self._group_order

    def space_dim(self, n):
        return self.rack.size ** n * self.module.dim

    def diff(self, n) -> ExactMatrix:
        if n not in self._diff:
            self._diff[n] = differential(self.rack, self.module, n)
        return self._diff[n]

    def rank(self, n) -> int:
        if n < 0:
            return 0
        if n not in self._rank:
            self._rank[n] = self.diff(n).rank()
        return self._rank[n]

    def smith(self, n) -> SmithForm:
        """Invariant factors of d_n; d_(-1) is the zero map into C^0."""
        if n < 0:
            return SmithForm((), 0)
        if n not in self._smith:
            self._smith[n] = self.diff(n).smith_normal_form()
        return self._smith[n]

    def betti(self, n) -> int:
        return self.space_dim(n) - self.rank(n) - self.rank(n - 1)

    def kernel_matrix(self, n) -> ExactMatrix:
        return self.diff(n).kernel_matrix()

    def fixed_space_dim(self) -> int:
        """dim of the invariants of the module itself (= expected betti 0)."""
        return self.module.dim - _fixed_space_stack(self.rack, self.module,
                                                    0).rank()


# ---------------------------------------------------------------------------
# field and integral cohomology


def cohomology_over_field(rack: RackTable, module: CoeffModule, max_degree: int,
                          rack_spec: str = "custom",
                          complex_: RackComplex | None = None) -> CohomologyReport:
    """Betti numbers dim ker d_n - rank d_(n-1) for degrees 0..max_degree."""
    if not module.ring.is_field:
        raise PreconditionError("cohomology_over_field needs Q or Fp coefficients")
    if max_degree < 0:
        raise InputError("max_degree must be >= 0")
    cx = complex_ or RackComplex(rack, module, rack_spec)
    degrees = [DegreeData(n, cx.betti(n)) for n in range(max_degree + 1)]
    report = CohomologyReport(rack_spec, rack, module.describe(), degrees)
    report.checks.append(_betti0_check(cx, degrees[0].betti))
    if module.is_trivial and _characteristic_ok(module, cx):
        report.checks.append(_betti_mn_check(cx, [d.betti for d in degrees]))
    if is_quandle(rack):
        report.notes.append(QUANDLE_NOTE)
    return report


def _characteristic_ok(module, cx) -> bool:
    ring = module.ring
    if isinstance(ring, PrimeField):
        return cx.inner_order % ring.p != 0
    return ring.is_field


def _betti0_check(cx, betti0) -> TheoremCheck:
    want = cx.fixed_space_dim()
    return TheoremCheck(CHECK_BETTI0, betti0 == want,
                        f"betti0={betti0}, fixed space dim={want}")


def _betti_mn_check(cx, betti) -> TheoremCheck:
    # a trivial module of dimension k is k copies of the ground field
    m, k = cx.orbit_count, cx.module.dim
    want = [k * m ** n for n in range(len(betti))]
    return TheoremCheck(CHECK_BETTI_MN, betti == want,
                        f"betti={betti}, expected={want}")


def integral_degree(cx: RackComplex, n: int) -> AbelianGroup:
    """H^n with integer coefficients: ker d_n / im d_(n-1) as a lattice
    quotient, from the invariant factors the complex caches, so each d_n
    is Smith-formed once however many degrees are asked for."""
    if n >= 1 and not (cx.diff(n) @ cx.diff(n - 1)).is_zero():
        raise ArithmeticError("image does not lie in the kernel")
    return _quotient_invariants(cx.space_dim(n), cx.smith(n), cx.smith(n - 1))


def cohomology_integral(rack: RackTable, max_degree: int,
                        rack_spec: str = "custom",
                        complex_: RackComplex | None = None) -> CohomologyReport:
    """Integral cohomology: free rank plus invariant-factor torsion per degree.

    The coefficients are those of `complex_`, trivial Z when it is omitted;
    the torsion-primes theorem is checked only for trivial coefficients.
    """
    if max_degree < 0:
        raise InputError("max_degree must be >= 0")
    cx = complex_ or RackComplex(rack, trivial_module(rack, ZZ), rack_spec)
    degrees = []
    consistent = True
    for n in range(max_degree + 1):
        group = integral_degree(cx, n)
        if group.free_rank != cx.betti(n):
            consistent = False
        degrees.append(DegreeData(n, group.free_rank, group.torsion))
    report = CohomologyReport(rack_spec, rack, cx.module.describe(), degrees)
    report.checks.append(TheoremCheck(
        CHECK_UNIV_COEFF, consistent,
        "free rank from the lattice quotient matches the rational betti"))
    if cx.module.is_trivial:
        bigN = cx.inner_order
        bad = [d for deg in degrees for d in deg.torsion
               if any(bigN % p for p in prime_factors(d))]
        report.checks.append(TheoremCheck(
            CHECK_TORSION_PRIMES, not bad,
            f"N={bigN}; offending factors {bad}" if bad else f"N={bigN}"))
    report.checks.append(_betti0_check(cx, degrees[0].betti))
    if is_quandle(rack):
        report.notes.append(QUANDLE_NOTE)
    return report


# ---------------------------------------------------------------------------
# invariant cohomology and the comparison map


@dataclass
class InvariantComparison:
    """Invariant-subcomplex cohomology vs the full one, degree by degree."""

    rack_spec: str
    invariant_betti: list
    ordinary_betti: list
    xi_rank: list
    isomorphism_expected: bool
    report: CohomologyReport

    @property
    def is_isomorphism(self):
        return all(x == i == o for x, i, o in
                   zip(self.xi_rank, self.invariant_betti, self.ordinary_betti))


def invariant_cohomology(rack: RackTable, module: CoeffModule, max_degree: int,
                         rack_spec: str = "custom",
                         complex_: RackComplex | None = None) -> InvariantComparison:
    """Cohomology of the invariant subcomplex and the rank of the
    inclusion-induced map into the full cohomology, per degree.

    Over a field in which the action-group order is invertible the map is
    an isomorphism; in other characteristics the ranks are reported with
    no claim attached.
    """
    if not module.ring.is_field:
        raise PreconditionError("invariant cohomology needs field coefficients")
    cx = complex_ or RackComplex(rack, module, rack_spec)
    group = finite_action_group(rack, module,
                                min(DEFAULT_ACTION_GROUP_CAP, cx.closure_cap))
    ring = module.ring
    invertible = not isinstance(ring, PrimeField) or group.order % ring.p != 0

    bases = {n: invariant_basis(rack, module, n, group=group)
             for n in range(max_degree + 1)}
    inv_betti, xi_ranks, ordinary = [], [], []
    for n in range(max_degree + 1):
        v = bases[n]
        restricted = cx.diff(n) @ v
        kernel_coords = restricted.kernel_matrix()
        cocycles = v @ kernel_coords
        if n == 0:
            prev_rank = 0
            prev_full = ExactMatrix.zeros(cx.space_dim(0), 0, ring)
        else:
            prev_full = cx.diff(n - 1)
            prev_rank = (prev_full @ bases[n - 1]).rank()
        inv_betti.append(kernel_coords.cols - prev_rank)
        span = cocycles.hstack(prev_full)
        xi_ranks.append(span.rank() - cx.rank(n - 1))
        ordinary.append(cx.betti(n))

    degrees = [DegreeData(n, b) for n, b in enumerate(inv_betti)]
    report = CohomologyReport(rack_spec, rack, module.describe(), degrees)
    comparison = InvariantComparison(rack_spec, inv_betti, ordinary, xi_ranks,
                                     invertible, report)
    if invertible:
        report.checks.append(TheoremCheck(
            CHECK_XI_ISO, comparison.is_isomorphism,
            f"xi ranks {xi_ranks}, invariant betti {inv_betti}, "
            f"full betti {ordinary}"))
    else:
        report.notes.append(
            f"|G| = {group.order} is not invertible in {ring.name}; "
            "ranks reported with no isomorphism claim")
    return comparison


# ---------------------------------------------------------------------------
# twisted coefficients


def twisted_cohomology(rack: RackTable, t, k: int, max_degree: int,
                       rack_spec: str = "custom") -> CohomologyReport:
    """Betti numbers for the Jordan block J_k(t) acting as every element."""
    t = Fraction(t)
    if t == 0:
        raise InputError("twisted eigenvalue must be nonzero")
    module = jordan_module(rack, t, k, QQ)
    cx = RackComplex(rack, module, rack_spec)
    degrees = [DegreeData(n, cx.betti(n)) for n in range(max_degree + 1)]
    report = CohomologyReport(rack_spec, rack, module.describe(), degrees)
    betti = [d.betti for d in degrees]
    if t != 1:
        report.checks.append(TheoremCheck(
            CHECK_TWISTED_VANISH, all(b == 0 for b in betti),
            f"betti={betti}, expected all zero for eigenvalue {t}"))
    else:
        m = cx.orbit_count
        want = [m ** n for n in range(max_degree + 1)]
        report.checks.append(TheoremCheck(
            CHECK_TWISTED_JORDAN, betti == want,
            f"betti={betti}, expected={want} (jordan size {k})"))
    return report


def same_operator_cohomology(rack: RackTable, matrix: ExactMatrix,
                             max_degree: int,
                             rack_spec: str = "custom") -> CohomologyReport:
    """Betti numbers when every element acts by one invertible matrix,
    checked against m^n times the dimension of the matrix fixed space."""
    module = constant_module(rack, matrix)
    cx = RackComplex(rack, module, rack_spec)
    degrees = [DegreeData(n, cx.betti(n)) for n in range(max_degree + 1)]
    report = CohomologyReport(rack_spec, rack, module.describe(), degrees)
    fixed = cx.fixed_space_dim()
    m = cx.orbit_count
    betti = [d.betti for d in degrees]
    want = [m ** n * fixed for n in range(max_degree + 1)]
    report.checks.append(TheoremCheck(
        CHECK_SAME_OP, betti == want,
        f"betti={betti}, expected={want} (fixed space dim {fixed})"))
    return report


# ---------------------------------------------------------------------------
# group cohomology of the structure group in degree one


@dataclass(frozen=True)
class RackPresentation:
    """Generators = rack elements; one relation x.y = (x|>y).x per pair."""

    size: int
    relations: tuple  # of (x, y, x|>y)

    @classmethod
    def of(cls, rack: RackTable):
        return cls(rack.size,
                   tuple((x, y, rack.op(x, y))
                         for x in range(rack.size) for y in range(rack.size)))


def _h1_matrices(presentation: RackPresentation, module: CoeffModule):
    """Cocycle constraints and coboundary generators for degree-1 group
    cohomology; a cocycle is its value vector on the rack generators."""
    n, k = presentation.size, module.dim

    def constraints():
        # relation x.y = (x|>y).x: c(y) + c(x) A_y - c(x|>y) A_x - c(x) = 0
        x, y, xy = np.array(presentation.relations, dtype=np.int64).reshape(-1, 3).T
        return (np.stack([x, xy, y, x], axis=1) * k, np.array([[1, -1, 1, -1]]),
                np.stack([y, x, np.full_like(x, n), np.full_like(x, n)], axis=1))

    cmat = _block_rows(module.ring, len(presentation.relations) * k, n * k, k,
                       module.matrices, 4, constraints)
    # the coboundary of v is x -> v A_x - v
    bmat = _block_rows(module.ring, n * k, k, k, module.matrices, 2, lambda: (
        0, np.array([[1, -1]]), np.stack([np.arange(n), np.full(n, n)], axis=1)))
    return cmat, bmat


def group_h1(presentation: RackPresentation, module: CoeffModule,
             modulus: int = 0) -> AbelianGroup:
    """H^1 of the structure group: cocycles on generators modulo coboundaries.

    Field coefficients give a dimension (reported as free rank over Q,
    p-torsion over Fp); integer coefficients give free rank and invariant
    factors, optionally modulo `modulus`.
    """
    cmat, bmat = _h1_matrices(presentation, module)
    ring = module.ring
    if ring == ZZ:
        return lattice_quotient(cmat, bmat, modulus)
    if modulus:
        raise InputError("a modulus requires integer coefficients")
    z_dim = cmat.cols - cmat.rank()
    b_dim = bmat.rank()
    dim = z_dim - b_dim
    if isinstance(ring, PrimeField):
        return AbelianGroup(0, (ring.p,) * dim)
    return AbelianGroup(dim, ())


# ---------------------------------------------------------------------------
# the degree-2 comparison


def _parse_coefficient(coeff: str):
    """"Q", "Z", or "Z<q>" with q > 1 a prime power."""
    if coeff == "Q":
        return ("Q", 0)
    if coeff == "Z":
        return ("Z", 0)
    if coeff.startswith("Z"):
        try:
            q = int(coeff[1:])
        except ValueError:
            raise InputError(f"bad coefficient spec {coeff!r}")
        if q < 2:
            raise InputError("modulus must be at least 2")
        if not _is_prime_power(q):
            raise InputError(f"modulus {q} is not a prime power")
        return ("Zq", q)
    raise InputError(f"bad coefficient spec {coeff!r}")


@dataclass(frozen=True)
class H2Comparison:
    rack_spec: str
    coefficient: str
    direct: AbelianGroup
    via_group: AbelianGroup

    @property
    def match(self):
        return self.direct == self.via_group

    def to_json_dict(self):
        return {
            "rack": self.rack_spec,
            "coefficient": self.coefficient,
            "direct_h2": {"free_rank": self.direct.free_rank,
                          "torsion": list(self.direct.torsion)},
            "group_h1": {"free_rank": self.via_group.free_rank,
                         "torsion": list(self.via_group.torsion)},
            "match": self.match,
        }


def direct_h2(rack: RackTable, coeff: str) -> AbelianGroup:
    """H^2 straight from the complex with trivial coefficients."""
    kind, q = _parse_coefficient(coeff)
    if kind == "Q":
        module = trivial_module(rack, QQ)
        cx = RackComplex(rack, module)
        return AbelianGroup(cx.betti(2), ())
    module = trivial_module(rack, ZZ)
    cx = RackComplex(rack, module)
    prev = cx.diff(1)
    return lattice_quotient(cx.diff(2), prev, q)


def h2_via_group(rack: RackTable, coeff: str,
                 rack_spec: str = "custom") -> H2Comparison:
    """Compare H^2(X, A) with H^1 of the structure group valued in the
    function module Fun(X, A); the two must agree as abelian groups."""
    kind, q = _parse_coefficient(coeff)
    pres = RackPresentation.of(rack)
    if kind == "Q":
        via = group_h1(pres, function_module(rack, QQ))
    else:
        via = group_h1(pres, function_module(rack, ZZ), modulus=q)
    return H2Comparison(rack_spec, coeff, direct_h2(rack, coeff), via)


# ---------------------------------------------------------------------------
# nonabelian degree 2 by brute force


@dataclass(frozen=True)
class NonabelianH2:
    cocycle_count: int
    class_count: int
    representatives: tuple


def _group_inverse_table(table):
    n = len(table)
    ident = next(e for e in range(n)
                 if all(table[e][x] == x and table[x][e] == x for x in range(n)))
    inv = [0] * n
    for a in range(n):
        inv[a] = next(b for b in range(n) if table[a][b] == ident)
    return ident, inv


def _nonabelian_cocycles(rack: RackTable, group_table) -> list:
    """The degree-2 cocycles f: X x X -> A, as tuples of the values
    f(x, y) at x * |X| + y, in lex order."""
    n = rack.size
    a_size = len(group_table)
    # f(x|>y, x|>z) f(x, z) = f(x, y|>z) f(y, z), as four flat indices,
    # each tested as soon as the last of its four values is set
    op = rack.op
    checks = [[] for _ in range(n * n)]
    for x, y, z in product(range(n), repeat=3):
        cond = (op(x, y) * n + op(x, z), x * n + z, x * n + op(y, z), y * n + z)
        checks[max(cond)].append(cond)

    # depth-first in lex order, without recursion: f holds the values set
    # so far and v is the next value to try at position len(f)
    cocycles = []
    f, v = [], 0
    while True:
        if len(f) == n * n:
            cocycles.append(tuple(f))
            v = a_size
        if v < a_size:
            f.append(v)
            if all(group_table[f[a]][f[b]] == group_table[f[c]][f[d]]
                   for a, b, c, d in checks[len(f) - 1]):
                v = 0
                continue
        if not f:
            break
        v = f.pop() + 1
    return cocycles


def nonabelian_h2(rack: RackTable, group_table,
                  budget: int = 2_000_000) -> NonabelianH2:
    """Enumerate degree-2 cocycles valued in a finite (possibly nonabelian)
    group and partition them by the gauge equivalence
    f'(x,y) = gamma(x|>y) f(x,y) gamma(y)^-1.

    The cocycle search prunes, but its worst case is exponential in
    |X|^2; guarded by `budget` on the function count.
    """
    n = rack.size
    a_size = len(group_table)
    _, inv = _group_inverse_table(group_table)
    total = a_size ** (n * n)
    if total > budget:
        raise ResourceError(
            f"{a_size}^{n * n} functions exceed the enumeration budget "
            f"{budget}; use a smaller rack or coefficient group")

    cocycles = _nonabelian_cocycles(rack, group_table)
    cocycle_set = set(cocycles)
    gammas = list(product(range(a_size), repeat=n))
    op = rack.op
    # gauge action f'(x, y) = gamma(x|>y) f(x, y) gamma(y)^-1, per pair (x, y)
    gauge = [(op(x, y), x * n + y, y) for x in range(n) for y in range(n)]
    seen = set()
    reps = []
    for f in cocycles:  # lexicographic order: first unseen is the class minimum
        if f in seen:
            continue
        reps.append(f)
        stack = [f]
        seen.add(f)
        while stack:
            cur = stack.pop()
            for gamma in gammas:
                nxt = tuple(group_table[group_table[gamma[xy]][cur[i]]][inv[gamma[y]]]
                            for xy, i, y in gauge)
                if nxt not in seen:
                    if nxt not in cocycle_set:
                        raise ArithmeticError("gauge action left the cocycle set")
                    seen.add(nxt)
                    stack.append(nxt)
    return NonabelianH2(len(cocycles), len(reps), tuple(reps))


# ---------------------------------------------------------------------------
# the extension-rack cocycle test


def semidirect_cocycle_check(cx: RackComplex, omega):
    """Two independent reads of the same condition on omega: X -> N.

    is_rack_hom: x -> (x, omega(x).x^-1) is a homomorphism into the
    extension rack on X x N; is_cocycle: the coboundary cx.diff(1) of
    omega vanishes.  The pair must agree for every omega.
    """
    rack, module = cx.rack, cx.module
    ring = module.ring
    p = getattr(ring, "p", None)
    if p is None:
        raise InputError("the extension check needs a prime-field module")
    n, k = rack.size, module.dim
    if len(omega) != n or any(len(v) != k for v in omega):
        raise InputError("omega must assign a module vector to every element")
    omega = [tuple(ring.coerce(c) for c in vec) for vec in omega]

    sd = make_semidirect(rack, module)
    count = p ** k
    vec_index = {}
    for i, vec in enumerate(product(range(p), repeat=k)):
        vec_index[vec] = i

    def hat(x):
        ainv = module.action_inverse(x)
        val = tuple(sum(omega[x][i] * ainv[i, j] for i in range(k)) % p
                    for j in range(k))
        return x * count + vec_index[val]

    is_hom = all(
        sd.op(hat(x), hat(y)) == hat(rack.op(x, y))
        for x in range(n) for y in range(n))

    flat = [omega[x][j] for x in range(n) for j in range(k)]
    is_cocycle = all(v == 0 for v in cx.diff(1).matvec(flat))
    return is_hom, is_cocycle
