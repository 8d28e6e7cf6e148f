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
from functools import cached_property

import numpy as np

from .cochains import (_block_rows, _fixed_space_stack, differential,
                       finite_action_group, invariant_basis)
from .errors import InputError, PreconditionError, ResourceError
from .linalg import (CHECK_BLOCK_BYTES, QQ, ZZ, AbelianGroup, ExactMatrix,
                     PrimeField, SmithForm, _is_prime_power, _quotient_invariants,
                     charge_budget, lattice_quotient)
from .modules import (CoeffModule, constant_module, function_module,
                      jordan_module, trivial_module)
from .permutations import inner_group
from .racks import (RackTable, _group_arrays, is_quandle, make_semidirect,
                    orbits)

CHECK_BETTI_MN = "betti_equals_m_pow_n"
CHECK_BETTI0 = "betti0_equals_fixed_space_dim"
CHECK_TORSION_PRIMES = "torsion_primes_divide_N"
CHECK_UNIV_COEFF = "integral_free_rank_matches_rational"
CHECK_XI_ISO = "invariant_map_full_rank"
CHECK_TWISTED_VANISH = "twisted_vanishing_eigenvalue_ne_1"
CHECK_TWISTED_JORDAN = "twisted_jordan_betti_m_pow_n"
CHECK_SAME_OP = "same_operator_betti_formula"
CHECK_H2_MATCH = "h2_group_comparison_match"

# the most functions X x X -> A that nonabelian_h2 may enumerate
NONABELIAN_FUNCTION_CAP = 2_000_000

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
    """Differentials and ranks of one (rack, module) pair, cached by degree.

    d_n maps C^n to C^(n+1).  rank(n) ranks d_n cleared by d_(n-1), as the
    clearing (twist) step of persistent homology does (Chen-Kerber 2011,
    Bauer-Kerber-Reininghaus 2014): on its columns outside a set R of
    rank d_(n-1) independent rows of d_(n-1), so the dropped columns take
    their fill-in and their kernel dimension with them.  The rank is the
    same, because every column r in R is a combination of the others: the
    rows R of d_(n-1) have full row rank, so some v in im d_(n-1) has
    v_R = e_r, and d_n v = 0.  Each rank meets the proof's obligations:
    - R is independent: its rows are d_(n-1)'s independent_rows(), pivot
      rows of a modular elimination (independent mod p, so over Q), found
      on the cleared d_(n-1), whose independent rows are independent in
      all of d_(n-1);
    - |R| = rank d_(n-1), itself certified this way;
    - d_n @ d_(n-1) = 0, checked exactly by check_zero_product(n), once
      per degree for field and integral ranks alike.
    So the cleared matrix's certificate proves rank d_n.
    """

    def __init__(self, rack: RackTable, module: CoeffModule, rack_spec="custom"):
        self.rack = rack
        self.module = module
        self.rack_spec = rack_spec
        self._diff: dict = {}
        self._rank: dict = {}
        self._independent: dict = {}
        self._zero_checked: set = set()
        self._smith: dict = {}
        self._semidirect = None

    @cached_property
    def orbit_count(self):
        return orbits(self.rack).orbit_count

    @cached_property
    def inner_order(self):
        return inner_group(self.rack).order

    def space_dim(self, n):
        return self.rack.size ** n * self.module.dim

    def diff(self, n) -> ExactMatrix:
        if n not in self._diff:
            self._diff[n] = differential(self.rack, self.module, n)
        return self._diff[n]

    def semidirect(self) -> RackTable:
        """The extension rack on X x N of make_semidirect."""
        if self._semidirect is None:
            self._semidirect = make_semidirect(self.rack, self.module)
        return self._semidirect

    def check_zero_product(self, n) -> None:
        """Raise ArithmeticError unless d_n @ d_(n-1) = 0, computed exactly
        the first time a degree asks."""
        if n >= 1 and n not in self._zero_checked:
            if not (self.diff(n) @ self.diff(n - 1)).is_zero():
                raise ArithmeticError(f"d_{n} @ d_{n - 1} is not zero")
            self._zero_checked.add(n)

    def rank(self, n) -> int:
        """rank d_n, on d_n cleared by the independent rows of d_(n-1)."""
        if n < 0:
            return 0
        if n not in self._rank:
            d = self.diff(n)
            if n:
                self.rank(n - 1)
                self.check_zero_product(n)
                d = d.select_columns(np.setdiff1d(np.arange(d.cols),
                                                  self._independent[n - 1]))
            self._rank[n] = d.rank()
            self._independent[n] = d.independent_rows()
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
    quotient, from what the complex caches: its check that d_n @ d_(n-1)
    = 0, the certified rank of d_n, which is all the kernel side needs,
    and the invariant factors of d_(n-1).  So each d_n is Smith-formed at
    most once, and the top one not at all."""
    cx.check_zero_product(n)
    return _quotient_invariants(cx.space_dim(n), cx.rank(n), cx.smith(n - 1))


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
        # free rank - betti = rank d_(n-1) - Smith rank d_(n-1)
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
    group = finite_action_group(rack, module)
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
    """Betti numbers for the Jordan block J_k(t) acting as every element;
    its fixed space is a line for t = 1 and zero otherwise."""
    t = Fraction(t)
    if t == 0:
        raise InputError("twisted eigenvalue must be nonzero")
    check, expected = (
        (CHECK_TWISTED_JORDAN, f"expected={{want}} (jordan size {k})") if t == 1
        else (CHECK_TWISTED_VANISH, f"expected all zero for eigenvalue {t}"))
    return _one_matrix_cohomology(rack, jordan_module(rack, t, k, QQ), max_degree,
                                  rack_spec, int(t == 1), check, expected)


def same_operator_cohomology(rack: RackTable, matrix: ExactMatrix,
                             max_degree: int,
                             rack_spec: str = "custom") -> CohomologyReport:
    """Betti numbers when every element acts by one invertible matrix,
    checked against m^n times the dimension of the matrix fixed space."""
    return _one_matrix_cohomology(rack, constant_module(rack, matrix), max_degree,
                                  rack_spec, None, CHECK_SAME_OP,
                                  "expected={want} (fixed space dim {fixed})")


def _one_matrix_cohomology(rack, module, max_degree, rack_spec, fixed, check,
                           expected) -> CohomologyReport:
    """Betti numbers when every element acts by one matrix, checked as
    `check` against m^n times `fixed`, the dimension of its fixed space
    (computed when None); `expected` words the expectation."""
    cx = RackComplex(rack, module, rack_spec)
    report = CohomologyReport(rack_spec, rack, module.describe(), [
        DegreeData(n, cx.betti(n)) for n in range(max_degree + 1)])
    fixed = cx.fixed_space_dim() if fixed is None else fixed
    want = [cx.orbit_count ** n * fixed for n in range(max_degree + 1)]
    report.checks.append(TheoremCheck(
        check, report.betti == want,
        f"betti={report.betti}, " + expected.format(want=want, fixed=fixed)))
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


def direct_h2(rack: RackTable, coeff: str,
              complex_: RackComplex | None = None) -> AbelianGroup:
    """H^2 straight from the complex with trivial coefficients: `complex_`,
    or a new one over Q for Q and over Z otherwise.  A complex over Z
    serves every coefficient, as its ranks are over Q; over Z and Z/q,
    H^2 is the lattice quotient ker d_2 / im d_1 from the complex's zero
    product check and the Smith forms of d_1 and d_2 it caches."""
    kind, q = _parse_coefficient(coeff)
    cx = complex_ or RackComplex(rack, trivial_module(rack, QQ if kind == "Q" else ZZ))
    if kind == "Q":
        return AbelianGroup(cx.betti(2), ())
    cx.check_zero_product(2)
    a = cx.smith(2)
    return _quotient_invariants(cx.space_dim(2), a.rank, cx.smith(1), q, a.torsion)


def h2_via_group(rack: RackTable, coeff: str, rack_spec: str = "custom",
                 complex_: RackComplex | None = None) -> H2Comparison:
    """Compare H^2(X, A) with H^1 of the structure group valued in the
    function module Fun(X, A); the two must agree as abelian groups.
    `complex_` is passed to direct_h2."""
    kind, q = _parse_coefficient(coeff)
    pres = RackPresentation.of(rack)
    if kind == "Q":
        via = group_h1(pres, function_module(rack, QQ))
    else:
        via = group_h1(pres, function_module(rack, ZZ), modulus=q)
    return H2Comparison(rack_spec, coeff, direct_h2(rack, coeff, complex_), via)


# ---------------------------------------------------------------------------
# nonabelian degree 2 by brute force


@dataclass(frozen=True)
class NonabelianH2:
    cocycle_count: int
    class_count: int
    representatives: tuple


def _cocycle_array(rack: RackTable, t) -> np.ndarray:
    """The degree-2 cocycles f: X x X -> A for the group table array t, one
    row each of the values f(x, y) at x * |X| + y, in lex order.

    The search runs position by position: every surviving partial function
    is extended by every value (np.repeat and np.tile keep lex order), and
    the conditions f(x|>y, x|>z) f(x, z) = f(x, y|>z) f(y, z), as four flat
    positions, whose last position is the new one are tested at once.
    Each level's arrays are charged to the memory budget before they exist.
    """
    n, size = rack.size, len(t)
    op = np.array(rack.table, dtype=np.int64)
    x, y, z = np.indices((n,) * 3).reshape(3, -1)
    # rows (x|>y, x|>z), (x, y|>z) and columns (x, z), (y, z) of the products
    conds = np.stack([op[x, y] * n + op[x, z], x * n + op[y, z],
                      x * n + z, y * n + z], axis=1)
    conds = conds[(conds[:, ::2] != conds[:, 1::2]).any(axis=1)]
    last = conds.max(axis=1)
    order = np.argsort(last, kind="stable")
    by_position = np.split(conds[order].T, np.searchsorted(
        last[order], np.arange(1, n * n)), axis=1)
    values = np.arange(size, dtype=t.dtype)
    f = np.zeros((1, 0), dtype=t.dtype)
    for pos, cond in enumerate(by_position):
        count = len(f) * size
        # the new frontier, the rows it keeps and their indices, and per
        # condition the four values, the two products and their comparison
        charge_budget(count * (t.itemsize * (2 * pos + 2 + 8 * cond.shape[1]) + 8),
                      f"the {count} partial cocycles of a nonabelian search",
                      "use a smaller rack or group")
        nxt = np.empty((count, pos + 1), dtype=t.dtype)
        nxt[:, :pos] = np.repeat(f, size, axis=0)
        nxt[:, pos] = np.tile(values, len(f))
        if cond.size:
            v = nxt[:, cond]
            sides = t[v[:, :2], v[:, 2:]]
            nxt = nxt[(sides[:, 0] == sides[:, 1]).all(axis=1)]
        f = nxt
    return f


def nonabelian_h2(rack: RackTable, group_table) -> NonabelianH2:
    """Enumerate degree-2 cocycles valued in a finite (possibly nonabelian)
    group and partition them by the gauge equivalence
    f'(x,y) = gamma(x|>y) f(x,y) gamma(y)^-1.

    The cocycle search prunes, but its worst case is exponential in
    |X|^2; guarded by NONABELIAN_FUNCTION_CAP on the function count.  A
    cocycle's key is its base-|A| digits, which fit int64 because
    |A|^(|X|^2) is at most the cap; keys sort like the cocycles.  The
    gauges form a group acting on the cocycles, so one cocycle's images
    under all |A|^|X| gauges are its class, and the least image is its
    class's lex-first member.  The cocycles are expanded by all gauges at once, in chunks
    whose images fill about CHECK_BLOCK_BYTES, each charged to the memory
    budget first.
    """
    n = rack.size
    t, inv = _group_arrays(group_table)
    size = len(t)
    if size ** (n * n) > NONABELIAN_FUNCTION_CAP:
        raise ResourceError(
            f"{size}^{n * n} functions exceed the enumeration budget "
            f"{NONABELIAN_FUNCTION_CAP}; use a smaller rack or coefficient group")

    cocycles = _cocycle_array(rack, t)
    digits = size ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    keys = cocycles @ digits
    gammas = (np.arange(size ** n)[:, None]
              // size ** np.arange(n - 1, -1, -1) % size)
    op = np.array(rack.table, dtype=np.int64).ravel()
    ys = np.tile(np.arange(n), n)
    left = gammas[:, op].astype(t.dtype)[:, None]
    right = inv[gammas[:, ys]].astype(t.dtype)[:, None]
    # per image: its two table lookups, the intp copy of the first and the
    # int64 copy of the second; its key, position and comparison
    per_cocycle = len(gammas) * (n * n * (2 * t.itemsize + 16) + 40)
    chunk = max(1, CHECK_BLOCK_BYTES // per_cocycle)
    least = np.empty_like(keys)
    for lo in range(0, len(keys), chunk):
        charge_budget(per_cocycle * min(chunk, len(keys) - lo),
                      "the gauge images of a nonabelian class search",
                      "use a smaller rack or group")
        images = t[t[left, cocycles[None, lo:lo + chunk]], right] @ digits
        at = np.searchsorted(keys, images).clip(max=len(keys) - 1)
        if (keys[at] != images).any():
            raise ArithmeticError("gauge action left the cocycle set")
        least[lo:lo + chunk] = images.min(axis=0)
    reps = cocycles[np.searchsorted(keys, np.unique(least))]
    # a tuple of small ints per representative, and the list it is made from
    charge_budget(len(reps) * (120 + 16 * n * n),
                  f"the {len(reps)} class representatives of a nonabelian H^2",
                  "use a smaller rack or group")
    return NonabelianH2(len(keys), len(reps), tuple(map(tuple, reps.tolist())))


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

    sd = cx.semidirect()

    def hat(x):
        # the lex index of omega(x).x^-1 among the vectors of N, after x's
        ainv = module.action_inverse(x)
        index = 0
        for j in range(k):
            index = index * p + sum(omega[x][i] * ainv[i, j] for i in range(k)) % p
        return x * p ** k + index

    hats = [hat(x) for x in range(n)]
    is_hom = all(sd.op(hats[x], hats[y]) == hats[rack.op(x, y)]
                 for x in range(n) for y in range(n))

    flat = [omega[x][j] for x in range(n) for j in range(k)]
    is_cocycle = all(v == 0 for v in cx.diff(1).matvec(flat))
    return is_hom, is_cocycle
