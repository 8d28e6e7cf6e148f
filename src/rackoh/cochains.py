"""The rack cochain complex and its structural operators.

Basis convention, used everywhere: the degree-n space has one coordinate
per pair (tuple, module index), flattened as lex(x_1..x_n) * dim + j with
the module index innermost.  Cochain values are column vectors and every
operator is a matrix acting by left multiplication; since the module
action is a right action on row vectors, action matrices enter operator
blocks transposed.  _index and _permuted_index own the lex order of the
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .errors import InputError, PreconditionError, ResourceError
from .linalg import (QQ, ZZ, ExactMatrix, PrimeField, charge_budget,
                     int_vector, ring_vector)
from .modules import CoeffModule, tensor_with_trivial
from .racks import RackTable, orbit_labels

DEFAULT_ACTION_GROUP_CAP = 1_000_000

# What _block_rows charges per entry a matrix may store: the tracemalloc
# peak of building one per charged entry stays below this for every
# operator here; tests/test_cochains.py measures it.  Operators of
# one-entry rows set it (chain_isomorphism of a trivial module peaks at
# about 207 bytes per entry, the stored row's tuples); a differential
# peaks at 24-37, the projector near 9.
BYTES_PER_ENTRY = 230


def _guard(rows, cols, per_row):
    """Refuse a rows x cols matrix whose stored entries, at most `per_row`
    in each row, would take more than the memory budget."""
    charge_budget(rows * min(per_row, cols) * BYTES_PER_ENTRY,
                  f"a {rows}x{cols} matrix with up to {per_row} entries per row")


@dataclass(frozen=True)
class CochainSpace:
    rack: RackTable
    module: CoeffModule
    degree: int

    @property
    def dimension(self):
        return self.rack.size ** self.degree * self.module.dim

    def flat(self, xs, j=0):
        return _index(xs, self.rack.size) * self.module.dim + j

    def unflat(self, flat):
        j = flat % self.module.dim
        idx = flat // self.module.dim
        xs = []
        for _ in range(self.degree):
            xs.append(idx % self.rack.size)
            idx //= self.rack.size
        return tuple(reversed(xs)), j


def cochain_space(rack, module, degree) -> CochainSpace:
    if degree < 0:
        raise InputError("cochain degree must be >= 0")
    return CochainSpace(rack, module, degree)


# ---------------------------------------------------------------------------
# differentials


def _index(xs, size) -> int:
    """Lex index of the tuple xs over an alphabet of `size` elements."""
    idx = 0
    for x in xs:
        idx = idx * size + x
    return idx


def _permuted_index(perm, n) -> list:
    """Lex index of (perm[x_1], .., perm[x_n]) for every n-tuple, in lex order."""
    size = len(perm)
    out = [0]
    for _ in range(n):
        out = [t * size + p for t in out for p in perm]
    return out


def _columns(mat, den, num):
    """Column l of mat, for each l, as (j, num * den * mat[j, l]) pairs,
    integers when den is a multiple of the denominators of mat."""
    out = [[] for _ in range(mat.cols)]
    for j in range(mat.rows):
        for l, x in mat.nonzeros(j):
            out[l].append((j, num * x.numerator * (den // x.denominator)))
    return out


def _block_rows(ring, rows, cols, k, mats, terms, width, scale=1):
    """The rows x cols matrix whose row (r, l) is scale times the sum, over
    (offset, weight, b) in terms[r], of weight times column l of mats[b]
    (the k x k identity when b is None) placed from column offset on.

    Every operator on cochains is such a sum of signed, permuted copies of
    the module matrices: row (r, l) is the value at coordinate l of the
    image at tuple r, and the right action puts the matrices transposed.
    scale is an integer, or over Q a Fraction.  Entries are integers over
    den, the lcm of the denominators of mats and of scale, so each row is
    summed as integers and handed to ExactMatrix.from_int_rows as soon as
    it is complete; `terms` may be a generator, of rows / k lists of at
    most `width` terms each, and no entry outside the current row is held.
    """
    _guard(rows, cols, width * k)
    den = lcm(*[x.denominator for m in mats for j in range(m.rows)
                for _, x in m.nonzeros(j)])
    num = scale.numerator
    blocks = {b: _columns(m, den, num) for b, m in enumerate(mats)}
    blocks[None] = [[(l, num * den)] for l in range(k)]

    def int_rows():
        for row in terms:
            for l in range(k):
                acc = {}
                for offset, weight, b in row:
                    for j, a in blocks[b][l]:
                        acc[offset + j] = acc.get(offset + j, 0) + weight * a
                yield acc

    return ExactMatrix.from_int_rows(rows, cols, ring, int_rows(),
                                     den * scale.denominator)


def _coboundary(rack, module, n, deleted, twisted) -> ExactMatrix:
    """Shared body of the two coboundary maps C^n -> C^(n+1).

    Row (y_1..y_(n+1), l), column (z_1..z_n, j).  Term i, with sign
    (-1)^(i-1), adds the block deleted[w_i] at the tuple that drops y_i,
    where w_i = y_1 |> (y_2 |> (.. y_i)), and subtracts the block
    twisted[y_i] at the tuple that twists the later arguments by y_i.
    Either list may be None, meaning identity blocks.
    """
    if n < 0:
        raise InputError("differential degree must be >= 0")
    size, k = rack.size, module.dim
    mats = list(deleted or ()) + list(twisted or ())
    dl = [None] * size if deleted is None else range(size)
    tw = [None] * size if twisted is None else range(len(mats) - size, len(mats))
    table = rack.table

    def terms():
        for ys in product(range(size), repeat=n + 1):
            row = []
            for i in range(n + 1):
                sign = 1 if i % 2 == 0 else -1
                yi = ys[i]
                w = yi
                for j in range(i - 1, -1, -1):
                    w = table[ys[j]][w]
                row.append((_index(ys[:i] + ys[i + 1:], size) * k, sign, dl[w]))
                twist = ys[:i] + tuple(table[yi][y] for y in ys[i + 1:])
                row.append((_index(twist, size) * k, -sign, tw[yi]))
            yield row

    return _block_rows(module.ring, size ** (n + 1) * k, size ** n * k, k,
                       mats, terms(), 2 * (n + 1))


def differential(rack: RackTable, module: CoeffModule, n: int) -> ExactMatrix:
    """Matrix of the degree-n coboundary map C^n -> C^(n+1).

    The i-th term deletes y_i (identity block) and twists the later
    arguments by y_i while acting by y_i on the value.
    """
    return _coboundary(rack, module, n, None, module.matrices)


def differential_prime(rack: RackTable, module: CoeffModule, n: int) -> ExactMatrix:
    """The companion coboundary map that twists the deleted-argument term.

    Term i acts on the value by the inverse of w_i = y_1 |> (y_2 |> (... y_i))
    instead of twisting it by y_i; chain_isomorphism intertwines the two.
    """
    inverses = [module.action_inverse(x) for x in range(rack.size)]
    return _coboundary(rack, module, n, inverses, None)


def chain_isomorphism(rack: RackTable, module: CoeffModule, n: int) -> ExactMatrix:
    """Block-diagonal map f(x..) -> f(x..) . (x_1 ... x_n)^-1 linking the
    two differentials: chain_isomorphism . d == d' . chain_isomorphism."""
    size, k = rack.size, module.dim
    dim = size ** n * k
    # prods: the distinct products x_1 ... x_i; ids: each i-tuple's product
    prods, ids = [ExactMatrix.identity(k, module.ring)], [0]
    for _ in range(n):
        seen, step = {}, {}
        for b in dict.fromkeys(ids):
            for x in range(size):
                step[b, x] = seen.setdefault(prods[b] @ module.action(x), len(seen))
        prods = list(seen)
        ids = [step[b, x] for b in ids for x in range(size)]
    terms = ([(idx * k, 1, b)] for idx, b in enumerate(ids))
    return _block_rows(module.ring, dim, dim, k, [p.inverse() for p in prods],
                       terms, 1)


# ---------------------------------------------------------------------------
# the diagonal action on cochains


def group_action_on_cochains(rack: RackTable, module: CoeffModule,
                             n: int, y: int) -> ExactMatrix:
    """Matrix of f -> f.y, (f.y)(x_1..x_n) = f(y|>x_1 .. y|>x_n).y."""
    if not 0 <= y < rack.size:
        raise InputError(f"rack element {y} out of range")
    k = module.dim
    dim = rack.size ** n * k
    terms = ([(tgt * k, 1, 0)] for tgt in _permuted_index(rack.translation(y), n))
    return _block_rows(module.ring, dim, dim, k, [module.action(y)], terms, 1)


def _check_length(rack, module, n, vec):
    dim = rack.size ** n * module.dim
    if len(vec) != dim:
        raise InputError(f"a degree-{n} cochain has {dim} entries, got {len(vec)}")


def apply_group_action(rack, module, n, perm_images, mat, vec):
    """f -> f.g for a closure pair g = (permutation, matrix), vector form.

    Entry (x.., l) is sum_j mat[j, l] f(perm(x)..)_j, summed as integers
    over the denominators of f and of mat."""
    _check_length(rack, module, n, vec)
    k = module.dim
    ints, den = int_vector(vec)
    flat, mat_den = int_vector([x for l in range(k) for x in mat.column(l)])
    terms = [[(j, a) for j in range(k) if (a := flat[l * k + j])] for l in range(k)]
    out = [sum([a * ints[t * k + j] for j, a in column])
           for t in _permuted_index(perm_images, n) for column in terms]
    return ring_vector(module.ring, out, den * mat_den)


def apply_rack_element(rack, module, n, y, vec):
    return apply_group_action(rack, module, n, rack.translation(y),
                              module.action(y), vec)


def slice_first(rack: RackTable, module: CoeffModule, n: int, y: int, vec):
    """f -> f_y with f_y(x_2..x_n) = f(y, x_2..x_n); degree drops by one."""
    if n < 1:
        raise InputError("slice_first needs degree >= 1")
    _check_length(rack, module, n, vec)
    tail = rack.size ** (n - 1) * module.dim
    base = y * tail
    return list(vec[base:base + tail])


@dataclass(frozen=True)
class FiniteActionGroup:
    """Closure of the pairs (translation of x, action matrix of x)."""

    elements: tuple  # of (perm_images, ExactMatrix)

    @property
    def order(self):
        return len(self.elements)


def finite_action_group(rack: RackTable, module: CoeffModule,
                        cap: int = DEFAULT_ACTION_GROUP_CAP) -> FiniteActionGroup:
    """Materialise the finite group through which the action factors.

    Raises ResourceError when the closure passes `cap`, which means the
    finiteness hypothesis (the kernel of the action has finite index) is
    violated or cannot be certified for this module.
    """
    size = rack.size
    gens = [(rack.translation(x), module.action(x)) for x in range(size)]
    ident = (tuple(range(size)), ExactMatrix.identity(module.dim, module.ring))

    seen = {ident}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for cur_perm, cur_mat in frontier:
            for g_perm, g_mat in gens:
                perm = tuple(cur_perm[g_perm[i]] for i in range(size))
                mat = cur_mat @ g_mat
                pair = (perm, mat)
                if pair not in seen:
                    seen.add(pair)
                    elements.append(pair)
                    nxt.append(pair)
                    if len(elements) > cap:
                        raise ResourceError(
                            f"action group closure exceeded cap {cap}: the "
                            "finiteness hypothesis (finite-index action "
                            "kernel) is violated or unverifiable for this "
                            "module")
        frontier = nxt
    return FiniteActionGroup(tuple(elements))


def averaging_projector(rack: RackTable, module: CoeffModule, n: int,
                        group: FiniteActionGroup | None = None) -> ExactMatrix:
    """The idempotent (1/|G|) sum of the cochain action over the closure.

    Needs |G| invertible in the coefficient ring; its image is the
    invariant subcomplex and it commutes with the differential.
    """
    if group is None:
        group = finite_action_group(rack, module)
    order = group.order
    ring = module.ring
    if ring == ZZ and order != 1:
        raise PreconditionError(f"|G| = {order} is not invertible over Z")
    if isinstance(ring, PrimeField) and order % ring.p == 0:
        raise PreconditionError(
            f"|G| = {order} is not invertible in characteristic {ring.p}")
    size, k = rack.size, module.dim
    dim = size ** n * k
    targets = [_permuted_index(perm, n) for perm, _ in group.elements]
    terms = ([(tgt[idx] * k, 1, g) for g, tgt in enumerate(targets)]
             for idx in range(size ** n))
    scale = (Fraction(1, order) if ring == QQ else 1 if ring == ZZ
             else ring.inv(order))
    return _block_rows(ring, dim, dim, k, [mat for _, mat in group.elements],
                       terms, order, scale)


def invariant_basis(rack: RackTable, module: CoeffModule, n: int,
                    group: FiniteActionGroup | None = None,
                    via: str = "auto") -> ExactMatrix:
    """Columns spanning the invariant cochains in degree n.

    via="auto": orbit indicators for trivial modules (the image of the
    averaging projector, computed combinatorially), the projector image
    when |G| is invertible, the simultaneous fixed space otherwise.
    """
    size, k = rack.size, module.dim
    dim = size ** n * k
    ring = module.ring

    if via == "auto" and module.is_trivial:
        # column (orbit, j) is the indicator of the orbit's n-tuples at j
        labels, count = orbit_labels(size ** n, (
            _permuted_index(rack.translation(y), n) for y in range(size)))
        terms = ([(label * k, 1, None)] for label in labels)
        return _block_rows(ring, dim, count * k, k, [], terms, 1)

    if group is None:
        group = finite_action_group(rack, module)
    use_projector = via == "projector" or (
        via == "auto" and ring.is_field and
        (not isinstance(ring, PrimeField) or group.order % ring.p))
    if use_projector:
        return averaging_projector(rack, module, n, group).column_basis()

    if not ring.is_field:
        raise PreconditionError("fixed-space computation needs a field ring")
    return _fixed_space_stack(rack, module, n).kernel_matrix()


def _fixed_space_stack(rack, module, n) -> ExactMatrix:
    """The actions of the rack elements on degree-n cochains, each minus
    the identity, stacked; its kernel is the invariant cochains."""
    size, k = rack.size, module.dim
    dim = size ** n * k
    terms = ([(tgt * k, 1, y), (idx * k, -1, None)] for y in range(size)
             for idx, tgt in enumerate(_permuted_index(rack.translation(y), n)))
    return _block_rows(module.ring, size * dim, dim, k, module.matrices, terms, 2)


# ---------------------------------------------------------------------------
# products


def is_invariant_cochain(rack, module, n, vec) -> bool:
    for y in range(rack.size):
        if apply_rack_element(rack, module, n, y, vec) != list(vec):
            return False
    return True


def cochain_product(rack: RackTable, module_a: CoeffModule, a: int, f,
                    module_n: CoeffModule, b: int, g,
                    require_invariant: bool = True):
    """Concatenation product (f (x) g)(x_1..x_(a+b)) = f(front) (x) g(back).

    f lives in degree a with trivial coefficients, g in degree b; for the
    Leibniz identity to hold g must be an invariant cochain, which is
    enforced unless require_invariant is False (used to exhibit the
    failure on non-invariant inputs).
    """
    if not module_a.is_trivial:
        raise PreconditionError("the left factor needs trivial coefficients")
    if module_a.ring != module_n.ring:
        raise InputError("both factors must share a coefficient ring")
    _check_length(rack, module_a, a, f)
    _check_length(rack, module_n, b, g)
    if require_invariant and not is_invariant_cochain(rack, module_n, b, g):
        raise PreconditionError(
            "the right factor must be an invariant cochain; the Leibniz "
            "identity fails otherwise")
    size = rack.size
    ka, kn = module_a.dim, module_n.dim
    tensor = tensor_with_trivial(module_n, ka)
    fi, fden = int_vector(f)
    gi, gden = int_vector(g)
    backs = [gi[t * kn:(t + 1) * kn] for t in range(size ** b)]
    out = [x * y for s in range(size ** a) for back in backs
           for x in fi[s * ka:(s + 1) * ka] for y in back]
    return ring_vector(tensor.ring, out, fden * gden), tensor


def orbit_indicator_cocycle(rack: RackTable, ring, orbit_index: int):
    """The degree-1 characteristic function of an orbit (always a cocycle)."""
    from .racks import orbits as rack_orbits
    part = rack_orbits(rack)
    if not 0 <= orbit_index < part.orbit_count:
        raise InputError(f"orbit index {orbit_index} out of range")
    return [ring.coerce(1 if part.orbit_of[x] == orbit_index else 0)
            for x in range(rack.size)]
