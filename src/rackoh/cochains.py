"""The rack cochain complex and its structural operators.

Basis convention, used everywhere: the degree-n space has one coordinate
per pair (tuple, module index), flattened as lex(x_1..x_n) * dim + j with
the module index innermost.  Cochain values are column vectors and every
operator is a matrix acting by left multiplication; since the module
action is a right action on row vectors, action matrices enter operator
blocks transposed.  Every operator is built by _block_rows from integer
arrays that give, for all tuples at once, the lex indices of the tuples
each image is read from (np.indices and the rack table as an array, or
_permuted_index) and the module blocks it is read through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InputError, PreconditionError
from .linalg import (QQ, ZZ, ExactMatrix, PrimeField, _exact, _int_dtype,
                     _summed, charge_budget, matrix_stack)
from .modules import CoeffModule, tensor_with_trivial
from .permutations import FiniteGroup, group_closure
from .racks import RackTable, orbit_labels

# What _block_rows charges per entry a matrix may store: the tracemalloc
# peak of building one per charged entry stays below this for every
# operator here; tests/test_cochains.py measures it.  A stored entry takes
# 16 bytes of CSR arrays and each row 16 more; the expanded, sorted and
# summed entry arrays of the build come on top.  Small operators of
# one-entry rows set it through the fixed cost of a build (chain_isomorphism
# of a trivial module on 216 rows peaks at about 130 bytes per entry); a
# differential peaks at 38-65, the projector near 15.
BYTES_PER_ENTRY = 145


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
        idx = 0
        for x in xs:
            idx = idx * self.rack.size + x
        return idx * self.module.dim + j


def cochain_space(rack, module, degree) -> CochainSpace:
    if degree < 0:
        raise InputError("cochain degree must be >= 0")
    return CochainSpace(rack, module, degree)


# ---------------------------------------------------------------------------
# differentials


def _permuted_index(perm, n):
    """Lex index of (perm[x_1], .., perm[x_n]) for every n-tuple, in lex
    order, as an integer array."""
    perm = np.asarray(perm, dtype=np.int64)
    out = perm if n else np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        out = (out[:, None] * len(perm) + perm).ravel()
    return out


def _block_rows(ring, rows, cols, k, mats, width, terms, scale=1):
    """The rows x cols matrix whose row (r, l) is scale times the sum, over
    the terms t < width of row r, of weights[r, t] times column l of
    mats[blocks[r, t]] placed from column offsets[r, t] on.

    Every operator on cochains is such a sum of signed, permuted copies of
    the module matrices: row (r, l) is the value at coordinate l of the
    image at tuple r, and the right action puts the matrices transposed.
    `terms()` returns the integer arrays (offsets, weights, blocks), each
    of shape (rows // k, width) or broadcast to it; block id len(mats) is
    the k x k identity.  It is called after the memory guard, so nothing
    is allocated for a matrix the guard refuses.

    Each term is expanded by its block's stored entries with np.repeat;
    _summed sums the terms at each key row * cols + col.  Entries are
    integers over den, the lcm of the denominators of mats and of scale
    (an integer, or over Q a Fraction), on int64 when the largest scaled
    block entry times the largest weight times width (the terms one entry
    can sum) stays below 2^62, on Python ints otherwise.
    """
    _guard(rows, cols, width * k)
    if rows * cols == 0:  # a zero-dimensional module
        return ExactMatrix.zeros(rows, cols, ring)
    # pattern: entry (j, l) of each block's stored arrays, the identity
    # last, transposed, as the key offset l * cols + j and the integer
    # value num * den * block[j, l]
    csrs = [m.csr for m in mats] + [ExactMatrix.identity(k, ring).csr]
    den, num = lcm(*(c.den for c in csrs)), scale.numerator
    row_counts = np.diff(np.stack([c.indptr for c in csrs]), axis=1).ravel()
    keys = (np.concatenate([c.indices for c in csrs]) * cols
            + np.repeat(np.tile(np.arange(k), len(csrs)), row_counts))
    sizes = np.array([c.nums.size for c in csrs])
    start = np.cumsum(sizes) - sizes
    offsets, weights, blocks = (np.broadcast_to(a, (rows // k, width)).ravel()
                                for a in terms())
    top = abs(num) * den * max(c.top for c in csrs)
    dtype = _int_dtype(max(top * max(int(np.abs(weights).max(initial=0)), 1) * width,
                           den * scale.denominator))
    vals = np.concatenate([c.nums for c in csrs]).astype(dtype)
    vals *= np.repeat(np.array([num * (den // c.den) for c in csrs], dtype=dtype), sizes)

    # expand: term t contributes the counts[t] = sizes[blocks[t]] pattern
    # entries of its block, from start[blocks[t]] on
    counts = sizes[blocks]
    pos = np.repeat(start[blocks] - (np.cumsum(counts) - counts), counts)
    pos += np.arange(pos.size)
    base = np.arange(offsets.size) // width * (k * cols)
    base += offsets
    key = keys[pos]
    key += np.repeat(base, counts)
    val = vals[pos]
    del pos, base, offsets, blocks
    val *= np.repeat(weights, counts)
    del weights, counts
    return _summed(rows, cols, ring, key, val, den * scale.denominator)


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
    ident = len(mats)

    def terms():
        table = np.array(rack.table, dtype=np.int64)
        # ys[i]: argument y_(i+1) of every (n+1)-tuple, tuples in lex order
        ys = np.indices((size,) * (n + 1)).reshape(n + 1, -1)
        lex = size ** np.arange(n - 1, -1, -1, dtype=np.int64)
        offsets = np.empty((ys.shape[1], 2 * (n + 1)), dtype=np.int64)
        blocks = np.full_like(offsets, ident)
        for i in range(n + 1):
            rest = ys[[j for j in range(n + 1) if j != i]]
            offsets[:, 2 * i] = lex @ rest
            rest[i:] = table[ys[i], rest[i:]]
            offsets[:, 2 * i + 1] = lex @ rest
            if deleted is not None:
                w = ys[i]
                for j in range(i - 1, -1, -1):
                    w = table[ys[j], w]
                blocks[:, 2 * i] = w
            if twisted is not None:
                blocks[:, 2 * i + 1] = ident - size + ys[i]
        signs = [s for i in range(n + 1) for s in ((-1) ** i, -(-1) ** i)]
        return offsets * k, signs, blocks

    return _block_rows(module.ring, size ** (n + 1) * k, size ** n * k, k,
                       mats, 2 * (n + 1), terms)


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
    # prods: the distinct products x_1 ... x_i, invs their inverses x_i^-1
    # ... x_1^-1 (from where each first appears); ids: each i-tuple's product
    ident = ExactMatrix.identity(k, module.ring)
    prods, invs, ids = [ident], [ident], np.zeros(1, np.int64)
    for _ in range(n):
        seen = {}
        step = np.array([[seen.setdefault(p @ module.action(x), len(seen))
                          for x in range(size)] for p in prods])
        first = np.unique(step, return_index=True)[1].tolist()
        invs = [module.action_inverse(t % size) @ invs[t // size] for t in first]
        prods, ids = list(seen), step[ids].ravel()
    return _block_rows(module.ring, dim, dim, k, invs, 1,
                       lambda: (np.arange(size ** n)[:, None] * k, 1, ids[:, None]))


# ---------------------------------------------------------------------------
# the diagonal action on cochains


def group_action_on_cochains(rack: RackTable, module: CoeffModule,
                             n: int, y: int) -> ExactMatrix:
    """Matrix of f -> f.y, (f.y)(x_1..x_n) = f(y|>x_1 .. y|>x_n).y."""
    if not 0 <= y < rack.size:
        raise InputError(f"rack element {y} out of range")
    k = module.dim
    dim = rack.size ** n * k
    return _block_rows(module.ring, dim, dim, k, [module.action(y)], 1, lambda: (
        _permuted_index(rack.translation(y), n)[:, None] * k, 1, 0))


def _check_block(rack, module, n, block):
    dim = rack.size ** n * module.dim
    if block.rows != dim:
        raise InputError(f"a degree-{n} cochain has {dim} entries, got {block.rows}")
    if block.ring != module.ring:
        raise InputError("the cochains and the module must share a ring")


def _column(module, vec):
    """A cochain vector as a one-column block over the module's ring."""
    return ExactMatrix.from_columns([vec], module.ring)


def apply_group_action_columns(rack, module, n, elements, which, block):
    """f -> f.g on a block of cochain columns, column t acted on by the
    closure pair g = elements[which[t]] = (permutation, matrix).

    Entry (x.., l) of column t is sum_j mat[j, l] f(perm(x)..)_j: a row
    gather per column, then one stacked product with the matrices, as
    integers over the denominators of the block and of the matrices, on
    int64 when a bound proves the sums fit, on Python ints otherwise."""
    _check_block(rack, module, n, block)
    k, cols = module.dim, block.cols
    which = np.asarray(which, dtype=np.int64).reshape(cols)
    mats, mat_den, top = matrix_stack([mat for _, mat in elements])
    a, den = block.dense()
    dtype = _int_dtype(block.csr.top * top * k)
    # src[x, t, j]: column t of f at the image of the x-th tuple under its
    # permutation, so out[t, x, l] is sum_j src[x, t, j] mat_t[j, l]
    images = np.stack([_permuted_index(perm, n) for perm, _ in elements])
    src = a.astype(dtype).reshape(rack.size ** n, k, cols)[
        images[which].T, :, np.arange(cols)]
    out = np.matmul(src.transpose(1, 0, 2), mats.astype(dtype)[which])
    return ExactMatrix.from_dense(out.transpose(1, 2, 0).reshape(block.rows, cols),
                                  module.ring, den * mat_den)


def apply_rack_element_columns(rack, module, n, ys, block):
    """Column t of block acted on by the rack element ys[t]."""
    return apply_group_action_columns(
        rack, module, n, [(rack.translation(y), module.action(y))
                          for y in range(rack.size)], ys, block)


def apply_rack_element(rack, module, n, y, vec):
    """The cochain vector vec acted on by the rack element y."""
    return apply_group_action_columns(
        rack, module, n, [(rack.translation(y), module.action(y))], [0],
        _column(module, vec)).column(0)


def slice_first_columns(rack, module, n, ys, block):
    """Column t of block sliced at ys[t]: f -> f_y with f_y(x_2..x_n) =
    f(y, x_2..x_n), a window of rows per column; degree drops by one."""
    if n < 1:
        raise InputError("slice_first needs degree >= 1")
    _check_block(rack, module, n, block)
    tail = rack.size ** (n - 1) * module.dim
    a, den = block.dense()
    rows = np.asarray(ys, dtype=np.int64)[None, :] * tail + np.arange(tail)[:, None]
    return ExactMatrix.from_dense(a[rows, np.arange(block.cols)], block.ring, den)


def slice_first(rack: RackTable, module: CoeffModule, n: int, y: int, vec):
    """f -> f_y with f_y(x_2..x_n) = f(y, x_2..x_n); degree drops by one."""
    return slice_first_columns(rack, module, n, [y], _column(module, vec)).column(0)


def finite_action_group(rack: RackTable, module: CoeffModule) -> FiniteGroup:
    """The finite group through which the action factors: the closure of
    the pairs (translation of x, action matrix of x).  A ResourceError from
    the memory budget means that the finiteness hypothesis (the kernel of
    the action has finite index) is violated or cannot be certified for
    this module."""
    return group_closure(rack.size, rack.table, module.matrices)


def averaging_projector(rack: RackTable, module: CoeffModule, n: int,
                        group: FiniteGroup | None = None) -> ExactMatrix:
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
    scale = (Fraction(1, order) if ring == QQ else 1 if ring == ZZ
             else ring.inv(order))
    mats = [ExactMatrix.from_dense(np.array(e[size + 1:], dtype=object).reshape(k, k),
                                   ring, e[size]) for e in group]
    return _block_rows(ring, dim, dim, k, mats, order, lambda: (
        np.stack([_permuted_index(e[:size], n) for e in group], axis=1) * k,
        1, np.arange(order)), scale)


def invariant_basis(rack: RackTable, module: CoeffModule, n: int,
                    group: FiniteGroup | None = None) -> ExactMatrix:
    """Columns spanning the invariant cochains in degree n: orbit
    indicators for trivial modules (the image of the averaging projector,
    computed combinatorially), the projector image when |G| is
    invertible, the simultaneous fixed space otherwise.
    """
    size, k = rack.size, module.dim
    dim = size ** n * k
    ring = module.ring

    if module.is_trivial:
        # column (orbit, j) is the indicator of the orbit's n-tuples at j
        labels, count = orbit_labels(size ** n, (
            _permuted_index(rack.translation(y), n).tolist() for y in range(size)))
        return _block_rows(ring, dim, count * k, k, [], 1, lambda: (
            np.array(labels)[:, None] * k, 1, 0))

    if group is None:
        group = finite_action_group(rack, module)
    if not ring.is_field:
        raise PreconditionError("fixed-space computation needs a field ring")
    if not isinstance(ring, PrimeField) or group.order % ring.p:
        return averaging_projector(rack, module, n, group).column_basis()
    return _fixed_space_stack(rack, module, n).kernel_matrix()


def _fixed_space_stack(rack, module, n) -> ExactMatrix:
    """The actions of the rack elements on degree-n cochains, each minus
    the identity, stacked; its kernel is the invariant cochains."""
    size, k = rack.size, module.dim
    dim = size ** n * k

    def terms():
        targets = np.concatenate([_permuted_index(rack.translation(y), n)
                                  for y in range(size)])
        ys = np.repeat(np.arange(size), size ** n)
        return (np.stack([targets, np.tile(np.arange(size ** n), size)], axis=1) * k,
                np.array([[1, -1]]), np.stack([ys, np.full_like(ys, size)], axis=1))

    return _block_rows(module.ring, size * dim, dim, k, module.matrices, 2, terms)


# ---------------------------------------------------------------------------
# products


def invariant_columns(rack, module, n, block) -> np.ndarray:
    """Whether each column of block is an invariant cochain, as a boolean
    array: every rack element acts on every column in one block."""
    size, cols = rack.size, block.cols
    a, den = block.dense()
    tiled = ExactMatrix.from_dense(np.tile(a, size), block.ring, den)
    moved = apply_rack_element_columns(rack, module, n,
                                       np.repeat(np.arange(size), cols), tiled)
    invariant = np.ones(cols, dtype=bool)
    invariant[(moved - tiled).csr.indices % cols] = False
    return invariant


def is_invariant_cochain(rack, module, n, vec) -> bool:
    return bool(invariant_columns(rack, module, n, _column(module, vec))[0])


def cochain_product_columns(rack: RackTable, module_a: CoeffModule, a: int, f,
                            module_n: CoeffModule, b: int, g,
                            require_invariant: bool = True):
    """Concatenation product (f (x) g)(x_1..x_(a+b)) = f(front) (x) g(back)
    of the blocks f and g column by column (a column-wise Kronecker
    product); returns the block and the tensor module.

    f lives in degree a with trivial coefficients, g in degree b; for the
    Leibniz identity to hold g must be invariant, which is enforced for
    every column unless require_invariant is False (used to exhibit the
    failure on non-invariant inputs).
    """
    if not module_a.is_trivial:
        raise PreconditionError("the left factor needs trivial coefficients")
    if module_a.ring != module_n.ring:
        raise InputError("both factors must share a coefficient ring")
    _check_block(rack, module_a, a, f)
    _check_block(rack, module_n, b, g)
    if f.cols != g.cols:
        raise InputError("both factors need the same number of columns")
    if require_invariant and not invariant_columns(rack, module_n, b, g).all():
        raise PreconditionError(
            "the right factor must be an invariant cochain; the Leibniz "
            "identity fails otherwise")
    size, cols = rack.size, f.cols
    tensor = tensor_with_trivial(module_n, module_a.dim)
    (fi, fden), (gi, gden) = f.dense(), g.dense()
    bound = f.csr.top * g.csr.top
    # entry ((front, back, i), j) of column t is f_t(front)_i g_t(back)_j
    out = (_exact(fi, bound).reshape(size ** a, 1, module_a.dim, 1, cols)
           * _exact(gi, bound).reshape(1, size ** b, 1, module_n.dim, cols))
    return ExactMatrix.from_dense(out.reshape(size ** (a + b) * tensor.dim, cols),
                                  tensor.ring, fden * gden), tensor


def cochain_product(rack: RackTable, module_a: CoeffModule, a: int, f,
                    module_n: CoeffModule, b: int, g,
                    require_invariant: bool = True):
    """The product of two cochain vectors, the one-column case of
    cochain_product_columns: (f (x) g, tensor module)."""
    out, tensor = cochain_product_columns(
        rack, module_a, a, _column(module_a, f), module_n, b,
        _column(module_n, g), require_invariant)
    return out.column(0), tensor
