"""Exact linear algebra over Z, Q, and prime fields.

Rank, kernel, solve, and Smith normal form back every cohomology
computation.  All arithmetic is arbitrary precision; no floats anywhere.
Matrices store only their nonzero entries, row by row, as integers over
one denominator per row (the lcm of the row's denominators; 1 over Z and
F_p).  Built operators arrive as sorted COO triplets of numpy integers,
which from_triplets reduces mod p, strips of zeros and brings row by row
to lowest terms in whole-array operations before it makes the stored
rows.  Products with a matrix cost O(nnz) integer operations; a product
with a vector runs on numpy over the stored entries as flat arrays, kept
with the matrix from its first product, on int64 when a bound proves the
row sums fit and on Python ints otherwise (_row_sums, which the rank
certificate's exact check and the integer zero-product test share).
Over Z and Q one exact elimination, a reduced row echelon form on integer
rows, serves rank, kernels, solves and inverses.  The rank of a large
matrix first comes from one elimination modulo a ~30-bit prime, proven
by an exact certificate: its kernel mod p, lifted to integer vectors that
the matrix annihilates over Z.  When the certificate refuses, the rank
falls back to that echelon form.  Every F_p rank runs the same numpy
elimination, with no certificate; its pivot steps update only the rows
that meet the pivot column, and in them only the pivot row's support: on
int64 entries below 2^31, on Python ints above.
The Smith form removes +-1 pivots in one sweep on the rank's array layout
and runs its dense loop only on the core that remains.  Both eliminate the
columns from last to first, pivoting on the first row that meets each
(with a +-1 entry, for the Smith form), which on a rack differential picks
pivots that share few columns with the other rows (see _rank_mod_p), so
fill-in stays small.
"""

from __future__ import annotations

import mmap
import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm, prod

import numpy as np

from .errors import InputError, PreconditionError, ResourceError

# matrices with at least this many entries use the modular rank path
MODULAR_RANK_THRESHOLD = 10_000

# the prime of that path: the largest below 2^30, so that products of
# residues fit int64
MODULAR_PRIME = 2**30 - 35

# the products that the exact check of a modular rank's kernel, and the
# gauge images of a nonabelian class search, hold at once: larger blocks
# stay resident in the malloc heap after they are freed
CHECK_BLOCK_BYTES = 1 << 20

DEFAULT_SNF_BIT_CAP = 200_000


def charge_budget(need: int, what: str) -> None:
    """Refuse `what`, which takes `need` bytes, if that passes the memory
    budget RACKOH_BUDGET_MB (a positive number of MiB, default 512)."""
    mb = os.environ.get("RACKOH_BUDGET_MB", "512")
    try:
        budget = int(mb) << 20
    except ValueError:
        budget = 0
    if budget <= 0:
        raise InputError(f"RACKOH_BUDGET_MB must be a positive integer, got {mb!r}")
    if need > budget:
        raise ResourceError(
            f"{what} exceeds the memory budget ({need >> 20} MiB > "
            f"{budget >> 20} MiB); lower the degree or raise RACKOH_BUDGET_MB")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient rings


class Ring:
    """Stateless coefficient ring tag; subclasses normalise entries."""

    name: str
    is_field = False
    characteristic = 0

    def coerce(self, x):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise InputError(f"{x} is not an integer")
            return int(x)
        if isinstance(x, int):
            return x
        raise InputError(f"cannot coerce {x!r} into Z")

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ring:Z")


class RationalRing(Ring):
    name = "Q"
    is_field = True

    def coerce(self, x):
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise InputError(f"cannot coerce {x!r} into Q")

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("ring:Q")


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"prime field modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise InputError(f"{x} has no image in {self.name}")
            return x.numerator % self.p * pow(den, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        raise InputError(f"cannot coerce {x!r} into {self.name}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.name}")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("ring:F", self.p))


ZZ = IntegerRing()
QQ = RationalRing()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def int_vector(vec):
    """(ints, den) with vec[i] = ints[i] / den, den the lcm of the entries'
    denominators, so exact arithmetic on a vector over Q runs on integers."""
    try:
        den = lcm(*[x.denominator for x in vec])
        return [x.numerator * (den // x.denominator) for x in vec], den
    except AttributeError:
        raise InputError("vector entries must be integers or Fractions") from None


def _int_dtype(bound):
    """int64 when integers of absolute value up to `bound` fit it with room
    to spare, else object (Python ints, exact at any size)."""
    return np.int64 if bound < 2**62 else object


def ring_vector(ring, ints, den=1):
    """The ring elements ints[i] / den, each built once: Fractions over Q
    (Fraction(s) when den is 1), residues over F_p."""
    if ring == QQ:
        if den == 1:
            return list(map(Fraction, ints))
        return [Fraction(s, den) for s in ints]
    if den != 1:
        return [ring.coerce(Fraction(s, den)) for s in ints]
    return ints if ring == ZZ else list(map(ring.coerce, ints))


# ---------------------------------------------------------------------------
# matrices


class ExactMatrix:
    """Sparse matrix with exact, ring-normalised entries.

    Each row stores only its nonzero entries, as a triple (cols, nums,
    den): ascending column indices, integer numerators and one positive
    denominator, so entry (i, cols[t]) is nums[t] / den.  Z and F_p rows
    have den = 1 (F_p numerators are residues in [1, p)); a Q row's den is
    the lcm of its entries' denominators, which makes the triple canonical
    and is the row scaling that rank works with.  Read entries through
    `m[i, j]` and `m.nonzeros(i)`.  Instances are immutable.
    """

    __slots__ = ("rows", "cols", "ring", "_rows", "_flat")

    def __init__(self, rows: int, cols: int, ring: Ring, data=None):
        """A rows x cols matrix from dense rows `data`; zero when omitted."""
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self._flat = None
        if data is None:
            self._rows = [_EMPTY_ROW] * rows
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise InputError("matrix data does not match declared shape")
            self._rows = [_row(ring, enumerate(r)) for r in data]

    @classmethod
    def _of(cls, rows, cols, ring, stored):
        m = cls.__new__(cls)
        m.rows, m.cols, m.ring, m._rows = rows, cols, ring, stored
        m._flat = None
        return m

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, ring):
        return cls(rows, cols, ring)

    @classmethod
    def identity(cls, n, ring):
        return cls._of(n, n, ring, [_row(ring, [(i, 1)]) for i in range(n)])

    @classmethod
    def from_rows(cls, rows, ring):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, ring, rows)

    @classmethod
    def from_entries(cls, rows, cols, ring, entries):
        """Build from a {(i, j): value} mapping; unmentioned entries are zero.

        Values are coerced into the ring, and those that become 0 (sums
        that cancelled, multiples of p over F_p) are not stored.
        """
        by_row = [[] for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError(f"entry ({i}, {j}) lies outside a "
                                 f"{rows}x{cols} matrix")
            by_row[i].append((j, v))
        return cls._of(rows, cols, ring, [_row(ring, items) for items in by_row])

    @classmethod
    def from_triplets(cls, rows, cols, ring, ii, jj, nums, den=1):
        """Build from COO triplets: entry (ii[t], jj[t]) is nums[t] / den,
        over one common denominator `den` (1 unless the ring is Q).

        ii and jj are integer arrays, nums an int64 array (den then below
        2^62) or an object array of integers, sorted by (row, column) with
        no position repeated.
        Entries are reduced mod p over F_p and those that are 0 are not
        stored; a Q row is brought to lowest terms.
        """
        ii, jj = np.asarray(ii, np.int64), np.asarray(jj, np.int64)
        nums = np.asarray(nums)
        keys = ii * cols + jj
        if ii.size and (ii.min() < 0 or ii.max() >= rows or jj.min() < 0 or
                        jj.max() >= cols or (keys[1:] <= keys[:-1]).any()):
            raise InputError(f"entries do not fit a {rows}x{cols} matrix, "
                             "sorted by row and column without repeats")
        if ring.characteristic:
            nums = nums % ring.characteristic
        keep = nums != 0
        if not keep.all():
            ii, jj, nums = ii[keep], jj[keep], nums[keep]
        counts = np.bincount(ii, minlength=rows)
        dens = repeat(1)
        if den != 1 and nums.size:
            present = np.flatnonzero(counts)
            first = (np.cumsum(counts) - counts)[present]
            g = np.gcd(np.gcd.reduceat(nums, first), den)
            nums = nums // np.repeat(g, counts[present])
            dens = np.ones(rows, dtype=g.dtype)
            dens[present] = den // g
            dens = dens.tolist()
        del ii, keys, keep
        cols_t, nums_t = tuple(jj.tolist()), tuple(nums.tolist())
        del jj, nums
        counts = counts.tolist()
        return cls._of(rows, cols, ring, [
            (cols_t[a:b], nums_t[a:b], d) if a < b else _EMPTY_ROW for a, b, d in
            zip(accumulate(counts, initial=0), accumulate(counts), dens)])

    # -- entry access --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) lies outside a "
                             f"{self.rows}x{self.cols} matrix")
        cols, nums, den = self._rows[i]
        t = bisect_left(cols, j)
        if t == len(cols) or cols[t] != j:
            return self.ring.coerce(0)
        return Fraction(nums[t], den) if self.ring == QQ else nums[t]

    def nonzeros(self, i):
        """The (column, value) pairs of row i's nonzero entries, by column."""
        cols, nums, den = self._rows[i]
        if self.ring == QQ:
            return [(j, Fraction(a, den)) for j, a in zip(cols, nums)]
        return list(zip(cols, nums))

    @property
    def data(self):
        """Fresh dense rows, zeros included (for code outside the package)."""
        zero = self.ring.coerce(0)
        out = []
        for i in range(self.rows):
            row = [zero] * self.cols
            for j, x in self.nonzeros(i):
                row[j] = x
            out.append(row)
        return out

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.ring == other.ring and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring, tuple(self._rows)))

    def is_zero(self):
        return not any(cols for cols, _, _ in self._rows)

    def column(self, j):
        return [self[i, j] for i in range(self.rows)]

    def hstack(self, other):
        if other.rows != self.rows or other.ring != self.ring:
            raise InputError("hstack needs matching row count and ring")
        shift = self.cols
        return ExactMatrix._of(
            self.rows, self.cols + other.cols, self.ring,
            [_combine(self.ring, [(1, a, 0), (1, b, shift)])
             for a, b in zip(self._rows, other._rows)])

    def to_ring(self, ring: Ring) -> "ExactMatrix":
        return ExactMatrix._of(self.rows, self.cols, ring,
                               [_row(ring, self.nonzeros(i))
                                for i in range(self.rows)])

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other):
        self._check_same_shape(other)
        return ExactMatrix._of(self.rows, self.cols, self.ring,
                               [_combine(self.ring, [(1, a, 0), (-1, b, 0)])
                                for a, b in zip(self._rows, other._rows)])

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise InputError("shape or ring mismatch")

    def __matmul__(self, other):
        """Matrix product (row i of A @ B is sum_j a_ij * row j of B), or
        matvec for a vector."""
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows or self.ring != other.ring:
                raise InputError("matmul shape or ring mismatch")
            brows = other._rows
            return ExactMatrix._of(
                self.rows, other.cols, self.ring,
                [_combine(self.ring, [(a, brows[j], 0) for j, a in zip(cols, nums)],
                          den)
                 for cols, nums, den in self._rows])
        return self.matvec(other)

    def matvec(self, vec):
        """self @ vec as a list, in O(nnz) integer operations on numpy.

        The vector is scaled to integers over the lcm L of its denominators,
        so each output entry is one integer dot product over (den * L): the
        stored numerators times the vector's entries at their columns,
        summed by row, on int64 when a bound proves the sums fit, on Python
        ints otherwise.  The stored entries' arrays (_flat_entries) are
        built on the first call and kept.
        """
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        ints, big = int_vector(vec)
        ints = list(map(int, ints))  # numpy integers would wrap around
        jj, vals, starts, present, row_nnz, top = self._flat_entries()
        # at least 1 on each side, so the entries and the vector fit as well
        dtype = _int_dtype(max(top * row_nnz, 1)
                           * max(max(map(abs, ints), default=0), 1))
        out = np.zeros(self.rows, dtype=dtype)
        out[present] = _row_sums(np.array(ints, dtype=dtype), jj, vals, starts)
        out = out.tolist()
        if self.ring == QQ and any(den != 1 for _, _, den in self._rows):
            return [Fraction(s, den * big) for s, (_, _, den) in zip(out, self._rows)]
        return ring_vector(self.ring, out, big)

    def annihilates(self, other: "ExactMatrix") -> bool:
        """Whether self @ other is zero, for integer matrices, exactly.

        `other` is made a dense array, and each block of self's rows
        multiplies it through the kernel of matvec: its stored entries
        times the rows of the array at their columns, summed by row, on
        int64 when a bound proves the sums fit, on Python ints otherwise.
        The array and one block's products, at most CHECK_BLOCK_BYTES,
        are charged to the memory budget before they exist.
        """
        if self.ring != ZZ or other.ring != ZZ:
            raise PreconditionError("annihilates works on integer matrices")
        if self.cols != other.rows:
            raise InputError("product shape mismatch")
        jj, vals, starts, _, row_nnz, top = self._flat_entries()
        bi, bj, bvals, btop = other._entry_arrays()
        if not jj.size or not bj.size:
            return True
        charge_budget(8 * other.rows * other.cols
                      + min(8 * jj.size * other.cols, CHECK_BLOCK_BYTES),
                      f"the dense {other.rows}x{other.cols} factor of a zero "
                      "product check")
        x = np.zeros((other.rows, other.cols), dtype=_int_dtype(top * row_nnz * btop))
        x[bi, bj] = bvals
        block = max(1, CHECK_BLOCK_BYTES // (8 * other.cols * row_nnz))
        return _annihilates(starts, jj, vals, x, block)

    # -- integer normalisation ----------------------------------------------

    def _flat_entries(self):
        """The stored entries as the arrays of _flat_rows, built on the
        first call and kept."""
        if self._flat is None:
            self._flat = _flat_rows(*self._int_entries())
        return self._flat

    def _entry_arrays(self):
        """The stored entries' row indices, columns and values as arrays,
        and the largest |value|, from _flat_entries."""
        jj, vals, starts, present, _, top = self._flat_entries()
        return np.repeat(present, np.diff(starts, append=jj.size)), jj, vals, top

    def _int_entries(self):
        """Nonzero entries as COO triplets (row indices, column indices, ints).

        These are the stored numerators: a Q row comes scaled by the lcm of
        its denominators (row scaling preserves rank).
        """
        ii, jj, vals = [], [], []
        for i, (cols, nums, _) in enumerate(self._rows):
            ii += [i] * len(cols)
            jj += cols
            vals += nums
        return ii, jj, vals

    # -- rank ----------------------------------------------------------------

    def rank(self) -> int:
        """Rank over the matrix ring.

        F_p matrices run one modular elimination.  Z/Q matrices with at
        least MODULAR_RANK_THRESHOLD entries run it mod MODULAR_PRIME and
        prove the rank by an exact kernel certificate (see
        _rank_certified); smaller ones, and those whose certificate
        refuses, count the pivots of the exact reduced row echelon form.
        """
        if self.rows == 0 or self.cols == 0:
            return 0
        if isinstance(self.ring, PrimeField):
            return len(_rank_mod_p(self.rows, self.cols, self._int_entries(),
                                   self.ring.p))
        if self.rows * self.cols >= MODULAR_RANK_THRESHOLD:
            r = _rank_certified(self.rows, self.cols, self._int_entries())
            if r is not None:
                return r
        return len(self._rref().pivot_cols)

    # -- field elimination ----------------------------------------------------

    def _rref(self):
        """The reduced row echelon form of the stored rows (over Q for Z)."""
        rref = _IncrementalRREF(self.cols, getattr(self.ring, "p", None))
        for cols, nums, _ in self._rows:
            rref.feed(zip(cols, nums))
        return rref

    def kernel_basis(self):
        """Basis of the right kernel; field rings only."""
        k = self.kernel_matrix()
        return [k.column(t) for t in range(k.cols)]

    def kernel_matrix(self):
        """Columns spanning the right kernel, one per free column f of the
        reduced row echelon form: 1 at f, minus column f of the reduced
        pivot rows at the pivot columns."""
        if not self.ring.is_field:
            raise PreconditionError("kernel_basis needs a field ring (Q or Fp)")
        rref = self._rref()
        pivots = set(rref.pivot_cols)
        free = [j for j in range(self.cols) if j not in pivots]
        stored = rref.stored_rows(self.ring, free, -1)
        for t, j in enumerate(free):
            stored[j] = ((t,), (1,), 1)
        return ExactMatrix._of(self.cols, len(free), self.ring, stored)

    def column_basis(self):
        """The columns at the pivots of the reduced row echelon form (the
        first columns that span the column space), as a matrix."""
        where = {c: t for t, c in enumerate(self._rref().pivot_cols)}
        return ExactMatrix._of(
            self.rows, len(where), self.ring,
            [_int_row(self.ring, {where[j]: a for j, a in zip(cols, nums)
                                  if j in where}, den)
             for cols, nums, den in self._rows])

    def solve(self, rhs):
        """Some solution x of self @ x = rhs, or None; field rings only."""
        sol = self.solve_columns(
            ExactMatrix(self.rows, 1, self.ring, [[v] for v in rhs]))
        return None if sol is None else sol.column(0)

    def solve_columns(self, rhs: "ExactMatrix"):
        """Solve self @ X = rhs column-wise; returns X or None if inconsistent."""
        if not self.ring.is_field:
            raise PreconditionError("solve needs a field ring (Q or Fp)")
        if rhs.rows != self.rows:
            raise InputError("rhs row count mismatch")
        rref = self.hstack(rhs)._rref()
        width = self.cols
        if any(c >= width for c in rref.pivot_cols):
            return None
        stored = rref.stored_rows(self.ring, range(width, width + rhs.cols))
        return ExactMatrix._of(width, rhs.cols, self.ring, stored[:width])

    def inverse(self):
        """Inverse matrix; InputError when singular (Z needs a unimodular input)."""
        if self.rows != self.cols:
            raise InputError("only square matrices can be inverted")
        if self.ring == ZZ:
            # a stored Z row is the stored form of the same row over Q
            inv_q = ExactMatrix._of(self.rows, self.cols, QQ, self._rows).inverse()
            if any(den != 1 for _, _, den in inv_q._rows):
                raise InputError("matrix is not invertible over Z")
            return ExactMatrix._of(self.rows, self.cols, ZZ, inv_q._rows)
        sol = self.solve_columns(ExactMatrix.identity(self.rows, self.ring))
        if sol is None:
            raise InputError("matrix is singular")
        return sol

    # -- Smith normal form ------------------------------------------------------

    def smith_normal_form(self, bit_cap: int = DEFAULT_SNF_BIT_CAP) -> "SmithForm":
        if self.ring != ZZ:
            raise PreconditionError("Smith normal form needs an integer matrix")
        return _smith(self, bit_cap)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.ring})"


# ---------------------------------------------------------------------------
# sparse rows


_EMPTY_ROW = ((), (), 1)


def _row(ring, items):
    """Stored form of one row from (column, value) pairs, columns distinct.

    Values are coerced into the ring; those that become 0 are dropped.
    """
    coerce = ring.coerce
    pairs = sorted((j, x) for j, v in items if (x := coerce(v)))
    if not pairs:
        return _EMPTY_ROW
    cols, vals = zip(*pairs)
    if ring != QQ:
        return cols, vals, 1
    den = lcm(*[x.denominator for x in vals])
    return cols, tuple(x.numerator * (den // x.denominator) for x in vals), den


def _combine(ring, terms, den=1):
    """Stored form of (1 / den) * sum(c * row, shifted right by `shift`)
    over the (c, row, shift) terms, for integers c and stored rows."""
    scale = lcm(*[row[2] for _, row, _ in terms])
    acc = {}
    for c, (cols, nums, d), shift in terms:
        f = c * (scale // d)
        for j, a in zip(cols, nums):
            j += shift
            acc[j] = acc.get(j, 0) + f * a
    return _int_row(ring, acc, den * scale)


def _int_row(ring, acc, den):
    """Stored form of the row {column: integer} / den (den = 1 over F_p)."""
    p = ring.characteristic
    if p:
        acc = {j: a % p for j, a in acc.items()}
    pairs = sorted((j, a) for j, a in acc.items() if a)
    if not pairs:
        return _EMPTY_ROW
    cols, nums = zip(*pairs)
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = tuple(a // g for a in nums)
    return cols, nums, den


# ---------------------------------------------------------------------------
# elimination kernels


class _IncrementalRREF:
    """Reduced row echelon form built one row at a time.

    Pivot rows are kept mutually reduced, so feeding a row costs one pass
    over the current pivots; well suited to the tall thin matrices that
    show up as restricted differentials.  Over F_p entries are residues
    and each pivot entry is 1.  Over Q (p=None) rows are integers: each
    pivot row is stored primitive with a positive pivot entry, which is
    its denominator (the reduced row is row / row[pivot]).  Rows are
    reduced by cross-multiplication and divided by their gcd, so no
    Fraction is made.
    """

    def __init__(self, width, p=None):
        self.width = width
        self.p = p
        self.pivot_rows = []
        self.pivot_cols = []

    def _reduce(self, row, other, c):
        """row with its column-c entry cleared by `other`, the pivot row of c."""
        f, p = row[c], self.p
        if p is not None:
            return [(a - f * b) % p for a, b in zip(row, other)]
        g = gcd(f, other[c])
        f, h = f // g, other[c] // g
        row = [h * a - f * b for a, b in zip(row, other)]
        g = gcd(*row)
        return [a // g for a in row] if g > 1 else row

    def feed(self, items):
        """Add the row given by its (column, integer) pairs (over Q any
        nonzero multiple of the row will do); True if it was independent
        of the rows fed so far."""
        p = self.p
        row = [0] * self.width
        for j, x in items:
            row[j] = x if p is None else int(x) % p
        for r, c in zip(self.pivot_rows, self.pivot_cols):
            if row[c]:
                row = self._reduce(row, r, c)
        lead = next((j for j in range(self.width) if row[j]), None)
        if lead is None:
            return False
        if p is None:
            g = gcd(*row) if row[lead] > 0 else -gcd(*row)
            row = [a // g for a in row]
        else:
            inv = pow(row[lead], -1, p)
            row = [a * inv % p for a in row]
        for i, r in enumerate(self.pivot_rows):
            if r[lead]:
                self.pivot_rows[i] = self._reduce(r, row, lead)
        pos = bisect_left(self.pivot_cols, lead)
        self.pivot_rows.insert(pos, row)
        self.pivot_cols.insert(pos, lead)
        return True

    def stored_rows(self, ring, cols, sign=1):
        """One stored row per column of the input: the row of pivot column
        c holds sign times the reduced pivot row of c, its t-th entry read
        from column cols[t]; the rows of the other columns are empty."""
        out = [_EMPTY_ROW] * self.width
        for r, c in zip(self.pivot_rows, self.pivot_cols):
            out[c] = _int_row(ring, {t: sign * r[j] for t, j in enumerate(cols)
                                     if r[j]}, r[c])
        return out


def _rank_mod_p(m, n, coo, p):
    """The pivot rows mod p of the m x n integer matrix given by COO
    triplets, one (support, residues) pair of arrays per pivot; their
    number is the rank mod p.  Each row is normalised so that its pivot
    entry, at the last column of its support, is 1.

    One numpy elimination over the columns from last to first, each
    pivoting on the first row, in the original order, that has a nonzero
    in it and has not pivoted yet.  No rows are swapped: the pivot row is
    copied out and zeroed in the array.  A pivot step updates only the
    rows with a nonzero in the pivot column, and in them only the pivot
    row's nonzero columns, through flat indices.  Every column right of
    the pivot is zero by then in the rows that have not pivoted, so each
    pivot row's support lies in the columns up to its pivot.  The order
    suits the lex-ordered differentials: the rows whose first argument
    y_1 is element 0 come first, and each column z meets an invertible
    block in row (0, z), from the term that deletes y_1.  All but one of
    that row's other blocks sit in columns (0, ...), which come first and
    so are eliminated last; the pivots therefore share few columns with
    the rows below them (structural pivots, as in LaMacchia-Odlyzko and
    Faugere-Lachartre), and the updates stay small: on dihedral:5 d_4
    they touch 1.2 M cells, against 7.6 M going first to last.

    The array is stored column by column, so that finding a column's
    nonzeros reads contiguous memory.  It takes 8 * m * n bytes, charged
    to the memory budget before it exists.  Residue products fit int64
    for p < 2^31; larger primes run the same loop on Python ints.
    The int64 array gets an anonymous mapping of its own, unmapped when
    the array dies: a large array from the malloc heap stays resident
    after it is freed, and whether the next one reuses it depends on the
    heap's layout, so peak memory would differ from run to run.
    """
    ii, jj, vals = coo
    need = 8 * m * n
    charge_budget(need, f"the {m}x{n} residue array of a modular rank")
    if p < 2**31:
        at = np.frombuffer(mmap.mmap(-1, need), dtype=np.int64).reshape(n, m)
    else:
        at = np.zeros((n, m), dtype=object)
    at[jj, ii] = [v % p for v in vals]
    flat = at.reshape(-1)
    pivots = []
    for c in range(n - 1, -1, -1):
        if len(pivots) == m:
            break
        nz = at[c].nonzero()[0]
        if nz.size == 0:
            continue
        row = at[:c + 1, nz[0]]
        support = row.nonzero()[0]
        residues = row[support] * pow(int(row[c]), -1, p) % p
        row[support] = 0
        pivots.append((support, residues))
        below = nz[1:]
        if below.size:
            cells = (support[:, None] * m + below).ravel()
            f = flat.take(below + c * m)
            flat.put(cells, (flat.take(cells)
                             - (residues[:, None] * f).ravel()) % p)
    return pivots


def _rank_certified(m, n, coo):
    """Rank of the m x n integer matrix given by COO triplets, from one
    elimination mod MODULAR_PRIME, or None when its certificate refuses.

    The rank r mod p is at most the rank over Q.  The n - r kernel
    vectors mod p that are the identity on the free (non-pivot) columns
    are lifted to integer vectors and checked exactly: they are
    independent, so a lift that A annihilates over Z proves the rank is
    at most r.  A prime that divides a maximal minor, a kernel that
    needs a denominator of 2^15 or more, or an entry of 2^31 or more
    (the check runs on int64) makes the certificate refuse.  A wide
    matrix is ranked as its transpose, whose kernel is the smaller.
    """
    ii, jj, vals = coo
    if max(map(abs, vals), default=0) >= 2**31:
        return None
    if m < n:
        order = np.lexsort((ii, jj)).tolist()
        m, n, coo = n, m, tuple([x[t] for t in order] for x in (jj, ii, vals))
    pivots = _rank_mod_p(m, n, coo, MODULAR_PRIME)
    return (len(pivots) if _kernel_certifies(m, n, coo, pivots, MODULAR_PRIME)
            else None)


def _kernel_certifies(m, n, coo, pivots, p):
    """Whether the kernel mod p of the pivot rows `pivots` of the matrix
    A given by COO triplets lifts to integer vectors that A annihilates.

    The free columns are taken in chunks, so that the kernel mod p, its
    lift and the back-substitution's products stay below half the
    8 * m * n bytes of the residue array; the check takes A's rows in
    blocks whose products fill at most CHECK_BLOCK_BYTES.  These arrays
    and A's entries as int64 arrays are charged to the memory budget
    before they exist.
    """
    nnz = len(coo[1])
    if not nnz:
        return True
    steps = _back_substitution(n, pivots)
    per_column = 8 * (4 * n + 2 * max((c.size for _, c, _, _ in steps), default=0))
    free = np.setdiff1d(np.arange(n), [support[-1] for support, _ in pivots])
    width = max(1, min(free.size, 4 * m * n // per_column))
    charge_budget(24 * nnz + width * per_column
                  + min(8 * nnz * width, CHECK_BLOCK_BYTES),
                  f"the kernel certificate of a {m}x{n} modular rank")
    jj, vals, starts, _, row_nnz, top = _flat_rows(*coo)
    bound = top * row_nnz
    for lo in range(0, free.size, width):
        lift = _lift_kernel(_kernel_mod_p(n, steps, free[lo:lo + width], p), p)
        if lift is None or bound * int(np.abs(lift).max()) >= 2**62:
            return False
        block = max(1, CHECK_BLOCK_BYTES // (8 * lift.shape[1] * row_nnz))
        if not _annihilates(starts, jj, vals, lift, block):
            return False
    return True


def _back_substitution(n, pivots):
    """The pivot rows with entries off their pivot, grouped into steps of
    a back-substitution: a row joins the step after the latest step of
    the pivot columns in its support, so each step depends only on the
    ones before it.  A step is (its rows' pivot columns, their other
    columns, the residues there, the offsets where each row's entries
    begin)."""
    level = np.zeros(n, dtype=np.int64)
    steps = {}
    for support, residues in reversed(pivots):
        if support.size > 1:
            k = level[support[-1]] = level[support[:-1]].max() + 1
            steps.setdefault(int(k), []).append((support, residues))
    out = []
    for _, rows in sorted(steps.items()):
        sizes = np.array([s.size - 1 for s, _ in rows])
        out.append((np.array([s[-1] for s, _ in rows]),
                    np.concatenate([s[:-1] for s, _ in rows]),
                    np.concatenate([v[:-1] for _, v in rows]),
                    np.cumsum(sizes) - sizes))
    return out


def _kernel_mod_p(n, steps, free, p):
    """The kernel vectors mod p of the pivot rows that are 1 at one column
    of `free` and 0 at the other free columns, as the columns of an
    n x len(free) array, from the back-substitution `steps`."""
    x = np.zeros((n, free.size), dtype=np.int64)
    x[free, np.arange(free.size)] = 1
    for targets, cols, residues, starts in steps:
        x[targets] = -np.add.reduceat(residues[:, None] * x[cols] % p,
                                      starts, axis=0) % p
    return x


def _lift_kernel(x, p):
    """Integer vectors d * x: each column of the residue array x times its
    denominator d < 2^15, lifted to residues in (-p/2, p/2); None when a
    column needs d >= 2^15.  d is the lcm of the rational reconstructions'
    denominators of the column's residues that are not small integers."""
    rows, cols = np.nonzero((x >= 2**15) & (x <= p - 2**15))
    dens = _reconstruction_denominators(x[rows, cols], p)
    d = np.ones(x.shape[1], dtype=np.int64)
    keep = dens > 1
    pairs = np.unique(cols[keep] * 2**15 + dens[keep])
    for col, den in zip((pairs >> 15).tolist(), (pairs & 0x7FFF).tolist()):
        d[col] = lcm(int(d[col]), den)
        if d[col] >= 2**15:
            return None
    x *= d
    x %= p
    x[x > p // 2] -= p
    return x


def _reconstruction_denominators(x, p):
    """For each residue x, the denominator b of the fraction a / b = x mod
    p that Euclid's algorithm on p and x reaches at the first remainder
    |a| < 2^15 (the rational reconstruction of x); b <= p / 2^15 < 2^15
    for p < 2^30."""
    out = np.empty_like(x)
    where = np.arange(x.size)
    r0, r1 = np.full_like(x, p), x.copy()
    t0, t1 = np.zeros_like(x), np.ones_like(x)
    while where.size:
        done = r1 < 2**15
        out[where[done]] = np.abs(t1[done])
        go = ~done
        where, r0, r1, t0, t1 = where[go], r0[go], r1[go], t0[go], t1[go]
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return out


def _annihilates(starts, jj, vals, lift, block):
    """Whether A @ lift == 0 exactly, for the integer matrix A whose
    stored entries vals sit in columns jj and in rows that begin at the
    offsets `starts`, `block` rows at a time.  The caller keeps every sum
    below 2^62."""
    for a in range(0, starts.size, block):
        lo = starts[a]
        hi = starts[a + block] if a + block < starts.size else jj.size
        if _row_sums(lift, jj[lo:hi], vals[lo:hi], starts[a:a + block] - lo).any():
            return False
    return True


def _flat_rows(ii, jj, vals):
    """The integer matrix given by COO triplets sorted by row, as arrays:
    the entries' columns and values (int64 when they fit, else Python
    ints), the offsets where the non-empty rows begin and those rows'
    indices, then the most entries in a row and the largest |value|, whose
    product times max |x| bounds every sum of _row_sums."""
    top = max(map(abs, vals), default=0)
    ii = np.asarray(ii, dtype=np.int64)
    starts = np.flatnonzero(np.diff(ii, prepend=-1))
    return (np.asarray(jj, dtype=np.int64), np.array(vals, dtype=_int_dtype(top)),
            starts, ii[starts], int(np.diff(starts, append=ii.size).max(initial=0)),
            top)


def _row_sums(x, jj, vals, starts):
    """A @ x for the matrix A whose stored entries vals sit in columns jj
    and in non-empty rows that begin at the offsets `starts`, and for x a
    vector or the columns of a 2-d array: each entry times its column's
    entry (or row) of x, summed by row with np.add.reduceat, which would
    misread an empty row.  The products take the dtype of x."""
    products = x[jj]
    products *= vals.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.add.reduceat(products, starts, axis=0)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    No transforms are computed, so `U` and `V` are always None; the fields
    stay for code that inspects them.
    """

    invariant_factors: tuple
    rank: int
    U: ExactMatrix | None = None
    V: ExactMatrix | None = None

    @property
    def torsion(self):
        return tuple(d for d in self.invariant_factors if d != 1)


def _unit_sweep(matrix: ExactMatrix):
    """(u, core): the number u of +-1 pivots swept off the integer matrix
    and, as lists of ints, the rows of what remains on its nonzero rows
    and columns.  The invariant factors are u ones, then the core's.

    The loop of _rank_mod_p, on its column-major array (8 * m * n bytes,
    charged to the memory budget, mapped on its own): the columns from
    last to first, each pivoting on the first row whose entry there is
    +-1, or left to the core when none is.  Row operations clear the
    column, updating the pivot row's support in the rows that meet it;
    column operations then clear the pivot row and touch nothing else, so
    it is zeroed and splits off a factor 1.  Entries start on int64 below
    2^31, so every update's products fit; an update that reaches 2^31
    moves the array to Python ints, and the loop goes on there.
    """
    m, n = matrix.rows, matrix.cols
    ii, jj, vals, top = matrix._entry_arrays()
    if not jj.size:
        return 0, []
    need = 8 * m * n
    what = f"the Smith form working array of a {m}x{n} matrix"
    charge_budget(need, what)
    if top < 2**31:
        at = np.frombuffer(mmap.mmap(-1, need), dtype=np.int64).reshape(n, m)
    else:
        at = np.zeros((n, m), dtype=object)
    at[jj, ii] = vals
    flat = at.reshape(-1)
    units = 0
    for c in range(n - 1, -1, -1):
        col = at[c]
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        unit = nz[np.abs(col[nz]) == 1]
        if unit.size == 0:
            continue
        i = unit[0]
        row = at[:, i]
        support = row.nonzero()[0]
        pivot_row = row[support] * col[i]
        row[support] = 0
        units += 1
        below = nz[nz != i]
        if below.size == 0:
            continue
        cells = (support[:, None] * m + below).ravel()
        f = flat.take(below + c * m)
        new = flat.take(cells) - (pivot_row[:, None] * f).ravel()
        flat.put(cells, new)
        if at.dtype == np.int64 and np.abs(new).max() >= 2**31:
            charge_budget(2 * need, what)
            at = at.astype(object)
            flat = at.reshape(-1)
    core = at[np.ix_(np.flatnonzero(at.any(axis=1)), np.flatnonzero(at.any(axis=0)))]
    return units, core.T.tolist()


def _smith(matrix: ExactMatrix, bit_cap: int) -> SmithForm:
    """Invariant factors: the unit pivots of _unit_sweep, then a dense loop
    on the core they leave."""
    units, d = _unit_sweep(matrix)
    m, n = len(d), len(d[0]) if d else 0

    s = 0
    while s < min(m, n):
        piv, best = None, None
        for i in range(s, m):
            for j in range(s, n):
                a = abs(d[i][j])
                if a and (best is None or a < best):
                    piv, best = (i, j), a
        if piv is None:
            break
        d[s], d[piv[0]] = d[piv[0]], d[s]
        for row in d:
            row[s], row[piv[1]] = row[piv[1]], row[s]

        while True:
            # entries can grow within one pivot step, so check every pass
            if max(abs(a) for row in d[s:] for a in row[s:]).bit_length() > bit_cap:
                raise ResourceError(f"Smith form entries exceeded {bit_cap} bits")
            dirty = False
            for i in range(s + 1, m):
                if d[i][s]:
                    q = d[i][s] // d[s][s]
                    d[i] = [a - q * b for a, b in zip(d[i], d[s])]
                    if d[i][s]:
                        d[s], d[i] = d[i], d[s]
                        dirty = True
            for j in range(s + 1, n):
                if d[s][j]:
                    q = d[s][j] // d[s][s]
                    for row in d:
                        row[j] -= q * row[s]
                    if d[s][j]:
                        for row in d:
                            row[s], row[j] = row[j], row[s]
                        dirty = True
            if not dirty and all(d[i][s] == 0 for i in range(s + 1, m)) \
                    and all(d[s][j] == 0 for j in range(s + 1, n)):
                break

        # make the pivot divide every trailing entry (gives the factor chain)
        fix = None
        for i in range(s + 1, m):
            if any(d[i][j] % d[s][s] for j in range(s + 1, n)):
                fix = i
                break
        if fix is not None:
            d[s] = [a + b for a, b in zip(d[s], d[fix])]
            continue
        s += 1

    factors = [1] * units
    for i in range(min(m, n)):
        if d[i][i]:
            factors.append(abs(d[i][i]))
        else:
            break
    return SmithForm(tuple(factors), len(factors))


# ---------------------------------------------------------------------------
# finitely generated abelian groups as lattice quotients


@dataclass(frozen=True)
class AbelianGroup:
    """Isomorphism type Z^free_rank + sum of Z/d for d in torsion."""

    free_rank: int
    torsion: tuple

    @property
    def order(self):
        """Number of elements; None when the group is infinite."""
        return None if self.free_rank else prod(self.torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def lattice_quotient(kernel_of: ExactMatrix, image_of: ExactMatrix,
                     modulus: int = 0) -> AbelianGroup:
    """Invariants of ker(kernel_of) / im(image_of) over Z, or mod `modulus`.

    kernel_of @ image_of must vanish.  Then ker(kernel_of) is a direct
    summand of the ambient lattice (its quotient embeds in a free group),
    so only the invariant factors e of image_of and f of kernel_of matter:
    over Z the quotient is Z^free + sum of Z/e, with
    free = cols - rank(kernel_of) - rank(image_of).  With a prime power
    q > 1 the numerator is {v : kernel_of @ v = 0 mod q}, the denominator
    also contains q * (ambient lattice), and the universal coefficient
    theorem gives (Z/q)^free + sum of Z/gcd(e, q) + sum of Z/gcd(f, q).
    """
    if kernel_of.ring != ZZ or image_of.ring != ZZ:
        raise PreconditionError("lattice_quotient works on integer matrices")
    if image_of.rows != kernel_of.cols:
        raise InputError("image generators live in the wrong ambient space")
    if modulus and not _is_prime_power(modulus):
        raise InputError(f"modulus {modulus} is not a prime power")
    if not kernel_of.annihilates(image_of):
        raise ArithmeticError("image does not lie in the kernel")
    a = kernel_of.smith_normal_form()
    return _quotient_invariants(kernel_of.cols, a.rank, image_of.smith_normal_form(),
                                modulus, a.torsion)


def _quotient_invariants(cols, rank, b, modulus=0, torsion=()):
    """The lattice_quotient formula, from the rank and, with a modulus, the
    torsion of kernel_of, the Smith form b of image_of and the ambient
    rank cols."""
    free = cols - rank - b.rank
    if not modulus:
        return AbelianGroup(free, b.torsion)
    orders = [gcd(d, modulus) for d in b.torsion + torsion]
    return AbelianGroup(0, tuple(sorted([modulus] * free
                                        + [d for d in orders if d != 1])))


def _is_prime_power(q: int) -> bool:
    """Whether q = r^k for a prime r and k >= 1: tests the exact integer
    k-th roots of q, so its cost grows with log q, not with r."""
    for k in range(1, q.bit_length()):
        r = _iroot(q, k)
        if r ** k == q and is_prime(r):
            return True
    return False


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n, for n >= 0 and k >= 1 (Newton from above)."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s
