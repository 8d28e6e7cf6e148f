"""Exact linear algebra over Z, Q, and prime fields.

Rank, kernel, solve, and Smith normal form back every cohomology
computation.  All arithmetic is arbitrary precision; no floats anywhere.
Matrices store their nonzero entries as compressed sparse rows: numpy
arrays of row offsets, columns and integer numerators, over one
denominator for the whole matrix, made canonical by one normaliser.
A product with a matrix expands its terms (Gustavson) a block of rows at
a time and sums each block before the next: in a dense accumulator when
the block's positions are few per term, else by a sort.  Each block is
charged to the memory budget before it is expanded, with the entries kept
so far; that A @ B = 0 is tested exactly, over every ring, as a product
that stores no entry, in one block of memory.  A product with a vector is
the one-column case: the vector becomes a column (from_columns), and the
column of the result a list again (column).
One numpy elimination serves every rank, kernel, solve, inverse and
column basis: mod p over F_p, over Z and Q modulo a ~30-bit prime,
proven by an exact certificate (its kernel mod p, lifted to integer
vectors that the matrix annihilates over Z, is the kernel over Q).  A
solve is the kernel of [rhs | A], an inverse a solve against the
identity.  When the certificate refuses, more primes are combined by CRT
until the exact check holds.  The Smith form runs the elimination over
Z, pivoting only on +-1 entries, then a dense loop on the core.  That one
loop (_eliminate) eliminates the columns of a column-major array from
last to first, pivoting on the first row that meets each; on a rack
differential such pivots share few columns with the other rows, so
fill-in stays small.  A pivot step updates only the rows that meet the
pivot column, and in them only the pivot row's support, in one int32
array (Python ints past 2^31) of residues mod p, or of entries over Z.
Mod p a large tall matrix is read in two blocks of rows: the first 2n
and a probe, a combination of the rest, which pivots only if the rest
leaves their span; if not, a proof (the kernel mod p or the exact
certificate) may put the rest in that span unread, else the rest is
swept under the first block's pivot rows.
Every rank comes with as many independent rows (independent_rows): the
modular pivot rows, independent mod p and so over Q, or a wide matrix's
transpose's pivot columns.  They let a chain complex clear d_n before
ranking it (see cohomology.RackComplex): when d_n @ d_(n-1) = 0, checked exactly once per
degree for field and integral ranks alike, the columns of d_n at
rank d_(n-1) independent rows of d_(n-1) are combinations of its other
columns, so d_n has the rank of select_columns of the rest, and that
smaller matrix's certificate proves it.
"""

from __future__ import annotations

import mmap
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from .errors import InputError, PreconditionError, ResourceError

# the prime of the elimination over Z and Q: the largest below 2^30, so
# that products of residues fit int64 (more primes below it if need be)
MODULAR_PRIME = 2**30 - 35

# modular ranks of at least this many cells read rows in blocks (see
# _eliminate); on fewer the probe and proof cost more than the rows skipped
ROW_BLOCK_THRESHOLD = 400_000

# the products that the exact check of a modular rank's kernel, and the
# gauge images of a nonabelian class search, hold at once: larger blocks
# stay resident in the malloc heap after they are freed
CHECK_BLOCK_BYTES = 1 << 20

# elimination arrays below this size come from the malloc heap, cheaper
# than a mapping of their own; the certificate's chunks may take this much
SMALL_BYTES = 1 << 16

# What a kernel takes per cell of its n x (free columns) array of integer
# vectors, with the matrix made of them: 16-35 bytes on zero, sparse and
# random matrices over Q and F_7 (tracemalloc; tests/test_linalg.py).
KERNEL_BYTES_PER_CELL = 40

# What a matrix product charges per term of a block, and per entry that
# it keeps, before it expands the block: the block's int64 keys, positions
# and values, then its sort order and sorted copies or its dense
# accumulator (at most DENSE_CELLS_PER_TERM cells a term), and the sums.
# Under tracemalloc the worst case, one term a row in DENSE_CELLS_PER_TERM
# columns, peaks at 101 bytes a term of its charge; dihedral:5 d_4 @ d_3
# and d_5 @ d_4 (dense and sorted blocks) at 55 and 67, products that
# keep every term at 49 to 57.  Terms on Python ints are charged two ints
# more each, of which the product takes one.  tests/test_linalg.py
# measures it.
BYTES_PER_TERM = 112

# a block of terms whose keys span at most this many cells a term is
# added up in a dense int64 accumulator rather than sorted: np.add.at and
# a scan of the cells cost about 3 ns a cell, a stable sort and
# np.add.reduceat about 40 ns a term (keys grouped by row, 14,000 terms,
# numpy 2.4), so the two meet near 10 cells a term; the accumulator's 8
# bytes a cell are charged within BYTES_PER_TERM
DENSE_CELLS_PER_TERM = 8

DEFAULT_SNF_BIT_CAP = 200_000


def charge_budget(need: int, what: str, hint: str = "lower the degree") -> None:
    """Refuse `what`, which takes `need` bytes, if that passes the memory
    budget RACKOH_BUDGET_MB (a positive number of MiB, default 512); the
    message suggests `hint` or a larger budget."""
    mb = os.environ.get("RACKOH_BUDGET_MB", "512")
    try:
        budget = int(mb) << 20
    except ValueError:
        budget = 0
    if budget <= 0:
        raise InputError(f"RACKOH_BUDGET_MB must be a positive integer, got {mb!r}")
    if need > budget:  # the need rounded up to 0.1 MiB reads above the budget
        raise ResourceError(
            f"{what} exceeds the memory budget ({-(-10 * need >> 20) / 10} MiB > "
            f"{budget >> 20} MiB); {hint} or raise RACKOH_BUDGET_MB")


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


class CSR(NamedTuple):
    """Stored entries: row i holds nums[t] / den at column indices[t] for
    indptr[i] <= t < indptr[i + 1]; top is the largest |nums[t]|."""

    indptr: np.ndarray
    indices: np.ndarray
    nums: np.ndarray
    den: int
    top: int


class ExactMatrix:
    """Sparse matrix with exact, ring-normalised entries, immutable.

    The nonzero entries are stored as compressed sparse rows (CSR):
    ascending columns and integer numerators (int64 below 2^62, Python ints
    above) over one denominator for the whole matrix: 1 over Z and F_p
    (numerators are residues in [1, p)), over Q the lcm of the entries'
    denominators, so that the numerators and it have gcd 1.  _normalised,
    which ends every constructor and operation, makes that canonical.
    Read entries through `m[i, j]` and `m.nonzeros(i)`, or as arrays
    through `m.csr`.
    """

    __slots__ = ("rows", "cols", "ring", "_csr", "_independent")

    def __init__(self, rows: int, cols: int, ring: Ring, data=None):
        """A rows x cols matrix from dense rows `data`; zero when omitted."""
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if data is not None and (len(data) != rows or any(len(r) != cols for r in data)):
            raise InputError("matrix data does not match declared shape")
        self.rows, self.cols, self.ring, self._independent = rows, cols, ring, None
        self._csr = ExactMatrix.from_entries(rows, cols, ring, {
            (i, j): v for i, row in enumerate(() if data is None else data)
            for j, v in enumerate(row)})._csr

    @classmethod
    def _normalised(cls, rows, cols, ring, key, nums, den=1):
        """The matrix with entry nums[t] / den at position key[t] = i * cols
        + j, keys ascending (den is 1 unless the ring is Q): entries reduced
        mod p over F_p, zeros dropped and the matrix brought to lowest
        terms, on whole arrays."""
        nums = np.asarray(nums)
        if nums.dtype.kind != "O" and nums.dtype != np.int64:  # exactly, as Python ints
            nums = nums.astype(object)
        if ring.characteristic:
            nums = nums % ring.characteristic
        keep = nums.nonzero()[0]
        if keep.size < nums.size:
            key, nums = key[keep], nums[keep]
        indptr = key.searchsorted(np.arange(rows + 1) * cols)
        den = int(den)
        if den != 1:  # g = den on no entries, so a zero matrix is over 1
            g = gcd(int(np.gcd.reduce(nums)), den)
            nums, den = nums // g, den // g
        nums, top = _canonical(nums)
        m = cls.__new__(cls)
        m.rows, m.cols, m.ring, m._csr = rows, cols, ring, CSR(indptr, key % cols, nums, den, top)
        m._independent = None
        return m

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, ring):
        return cls(rows, cols, ring)

    @classmethod
    def identity(cls, n, ring):
        return cls._normalised(n, n, ring, np.arange(0, n * n, n + 1), np.ones(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, rows, ring):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, ring, rows)

    @classmethod
    def from_columns(cls, columns, ring):
        """The matrix whose columns are the given vectors of integers or
        Fractions, each entry coerced into the ring."""
        rows = len(columns[0]) if columns else 0
        if any(len(col) != rows for col in columns):
            raise InputError("columns of different lengths")
        ints, den = int_vector([x for col in columns for x in col])
        if den != 1 and ring != QQ:  # raises where an entry has no image
            ints, den = ring_vector(ring, ints, den), 1
        top = max(map(abs, ints), default=0)
        # as Python ints past int64: numpy integers would wrap around
        a = np.array(ints if top < 2**62 else list(map(int, ints)), dtype=_int_dtype(top))
        return cls.from_dense(a.reshape(len(columns), rows).T, ring, den)

    @classmethod
    def from_dense(cls, a, ring, den=1):
        """The matrix a / den of a 2-D integer array a (int64 or Python
        ints); den is 1 unless the ring is Q."""
        key = np.flatnonzero(a)
        return cls._normalised(*a.shape, ring, key, a.ravel()[key], den)

    @classmethod
    def from_entries(cls, rows, cols, ring, entries):
        """Build from a {(i, j): value} mapping; unmentioned entries are zero.

        Values are coerced into the ring, and those that become 0 (sums
        that cancelled, multiples of p over F_p) are not stored.
        """
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError(f"entry ({i}, {j}) lies outside a "
                                 f"{rows}x{cols} matrix")
        kept = sorted((i * cols + j, x) for (i, j), v in entries.items()
                      if (x := ring.coerce(v)))
        nums, den = int_vector([x for _, x in kept])
        return cls._normalised(rows, cols, ring, np.array([k for k, _ in kept], dtype=np.int64),
                               np.array(nums, dtype=object), den)

    @classmethod
    def from_triplets(cls, rows, cols, ring, ii, jj, nums, den=1):
        """Build from COO triplets: entry (ii[t], jj[t]) is nums[t] / den,
        den a positive integer (1 unless the ring is Q).

        ii and jj are integer arrays, nums an int64 array or an object
        array of integers, sorted by (row, column) with no position
        repeated.
        """
        ii, jj = np.asarray(ii, np.int64), np.asarray(jj, np.int64)
        keys = ii * cols + jj
        if ii.size and (ii.min() < 0 or ii.max() >= rows or jj.min() < 0 or
                        jj.max() >= cols or (keys[1:] <= keys[:-1]).any()):
            raise InputError(f"entries do not fit a {rows}x{cols} matrix, "
                             "sorted by row and column without repeats")
        if den < 1 or ring != QQ and den != 1:
            raise InputError(f"a matrix over {ring} cannot take the denominator {den}")
        return cls._normalised(rows, cols, ring, keys, nums, den)

    # -- entry access --------------------------------------------------------

    @property
    def csr(self) -> CSR:
        """The stored arrays, for reading only."""
        return self._csr

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) lies outside a "
                             f"{self.rows}x{self.cols} matrix")
        c = self._csr
        a, b = c.indptr[i:i + 2].tolist()
        cols = c.indices[a:b].tolist()
        t = bisect_left(cols, j)
        if t == len(cols) or cols[t] != j:
            return self.ring.coerce(0)
        num = int(c.nums[a + t])
        return Fraction(num, c.den) if self.ring == QQ else num

    def nonzeros(self, i):
        """The (column, value) pairs of row i's nonzero entries, by column."""
        c = self._csr
        a, b = c.indptr[i:i + 2].tolist()
        cols, nums = c.indices[a:b].tolist(), c.nums[a:b].tolist()
        if self.ring == QQ:
            return [(j, Fraction(x, c.den)) for j, x in zip(cols, nums)]
        return list(zip(cols, nums))

    def dense(self):
        """(a, den): the matrix is a / den for the 2-D integer array a of
        the stored numerators, int64 when they fit with room to spare."""
        c = self._csr
        a = np.zeros((self.rows, self.cols), dtype=c.nums.dtype)
        a[_row_ids(c.indptr), c.indices] = c.nums
        return a, c.den

    @property
    def data(self):
        """Fresh dense rows, zeros included (for code outside the package)."""
        out = [[self.ring.coerce(0)] * self.cols for _ in range(self.rows)]
        for i, row in enumerate(out):
            for j, x in self.nonzeros(i):
                row[j] = x
        return out

    # -- basic queries -----------------------------------------------------

    def _key(self):
        # the storage is canonical: int64 arrays by their bytes, object
        # arrays by their Python ints
        c = self._csr
        return [tuple(a.tolist()) if a.dtype.hasobject else a.tobytes() for a in c[:3]] + [c.den]

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.ring == other.ring
                and self._key() == other._key())

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring, *self._key()))

    def is_zero(self):
        return not self._csr.nums.size

    def column(self, j):
        """Column j as a list of ring elements."""
        a, den = self.select_columns([j]).dense()
        return ring_vector(self.ring, a[:, 0].tolist(), den)

    def select_columns(self, cols):
        """The matrix of the columns `cols` (ascending indices), in order."""
        cols = np.asarray(cols, dtype=np.int64)
        c = self._csr
        at = np.full(self.cols, -1, dtype=np.int64)
        at[cols] = np.arange(cols.size)
        new = at[c.indices]
        keep = new >= 0
        return ExactMatrix._normalised(
            self.rows, cols.size, self.ring,
            _row_ids(c.indptr)[keep] * cols.size + new[keep], c.nums[keep], c.den)

    def hstack(self, other):
        if other.rows != self.rows or other.ring != self.ring:
            raise InputError("hstack needs matching row count and ring")
        return self._add(other, 1, self.cols, self.cols + other.cols)

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise InputError("shape or ring mismatch")
        return self._add(other, -1, 0, self.cols)

    def _add(self, other, sign, shift, cols):
        """The rows x cols matrix whose row i is row i of self plus sign
        times row i of other moved right by `shift` columns, as integers
        over the lcm of the two denominators."""
        a, b = self._csr, other._csr
        den = lcm(a.den, b.den)
        # bounds the sums and the scales, an empty side's (den) too
        bound = 2 * den * max(a.top, b.top)
        key = np.concatenate([_row_ids(a.indptr) * cols + a.indices,
                              _row_ids(b.indptr) * cols + (b.indices + shift)])
        return _summed(self.rows, cols, self.ring, key, np.concatenate([
            _exact(a.nums, bound) * (den // a.den),
            _exact(b.nums, bound) * (sign * (den // b.den))]), den)

    def __matmul__(self, other):
        """Matrix product, or matvec for a vector.  Row i sums a_ij times
        row j of other (Gustavson), numerators over the product of the two
        denominators.  The rows of self are taken in blocks whose expanded
        terms fit CHECK_BLOCK_BYTES (one row at least), and each block is
        summed by _sum_terms before the next is expanded.  Before a block
        is expanded, its terms and the result entries kept so far are
        charged to the memory budget, BYTES_PER_TERM each and on Python ints
        two ints more; a product that stores no entry is charged one block.
        Over F_p the terms are products of residues in (-p/2, p/2]."""
        if not isinstance(other, ExactMatrix):
            return self.matvec(other)
        if self.cols != other.rows or self.ring != other.ring:
            raise InputError("matmul shape or ring mismatch")
        a, b = self._csr, other._csr
        rows, cols, den, p = self.rows, other.cols, a.den * b.den, self.ring.characteristic
        (a_nums, a_top), (b_nums, b_top) = _symmetric(a, p), _symmetric(b, p)
        # a row of the product sums at most other.rows products
        bound = a_top * b_top * other.rows
        per_term = BYTES_PER_TERM + (2 * sys.getsizeof(bound) if bound >= 2**62 else 0)
        a_nums, counts = _exact(a_nums, bound), b.indptr[1:] - b.indptr[:-1]
        # the terms before each entry of self, then before each row of it
        ends = np.zeros(a.indices.size + 1, dtype=np.int64)
        np.cumsum(counts[a.indices], out=ends[1:])
        row_terms = ends[a.indptr]
        del ends
        total, block = int(row_terms[-1]), max(1, CHECK_BLOCK_BYTES // per_term)
        # row_terms, counts and the two arrays that made row_terms, 8 bytes
        # an entry, are charged with every block, over F_p with the lifts
        fixed = 8 * (rows + other.rows + 2 * a.indices.size
                     + (a.indices.size + b.indices.size if p else 0))
        what = f"a block of terms of a {rows}x{self.cols} by {other.rows}x{cols} product"

        def summed(r0, r1):
            # (keys, sums) of rows r0 to r1 of the product, keys from r0 * cols
            at = a.indices[a.indptr[r0]:a.indptr[r1]]
            n = counts[at]
            pos = (b.indptr[at] - n.cumsum() + n).repeat(n)
            pos += np.arange(pos.size)
            key = (np.arange(r1 - r0) * cols).repeat(np.diff(row_terms[r0:r1 + 1]))
            key += b.indices[pos]
            vals = a_nums[a.indptr[r0]:a.indptr[r1]].repeat(n)
            vals *= b_nums[pos]  # Python ints wherever a term could pass 2^62
            del pos
            return _sum_terms(key, vals, (r1 - r0) * cols, p)

        if not total:  # (with no entries in self, a_nums may be int64 against big b.nums)
            return ExactMatrix._normalised(rows, cols, self.ring, *np.zeros((2, 0), np.int64))
        if total <= block:
            charge_budget(fixed + total * per_term, what)
            return ExactMatrix._normalised(rows, cols, self.ring, *summed(0, rows), den)
        keys, nums, kept, r0 = [], [], 0, 0
        while r0 < rows:
            r1 = max(r0 + 1, int(row_terms.searchsorted(row_terms[r0] + block, "right")) - 1)
            charge_budget(fixed + (int(row_terms[r1] - row_terms[r0]) + kept) * per_term, what)
            key, vals = summed(r0, r1)
            keys.append(key + r0 * cols)
            nums.append(vals)
            kept, r0 = kept + key.size, r1
        return ExactMatrix._normalised(rows, cols, self.ring, np.concatenate(keys),
                                       np.concatenate(nums), den)

    def matvec(self, vec):
        """self @ vec as a list of ring elements: the one-column case of
        the product."""
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        return (self @ ExactMatrix.from_columns([vec], self.ring)).column(0)

    # -- rank ----------------------------------------------------------------

    def rank(self) -> int:
        """Rank over the matrix ring (over Q for Z): the number of
        independent_rows()."""
        return len(self.independent_rows())

    def independent_rows(self) -> np.ndarray:
        """The ascending indices of rank-many rows that are linearly
        independent over the ring (over Q for Z), found once per matrix.

        F_p matrices run one modular elimination and give its pivot rows,
        Z/Q matrices _rank_certified.
        """
        if self._independent is None:
            m, n, c = self.rows, self.cols, self._csr
            rows = (_eliminate(m, n, c, self.ring.p)[0].rows if isinstance(self.ring, PrimeField)
                    else _rank_certified(m, n, c))
            self._independent = np.sort(np.array(rows, dtype=np.int64))
            self._independent.flags.writeable = False
        return self._independent

    # -- kernels and solves ---------------------------------------------------

    def _kernel(self):
        """(free, kernel): the mask of the columns where the elimination
        does not pivot, and per free column f the kernel vector that is 1
        at f and 0 at the other free ones, as the columns of an integer
        array: mod p over F_p, over Z and Q d > 0 times it (_certified)."""
        m, n, c = self.rows, self.cols, self._csr
        p = getattr(self.ring, "p", 0)
        if p or not c.nums.size:
            pivots = _eliminate(m, n, c, p or MODULAR_PRIME)[0]
            free = _free_columns(n, pivots)
            charge_budget(KERNEL_BYTES_PER_CELL * n * int(free.sum()),
                          f"the kernel of a {m}x{n} matrix")
            steps = _back_substitution(n, pivots)
            return free, _kernel_mod_p(n, steps, free.nonzero()[0], p or MODULAR_PRIME)
        lifts = [np.zeros((n, 0), dtype=np.int64)]
        pivots = _certified(m, n, c, keep=lifts)
        return _free_columns(n, pivots), np.concatenate(lifts, axis=1)

    def kernel_basis(self):
        """Basis of the right kernel; field rings only."""
        k = self.kernel_matrix()
        return [k.column(t) for t in range(k.cols)]

    def kernel_matrix(self):
        """Columns spanning the right kernel, one per free column f of the
        elimination (last to first): 1 at f, 0 at the other free columns."""
        if not self.ring.is_field:
            raise PreconditionError("kernel_basis needs a field ring (Q or Fp)")
        free, lift = self._kernel()
        return _over_columns(self.ring, lift, lift[free, np.arange(lift.shape[1])])

    def column_basis(self):
        """The pivot columns of the elimination (last to first), as a matrix."""
        return self.select_columns((~self._kernel()[0]).nonzero()[0])

    def solve(self, rhs):
        """Some solution x of self @ x = rhs, or None; field rings only."""
        sol = self.solve_columns(
            ExactMatrix(self.rows, 1, self.ring, [[v] for v in rhs]))
        return None if sol is None else sol.column(0)

    def solve_columns(self, rhs: "ExactMatrix"):
        """Solve self @ X = rhs column-wise; returns X or None if inconsistent."""
        if not self.ring.is_field:
            raise PreconditionError("solve needs a field ring (Q or Fp)")
        return self._solve(rhs)

    def _solve(self, rhs):
        """The X with self @ X = rhs (over Q for Z) that is 0 at the free
        unknowns, or None: from the kernel of [rhs | self], eliminated last
        to first, where a pivot in rhs means no solution."""
        k = rhs.cols
        free, lift = rhs.hstack(self)._kernel()
        if not free[:k].all():
            return None
        return _over_columns(self.ring, -lift[k:, :k], lift[np.arange(k), np.arange(k)])

    def inverse(self):
        """Inverse matrix; InputError when singular (Z needs a unimodular
        input): the solve against the identity."""
        n = self.rows
        if n != self.cols:
            raise InputError("only square matrices can be inverted")
        inv = self._solve(ExactMatrix.identity(n, self.ring))
        if inv is None:
            raise InputError("matrix is singular")
        if self.ring == ZZ and inv._csr.den != 1:
            raise InputError("matrix is not invertible over Z")
        return inv

    # -- Smith normal form ------------------------------------------------------

    def smith_normal_form(self) -> "SmithForm":
        if self.ring != ZZ:
            raise PreconditionError("Smith normal form needs an integer matrix")
        return _smith(self)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.ring})"


def _summed(rows, cols, ring, key, vals, den):
    """The matrix whose entry (i, j) is the sum of vals[t] over the t with
    key[t] = i * cols + j, over den."""
    return ExactMatrix._normalised(rows, cols, ring, *_sum_terms(key, vals, rows * cols), den)


def _sum_terms(key, vals, space, p=0):
    """(keys, sums): the keys in [0, space) whose values sum to nonzero
    (mod p if p), ascending, and those sums (mod p).  int64 values whose
    key space is at most DENSE_CELLS_PER_TERM cells a term are added into
    a dense accumulator (np.add.at), with no sort; others are sorted, a
    stable merge sort that is fast on keys grouped by row, and repeats
    summed with np.add.reduceat."""
    if vals.dtype != object and space <= DENSE_CELLS_PER_TERM * key.size:
        acc = np.zeros(space, dtype=np.int64)
        np.add.at(acc, key, vals)
        key = acc.nonzero()[0]
        vals = acc[key]
    else:
        order = key.argsort(kind="stable")
        key, vals = key[order], vals[order]
        del order
        if key.size > 1:
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            first = first.nonzero()[0]
            if first.size < key.size:
                key, vals = key[first], np.add.reduceat(vals, first)
    if p:
        vals %= p
    keep = vals.nonzero()[0]
    return (key, vals) if keep.size == key.size else (key[keep], vals[keep])


def _symmetric(csr, p):
    """(nums, top): the numerators in `csr` and their largest |entry|, mod
    p > 0 lifted to (-p/2, p/2], so that a product's terms cancel as over Z."""
    if not p or csr.top <= p // 2:
        return csr.nums, csr.top
    return np.where(csr.nums > p // 2, csr.nums - p, csr.nums), p // 2


def _over_columns(ring, nums, dens):
    """The matrix whose column t is nums[:, t] / dens[t] (integer arrays,
    dens > 0), put over the lcm of dens."""
    den = lcm(*dens.tolist())
    nums, top = _canonical(nums)
    return ExactMatrix.from_dense(_exact(nums, top * den) * (den // _exact(dens, den)), ring, den)


def _exact(a, bound):
    """The integer array a, as Python ints when products bounded by
    `bound` could pass 2^62."""
    return a.astype(object) if bound >= 2**62 else a


def _canonical(a):
    """(a, top): the integer array a as int64 when every |entry| is below
    2^62, else as Python ints, and the largest |entry|."""
    # -min as a Python int: np.abs(-2^63) would wrap around on int64
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    want = _int_dtype(top)
    return (a if a.dtype == want else a.astype(want)), top


def matrix_stack(mats):
    """(stack, den, top): mats[i] = stack[i] / den for one integer array
    (canonical as _canonical makes it, top its largest |entry|) of shape
    (len(mats), rows, cols) and den the lcm of the denominators."""
    dense = [m.dense() for m in mats]
    den = lcm(*(d for _, d in dense))
    shape = (len(mats), mats[0].rows, mats[0].cols) if mats else (0, 0, 0)
    stack, top = _canonical(np.array(
        [a.astype(object) * (den // d) for a, d in dense], dtype=object).reshape(shape))
    return stack, den, top


def _row_ids(indptr):
    """The row index of each stored entry, from the row offsets."""
    return np.arange(indptr.size - 1).repeat(indptr[1:] - indptr[:-1])


# ---------------------------------------------------------------------------
# elimination kernels


class _Pivots(list):
    """The pivot rows of an elimination mod p, one (support, residues)
    pair of arrays each (none over Z), and `rows`: the index of the matrix
    row that each pivoted on.  Each such row is the matrix row plus a
    combination of the rows that pivoted before it, so the matrix rows at
    `rows` are independent mod p; `proven` if a proof stopped it early."""

    __slots__ = ("rows", "proven")

    def __init__(self):
        super().__init__()
        self.rows, self.proven = [], False


def _eliminate(m, n, csr, p, exact=False):
    """(pivots, at): the pivots of one elimination of the m x n integer
    matrix of the numerators stored in `csr` (a CSR; the denominator does
    not change the rank), as _Pivots, and the column-major array it
    leaves (mod p, that of its last block).  With a prime p it works mod
    p: the pivots are the rank mod p, each pivot row normalised so that
    its pivot entry, at the last column of its support, is 1.  With p = 0
    it works over Z, pivots only on +-1 entries and keeps no pivot rows,
    only `rows`: the invariant factors are len(rows) ones, then those of
    the array.

    One numpy elimination (_sweep) over the columns from last to first,
    each pivoting on the first row, in the original order, that has not
    pivoted yet and has a nonzero in it (over Z a +-1).  The order suits
    the lex-ordered differentials: the rows whose first argument y_1 is
    element 0 come first, and each column z meets an invertible (over Z,
    +-1) block in row (0, z), from the term that deletes y_1.  All but one
    of that row's other blocks sit in columns (0, ...), eliminated last;
    the pivots therefore share few columns with the rows below them
    (structural pivots, as in LaMacchia-Odlyzko and Faugere-Lachartre),
    and the updates stay small: on dihedral:5 d_4 they touch 1.2 M cells,
    against 7.6 M going first to last.

    Mod p < 2^31 a matrix of at least ROW_BLOCK_THRESHOLD cells is read
    in two blocks, as a tall differential's independent rows sit near its
    top.  The first is the first k = min(m, 2n) rows and a probe row that
    combines the others (_residue_block).  A row pivots only where no row
    above it has a nonzero, and its step touches only rows below it, so
    rows evolve as if the rows below them were absent: the probe moves no
    pivot, and pivots exactly when it leaves the span of the first k rows.
    If it does not, a proof that the others lie in that span (the kernel
    mod p of the pivot rows annihilates them, or with `exact` the
    certificate of _kernel_certifies holds) stops the elimination; else
    the first block's pivot rows, in the order they pivoted, head the
    others in a second block.  A head row is zero right of its pivot, so
    it pivots there, unchanged, reducing the others as in one pass, and
    is zero elsewhere.  The pivots are those of one pass over all rows
    either way, and the pivot rows the greedy row basis.

    Each array (_residue_block) is charged to the memory budget before it
    exists, mod p with the pivot rows (at most r = min(m, n) of them, with
    2r array headers and min(n(n + 1)/2, rn) columns and residues), and an
    int array of SMALL_BYTES or more gets an anonymous mapping of its own
    (_zeroed), unmapped when it dies: a large array from the malloc heap
    stays resident after it is freed, and whether the next one reuses it
    depends on the heap's layout, so peak memory would differ from run to
    run.
    """
    pivots = _Pivots()
    k = min(m, 2 * n) if m * n >= ROW_BLOCK_THRESHOLD and 0 < p < 2**31 else m
    at = _sweep(_residue_block(csr, 0, k, n, p, probe=k < m), p, pivots)
    if k == m:
        return pivots, at
    if k in pivots.rows:  # the probe pivoted
        t = pivots.rows.index(k)
        del pivots[t], pivots.rows[t]
    elif _kernel_certifies(m, n, csr, pivots, p, unread=None if exact else k):
        pivots.proven = True
        return pivots, at
    del at
    at, rows = _residue_block(csr, k, m, n, p, head=pivots), pivots.rows + list(range(k, m))
    pivots = _Pivots()  # the head rows pivot again, as the rows they came from
    at = _sweep(at, p, pivots)
    pivots.rows = [rows[i] for i in pivots.rows]
    return pivots, at


def _residue_block(csr, lo, hi, n, p, probe=False, head=()):
    """The column-major array that _sweep runs on, int32 below 2^31 and
    Python ints above: the pivot rows `head` ((support, residues) pairs),
    then rows lo..hi - 1 of the matrix in `csr` mod p (over Z as they are)
    and with `probe` one row more, the sum mod p of the rows from hi on,
    row i times the top 30 bits of i * 2^64 / golden ratio.  It is charged
    4 bytes per cell (8 on Python ints), mod p with the pivot rows."""
    h, small = len(head), p < 2**31 if p else csr.top < 2**31
    rows, r = h + hi - lo + probe, min(csr.indptr.size - 1, n) if p else 0
    charge_budget((4 if small else 8) * rows * n + 16 * min(n * (n + 1) // 2, r * n) + 224 * r,
                  f"the {rows}x{n} residue array of a modular elimination" if p
                  else f"the Smith form working array of a {rows}x{n} matrix")
    at = _zeroed((n, rows), np.int32 if small else object)
    if h:
        at[np.concatenate([s for s, _ in head]),
           np.arange(h).repeat([s.size for s, _ in head])] = np.concatenate([v for _, v in head])
    a, b = csr.indptr[lo], csr.indptr[hi]
    at[csr.indices[a:b], h + _row_ids(csr.indptr[lo:hi + 1])] = (
        csr.nums[a:b] % p if p else csr.nums[a:b])
    if probe:
        ids = _row_ids(csr.indptr[hi:]).astype(np.uint64) + np.uint64(hi)
        weights = (ids * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(34)).astype(np.int64)
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, csr.indices[b:], csr.nums[b:] % p * (weights % p) % p)
        at[:, -1] = sums % p
    return at


def _zeroed(shape, dtype):
    """A zeroed array, on a mapping of its own from SMALL_BYTES on (ints)."""
    size = prod(shape) * np.dtype(dtype).itemsize
    if dtype is object or size < SMALL_BYTES:
        return np.zeros(shape, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(shape)


def _sweep(at, p, pivots):
    """The elimination loop of _eliminate on the column-major array `at`
    (so that finding a column's nonzeros reads contiguous memory), which
    it returns, appending the pivots it finds to `pivots`.

    No rows are swapped: the pivot row is copied out and zeroed.  A pivot
    step updates only the rows with a nonzero in the pivot column, and in
    them only the pivot row's nonzero columns, through flat indices.  Mod
    p every column right of the pivot is zero by then in the rows that
    have not pivoted, so a pivot row's support ends at its pivot, and the
    step skips the pivot column, never read again.  Over Z column
    operations then clear the pivot row and touch nothing else, so zeroing
    it splits off a factor 1.  Products in an int32 array run on int64;
    over Z an update that reaches 2^31 first moves the array to Python
    ints, charged with the int32 array it replaces."""
    n, m = at.shape
    flat = at.reshape(-1)
    for c in range(n - 1, -1, -1):
        if len(pivots.rows) == m:
            break
        col = at[c]
        nz = col.nonzero()[0]
        pivotal = nz if p else nz[np.abs(col[nz]) == 1]
        if pivotal.size == 0:
            continue
        i = pivotal[0]
        below, row = (nz[1:], at[:c + 1, i]) if p else (nz[nz != i], at[:, i])
        support = row.nonzero()[0]
        inv = pow(int(row[c]), -1, p) if p else int(row[c])  # +-1 over Z
        residues = row[support] * (inv if at.dtype == object else np.int64(inv))
        row[support] = 0
        pivots.rows.append(int(i))
        if p:
            residues %= p
            pivots.append((support, residues))
            support, residues = support[:-1], residues[:-1]
        if below.size and support.size:
            cells = (support[:, None] * m + below).ravel()
            vals = flat.take(cells) - (residues[:, None] * col.take(below)).ravel()
            if p:
                vals %= p
            elif at.dtype != object and np.abs(vals).max() >= 2**31:
                charge_budget(12 * m * n, f"the Smith form working array of a {m}x{n} matrix")
                flat.put(cells, 0)  # no Python ints made for the cells put next
                at = at.astype(object)
                flat = at.reshape(-1)
            flat.put(cells, vals)
    return at


def _rank_certified(m, n, csr):
    """Rank-many independent rows of the m x n integer matrix of the
    numerators stored in `csr`: _certified's pivot rows.  A wide matrix is
    ranked as its transpose, whose kernel is the smaller (entries sorted by
    column, then row); its independent rows are the transpose's pivot
    columns, where the pivot rows form a unit triangular matrix."""
    wide = m < n
    if wide:
        rows = _row_ids(csr.indptr)
        order = np.lexsort((rows, csr.indices))
        m, n, csr = n, m, ExactMatrix._normalised(
            n, m, ZZ, csr.indices[order] * m + rows[order], csr.nums[order])._csr
    pivots = _certified(m, n, csr)
    return [support[-1] for support, _ in pivots] if wide else pivots.rows


def _certified(m, n, csr, keep=None):
    """The pivot rows of an elimination mod MODULAR_PRIME of the m x n
    integer matrix A of the numerators in `csr` (independent over Q) whose
    kernel mod p lifts to A's over Q (_kernel_certifies, the lifts appended
    to `keep` if given), so that they have its rank; else _crt_kernel's."""
    pivots = _eliminate(m, n, csr, MODULAR_PRIME, exact=keep is None)[0]
    if pivots.proven and keep is None or _kernel_certifies(
            m, n, csr, pivots, MODULAR_PRIME, keep=keep):
        return pivots
    return _crt_kernel(m, n, csr, pivots, keep)


def _crt_kernel(m, n, csr, pivots, keep=None):
    """_certified's pivot rows when the elimination `pivots` mod
    MODULAR_PRIME does not certify: eliminations modulo each prime below it
    in turn.  The kernels mod p of the primes whose pivot columns, from the
    last, are lexicographically greatest so far (a prime that divides a
    minor only loses pivot columns) are combined by CRT, charged first, and
    certified each time their product doubles in bits, so that all checks
    cost about twice the last; the check alone makes the result exact."""
    p, best = MODULAR_PRIME, None
    while True:
        cols = [int(support[-1]) for support, _ in pivots]
        if best is None or cols > best:  # the first prime was checked alone
            tried = 0 if best is not None else p.bit_length()
            best, x, modulus = cols, 0, 1
        if cols == best:
            free = _free_columns(n, pivots).nonzero()[0]
            charge_budget(3 * n * free.size * (8 + sys.getsizeof(modulus * p)),
                          f"the kernel of a {m}x{n} matrix modulo several primes")
            r = _kernel_mod_p(n, _back_substitution(n, pivots), free, p).astype(object)
            x, modulus = x + modulus * ((r - x) * pow(modulus, -1, p) % p), modulus * p
            if modulus.bit_length() >= 2 * tried:
                tried = modulus.bit_length()
                if _kernel_certifies(m, n, csr, pivots, modulus, keep=keep, x=x):
                    return pivots
        p = next(q for q in range(p - 2, 2, -2) if is_prime(q))
        pivots = _eliminate(m, n, csr, p)[0]


def _free_columns(n, pivots):
    """The mask of the n columns where the pivot rows `pivots` do not pivot."""
    return np.bincount([support[-1] for support, _ in pivots], minlength=n) == 0


def _kernel_certifies(m, n, csr, pivots, p, unread=None, keep=None, x=None):
    """Whether the kernel mod p of the pivot rows `pivots` of the integer
    matrix A of the numerators in `csr` (or x, its residues modulo any p)
    lifts to integer vectors that A annihilates, then appended to the list
    `keep` if given; with `unread`, whether the kernel mod p annihilates
    the rows of A from `unread` on mod p.

    The free columns are taken in chunks, so that the kernel mod p, its
    lift and the back-substitution's products stay below half the residue
    array's 8mn bytes (or SMALL_BYTES); the check takes A's rows in blocks
    whose products fill at most CHECK_BLOCK_BYTES.  Below 2^31 it runs on
    int64, refusing an entry of 2^31 or more and a lift L with max|a| *
    max row nnz * max|L| >= 2^62, above on Python ints.  These arrays, the
    kept lifts and 24 bytes per entry of A (copied for a transpose) are
    charged first."""
    nnz = csr.indices.size - csr.indptr[unread or 0]
    free = _free_columns(n, pivots).nonzero()[0]
    if not (nnz and free.size):
        return True
    if unread is None and p < 2**31 and csr.top >= 2**31:
        return False
    indptr = csr.indptr[unread or 0:]
    counts = indptr[1:] - indptr[:-1]
    starts, row_nnz = indptr[counts.nonzero()[0]], int(counts.max(initial=0))
    bound = csr.top * row_nnz
    item = 8 if p < 2**31 else 8 + sys.getsizeof(p * bound)
    steps = _back_substitution(n, pivots) if x is None else ()
    per_column = item * (4 * n + 2 * max((c.size for _, c, _, _ in steps), default=0))
    width = max(1, min(free.size, max(4 * m * n, SMALL_BYTES) // per_column))
    charge_budget(24 * nnz + width * per_column + min(item * nnz * width, CHECK_BLOCK_BYTES)
                  + (keep is not None) * KERNEL_BYTES_PER_CELL * item // 8 * n * free.size,
                  f"the kernel certificate of a {m}x{n} modular rank")
    lifts = []
    for lo in range(0, free.size, width):
        lift = (_kernel_mod_p(n, steps, free[lo:lo + width], p) if x is None
                else x[:, lo:lo + width].copy())
        if unread is None:
            lift = _lift_kernel(lift, p)
            if lift is None or p < 2**31 and bound * int(np.abs(lift).max()) >= 2**62:
                return False
        block = max(1, CHECK_BLOCK_BYTES // (item * lift.shape[1] * row_nnz))
        if not _annihilates(starts, csr.indices, csr.nums, lift, block, p if unread else 0):
            return False
        if keep is not None:
            lifts.append(lift)
    if keep is not None:
        keep += lifts
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
    n x len(free) array (of Python ints for p >= 2^31), from the
    back-substitution `steps`."""
    x = np.zeros((n, free.size), dtype=np.int64 if p < 2**31 else object)
    x[free, np.arange(free.size)] = 1
    for targets, cols, residues, starts in steps:
        x[targets] = -np.add.reduceat(residues[:, None] * x[cols] % p,
                                      starts, axis=0) % p
    return x


def _lift_kernel(x, p):
    """Integer vectors d * x: each column of the array x of residues mod p
    (a prime or, on Python ints, a product of primes) times its denominator
    d < B = 2^(bits of p // 2), 2^15 for p < 2^30, lifted to (-p/2, p/2);
    None when a column needs d >= B.  d is the lcm of the denominators of
    the rational reconstructions of the column's residues in [B, p - B]."""
    bound = 1 << p.bit_length() // 2
    rows, cols = np.nonzero((x >= bound) & (x <= p - bound))
    if rows.size:
        dens = _reconstruction_denominators(x[rows, cols], p, bound)
        d = np.ones(x.shape[1], dtype=x.dtype)
        keep = dens > 1
        pairs = np.unique(cols[keep].astype(x.dtype) * bound + dens[keep])
        for col, den in zip((pairs // bound).tolist(), (pairs % bound).tolist()):
            d[col] = lcm(int(d[col]), den)
            if d[col] >= bound:
                return None
        x *= d
        x %= p
    x[x > p // 2] -= p
    return x


def _reconstruction_denominators(x, p, bound):
    """For each residue x, the denominator b of the fraction a / b = x mod
    p that Euclid's algorithm on p and x reaches at the first remainder
    |a| < bound (the rational reconstruction of x); b <= p / bound."""
    out = np.empty_like(x)
    where = np.arange(x.size)
    r0, r1 = np.full_like(x, p), x.copy()
    t0, t1 = np.zeros_like(x), np.ones_like(x)
    while where.size:
        done = r1 < bound
        out[where[done]] = np.abs(t1[done])
        go = ~done
        where, r0, r1, t0, t1 = where[go], r0[go], r1[go], t0[go], t1[go]
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return out


def _annihilates(starts, jj, vals, lift, block, p=0):
    """Whether A @ lift == 0 exactly (mod p < 2^31 if p, lift residues),
    for the integer matrix A whose stored entries vals sit in columns jj
    and in non-empty rows that begin at the offsets `starts` and end at
    the last entry, `block` rows at a time: each entry times its column's
    row of lift, summed by row with np.add.reduceat, which would misread
    an empty row.  Over Z the caller keeps every sum below 2^62."""
    for a in range(0, starts.size, block):
        lo = starts[a]
        hi = starts[a + block] if a + block < starts.size else jj.size
        products = lift[jj[lo:hi]]
        products *= vals[lo:hi, None] % p if p else vals[lo:hi, None]
        sums = np.add.reduceat(products % p if p else products, starts[a:a + block] - lo)
        if (sums % p if p else sums).any():
            return False
    return True


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
    """(u, core): the number u of +-1 pivots that _eliminate sweeps off
    the integer matrix over Z and, as lists of ints, the rows of what
    remains on its nonzero rows and columns.  The invariant factors are u
    ones, then the core's."""
    if matrix.is_zero():
        return 0, []
    pivots, at = _eliminate(matrix.rows, matrix.cols, matrix.csr, 0)
    core = at[np.ix_(np.flatnonzero(at.any(axis=1)), np.flatnonzero(at.any(axis=0)))]
    return len(pivots.rows), core.T.tolist()


def _smith(matrix: ExactMatrix) -> SmithForm:
    """Invariant factors: the unit pivots of _unit_sweep, then a dense loop
    on the core they leave, refused once an entry passes
    DEFAULT_SNF_BIT_CAP bits."""
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
            if max(abs(a) for row in d[s:] for a in row[s:]).bit_length() > DEFAULT_SNF_BIT_CAP:
                raise ResourceError(f"Smith form entries exceeded {DEFAULT_SNF_BIT_CAP} bits")
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
    if not (kernel_of @ image_of).is_zero():
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
