"""Exact linear algebra over Z, Q, and prime fields.

Rank, kernel, solve, and Smith normal form back every cohomology
computation.  All arithmetic is arbitrary precision; no floats anywhere.
Matrices store their nonzero entries as compressed sparse rows: numpy
arrays of row offsets, columns and integer numerators, and one
denominator per row, made canonical by one normaliser.  Products with a
matrix sort and sum expanded entries (Gustavson), charged to the memory
budget before they are expanded; that A @ B = 0 is tested exactly, over
every ring, as a product that stores no entry.  A product with a vector
is the one-column case: the vector becomes a column (from_columns), and
the column of the result a list again (column).
Over Z and Q one exact elimination, a reduced row echelon form on integer
rows, serves rank, kernels, solves and inverses.  The rank of a large
matrix first comes from one elimination modulo a ~30-bit prime, proven
by an exact certificate: its kernel mod p, lifted to integer vectors that
the matrix annihilates over Z.  When the certificate refuses, the rank
falls back to that echelon form.  Every F_p rank runs the same numpy
elimination.  The Smith form runs it over Z, where it pivots only on +-1
entries, and runs its dense loop only on the core that remains.  That one
loop (_eliminate) eliminates the columns of a column-major array from
last to first, pivoting on the first row that meets each; on a rack
differential such pivots share few columns with the other rows, so
fill-in stays small.  A pivot step updates only the rows that meet the
pivot column, and in them only the pivot row's support: mod p on int32
residues, over Z on int64 entries below 2^31, on Python ints above.  Mod
p a large tall matrix is read in two blocks of rows: the first 2n and a
probe, a combination of the rest, which pivots only if the rest leaves
their span; if not, a proof (the kernel mod p or the exact certificate)
may put the rest in that span unread.
Every rank comes with as many independent rows (independent_rows): the
modular pivot rows, which are independent mod p and so over Q, a wide
matrix's transpose's pivot columns, or the rows the echelon form found
independent.  They let a chain complex clear d_n before ranking it (see
cohomology.RackComplex): when d_n @ d_(n-1) = 0, checked exactly once per
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

# matrices with at least this many entries use the modular rank path
MODULAR_RANK_THRESHOLD = 10_000

# the prime of that path: the largest below 2^30, so that products of
# residues fit int64
MODULAR_PRIME = 2**30 - 35

# modular ranks of at least this many cells read rows in blocks (see
# _eliminate); on fewer the probe and proof cost more than the rows skipped
ROW_BLOCK_THRESHOLD = 400_000

# the products that the exact check of a modular rank's kernel, and the
# gauge images of a nonabelian class search, hold at once: larger blocks
# stay resident in the malloc heap after they are freed
CHECK_BLOCK_BYTES = 1 << 20

# What a matrix product charges per expanded term (one pair of stored
# entries that meet) before it expands them: its int64 key, position and
# value arrays, their sort order and sorted copies peak at 58 bytes per
# term on dihedral:5 d_4 @ d_3 (over Z and Q), and at 66 when no two terms
# share a position, so that the result keeps them all.  Terms on Python
# ints are charged two ints more each, of which the product takes one.
# tests/test_linalg.py measures it.
BYTES_PER_TERM = 72

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
    """Stored entries: row i holds nums[t] / dens[i] at column indices[t]
    for indptr[i] <= t < indptr[i + 1]; top is the largest |nums[t]|."""

    indptr: np.ndarray
    indices: np.ndarray
    nums: np.ndarray
    dens: np.ndarray
    top: int


class ExactMatrix:
    """Sparse matrix with exact, ring-normalised entries, immutable.

    The nonzero entries are stored as compressed sparse rows (CSR):
    ascending columns and integer numerators (int64 below 2^62, Python ints
    above) and one denominator per row: 1 over Z and F_p (numerators are
    residues in [1, p)), over Q the lcm of the row's denominators, the row
    in lowest terms.  _normalised, which ends every constructor and
    operation, makes that canonical.  Read entries through `m[i, j]` and
    `m.nonzeros(i)`, or as arrays through `m.csr`.
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
        + j, keys ascending, for one denominator `den` or one per row (1
        unless the ring is Q): entries reduced mod p over F_p, zeros
        dropped and each Q row brought to lowest terms, on whole arrays."""
        nums = np.asarray(nums)
        if nums.dtype.kind != "O" and nums.dtype != np.int64:  # exactly, as Python ints
            nums = nums.astype(object)
        if ring.characteristic:
            nums = nums % ring.characteristic
        keep = nums.nonzero()[0]
        if keep.size < nums.size:
            key, nums = key[keep], nums[keep]
        indptr = key.searchsorted(np.arange(rows + 1) * cols)
        dens, per_row = np.ones(rows, dtype=np.int64), isinstance(den, np.ndarray)
        if nums.size and ((den != 1).any() if per_row else den != 1):
            counts = indptr[1:] - indptr[:-1]
            present = counts.nonzero()[0]
            den = den[present] if per_row else np.asarray(den, dtype=_int_dtype(den))
            g = np.gcd(np.gcd.reduceat(nums, indptr[present]), den)
            nums = nums // g.repeat(counts[present])
            dens = dens.astype(g.dtype)
            dens[present] = den // g
            dens = _canonical(dens)[0]
        nums, top = _canonical(nums)
        m = cls.__new__(cls)
        m.rows, m.cols, m.ring, m._csr = rows, cols, ring, CSR(indptr, key % cols, nums, dens, top)
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
        for one denominator `den` or one per row (1 unless the ring is Q).

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
        if ring != QQ and np.any(np.asarray(den) != 1):
            raise InputError(f"a matrix over {ring} takes no denominator")
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
        return Fraction(num, int(c.dens[i])) if self.ring == QQ else num

    def nonzeros(self, i):
        """The (column, value) pairs of row i's nonzero entries, by column."""
        c = self._csr
        a, b = c.indptr[i:i + 2].tolist()
        cols, nums = c.indices[a:b].tolist(), c.nums[a:b].tolist()
        if self.ring == QQ:
            den = int(c.dens[i])
            return [(j, Fraction(x, den)) for j, x in zip(cols, nums)]
        return list(zip(cols, nums))

    def dense(self):
        """(a, den): the matrix is a / den for the 2-D integer array a,
        int64 when its entries fit with room to spare, and den the lcm of
        the rows' denominators."""
        c = self._csr
        den = lcm(*set(c.dens.tolist()))
        top = c.top * den
        a = np.zeros((self.rows, self.cols), dtype=_int_dtype(top))
        a[_row_ids(c.indptr), c.indices] = _exact(c.nums, top) * (
            den // _exact(c.dens, den)).repeat(np.diff(c.indptr))
        return a, den

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
        return [tuple(a.tolist()) if a.dtype.hasobject else a.tobytes() for a in self._csr[:4]]

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
            _row_ids(c.indptr)[keep] * cols.size + new[keep], c.nums[keep], c.dens)

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
        over the lcm of the two rows' denominators."""
        a, b = self._csr, other._csr
        a_nums, b_nums, den = a.nums, b.nums, 1
        if self.ring == QQ:
            bound = max(a.top, b.top) * int(a.dens.max(initial=1)) * int(b.dens.max(initial=1))
            den = np.lcm(_exact(a.dens, bound), b.dens)
            a_nums = a_nums * (den // a.dens).repeat(np.diff(a.indptr))
            b_nums = b_nums * (den // b.dens).repeat(np.diff(b.indptr))
        key = np.concatenate([_row_ids(a.indptr) * cols + a.indices,
                              _row_ids(b.indptr) * cols + (b.indices + shift)])
        return _summed(self.rows, cols, self.ring, key,
                       np.concatenate([a_nums, sign * b_nums]), den)

    def __matmul__(self, other):
        """Matrix product, or matvec for a vector.  Gustavson's sort and sum:
        a_ij expands to a_ij times row j of other (over Q put over the lcm
        L of its rows' denominators, so row i of A @ B is over dens[i] * L).
        When more than half of other's entries are stored (a block of
        cochain columns, say) its rows are read dense and added up in
        place, one entry of each row of self at a time, with no sort and
        no array of all terms.  The expanded terms are charged to the
        memory budget first, BYTES_PER_TERM each, and on Python ints two
        ints more."""
        if not isinstance(other, ExactMatrix):
            return self.matvec(other)
        if self.cols != other.rows or self.ring != other.ring:
            raise InputError("matmul shape or ring mismatch")
        a, b = self._csr, other._csr
        b_counts = b.indptr[1:] - b.indptr[:-1]
        b_nums, b_top, den = b.nums, b.top, 1
        if self.ring == QQ:
            scale, den = lcm(*set(b.dens.tolist())), a.dens
            if scale != 1:
                den = _exact(den, int(den.max(initial=1)) * scale) * scale
                b_top *= scale
                b_nums = _exact(b_nums, b_top) * (scale // _exact(b.dens, scale)).repeat(b_counts)
        counts = b_counts[a.indices]
        ends = counts.cumsum()
        # a row of the product sums at most other.rows products
        bound = a.top * b_top * other.rows
        per_term = BYTES_PER_TERM + (2 * sys.getsizeof(bound) if bound >= 2**62 else 0)
        charge_budget(int(ends[-1]) * per_term if ends.size else 0, f"the expanded terms of a "
                      f"{self.rows}x{self.cols} by {other.rows}x{other.cols} product")
        if 2 * b.nums.size > other.rows * other.cols:
            # mostly dense: add entry t of every row of self, times the
            # dense row of other it meets, for t = 0, 1, .. in turn
            x = _exact(other.dense()[0], bound)
            counts = np.diff(a.indptr)
            out = np.zeros((self.rows, other.cols), dtype=x.dtype)
            for t in range(int(counts.max(initial=0))):
                rows = (counts > t).nonzero()[0]
                at = a.indptr[rows] + t
                out[rows] += x[a.indices[at]] * _exact(a.nums[at], bound)[:, None]
            return ExactMatrix.from_dense(out, self.ring, den)
        pos = (b.indptr[a.indices] - ends + counts).repeat(counts)
        pos += np.arange(pos.size)
        key = (_row_ids(a.indptr) * other.cols).repeat(counts)
        key += b.indices[pos]
        a_nums = _exact(a.nums, bound).repeat(counts)
        return _summed(self.rows, other.cols, self.ring, key, a_nums * b_nums[pos], den)

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

        F_p matrices run one modular elimination and give its pivot rows.
        Z/Q matrices with at least MODULAR_RANK_THRESHOLD entries run it
        mod MODULAR_PRIME, whose pivot rows are independent mod p and so
        over Q, and prove the rank by an exact kernel certificate (see
        _rank_certified); smaller ones, and those whose certificate
        refuses, give the rows that the exact reduced row echelon form
        found independent of the rows before them.
        """
        if self._independent is None:
            m, n, rows = self.rows, self.cols, None
            if not m or not n:
                rows = []
            elif isinstance(self.ring, PrimeField):
                rows = _eliminate(m, n, self._csr, self.ring.p)[0].rows
            elif m * n >= MODULAR_RANK_THRESHOLD:
                rows = _rank_certified(m, n, self._csr)
            if rows is None:
                rows = self._rref().independent
            self._independent = np.sort(np.array(rows, dtype=np.int64))
            self._independent.flags.writeable = False
        return self._independent

    # -- field elimination ----------------------------------------------------

    def _rref(self):
        """The reduced row echelon form of the stored rows (over Q for Z)."""
        rref = _IncrementalRREF(self.cols, getattr(self.ring, "p", None))
        c = self._csr
        ptr, cols, nums = c.indptr.tolist(), c.indices.tolist(), c.nums.tolist()
        for a, b in zip(ptr, ptr[1:]):
            rref.feed(zip(cols[a:b], nums[a:b]))
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
        return rref.matrix(self.ring, self.cols, free, free)

    def column_basis(self):
        """The columns at the pivots of the reduced row echelon form (the
        first columns that span the column space), as a matrix."""
        return self.select_columns(self._rref().pivot_cols)

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
        return rref.matrix(self.ring, width, range(width, width + rhs.cols))

    def inverse(self):
        """Inverse matrix; InputError when singular (Z needs a unimodular
        input): the right half of the echelon form of rows [A_i | d_i e_i]."""
        n = self.rows
        if n != self.cols:
            raise InputError("only square matrices can be inverted")
        ptr, cols, nums, dens = (a.tolist() for a in self._csr[:4])
        rref = _IncrementalRREF(2 * n, getattr(self.ring, "p", None))
        for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
            rref.feed([*zip(cols[a:b], nums[a:b]), (n + i, dens[i])])
        if any(c >= n for c in rref.pivot_cols):
            raise InputError("matrix is singular")
        inv = rref.matrix(self.ring, n, range(n, 2 * n))
        if self.ring == ZZ and (inv._csr.dens != 1).any():
            raise InputError("matrix is not invertible over Z")
        return inv

    # -- Smith normal form ------------------------------------------------------

    def smith_normal_form(self, bit_cap: int = DEFAULT_SNF_BIT_CAP) -> "SmithForm":
        if self.ring != ZZ:
            raise PreconditionError("Smith normal form needs an integer matrix")
        return _smith(self, bit_cap)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.ring})"


def _summed(rows, cols, ring, key, vals, den):
    """The matrix whose entry (i, j) is the sum of vals[t] over the t with
    key[t] = i * cols + j, over den (one or one per row): the keys are
    sorted, a merge sort that is fast on keys grouped by row, and repeats
    summed with np.add.reduceat."""
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
    return ExactMatrix._normalised(rows, cols, ring, key, vals, den)


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


def _row_starts(indptr):
    """(starts, most): the offsets where the non-empty rows begin and the
    most entries in a row."""
    counts = indptr[1:] - indptr[:-1]
    return indptr[counts.nonzero()[0]], int(counts.max(initial=0))


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
    Fraction is made.  `independent` lists, in feeding order, the indices
    of the rows that were independent of the rows fed before them.
    """

    def __init__(self, width, p=None):
        self.width = width
        self.p = p
        self.reduced = []
        self.pivot_cols = []
        self.independent = []
        self.fed = 0

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
        self.fed += 1
        row = [0] * self.width
        for j, x in items:
            row[j] = x if p is None else int(x) % p
        for r, c in zip(self.reduced, self.pivot_cols):
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
        for i, r in enumerate(self.reduced):
            if r[lead]:
                self.reduced[i] = self._reduce(r, row, lead)
        pos = bisect_left(self.pivot_cols, lead)
        self.reduced.insert(pos, row)
        self.pivot_cols.insert(pos, lead)
        self.independent.append(self.fed - 1)
        return True

    def matrix(self, ring, rows, cols, free=()):
        """The rows x len(cols) matrix whose row c, for each pivot column c,
        is the reduced pivot row of c read at the columns `cols`; the other
        rows are zero.  With free columns `free` (then also `cols`), the
        pivot rows are negated and row free[t] is 1 at column t: the kernel
        basis."""
        sign, w = (-1 if free else 1), len(cols)
        pairs = [(j * w + t, 1) for t, j in enumerate(free)]
        dens = np.ones(rows, dtype=object)
        for r, c in zip(self.reduced, self.pivot_cols):
            pairs += [(c * w + t, sign * r[j]) for t, j in enumerate(cols) if r[j]]
            dens[c] = r[c]
        pairs = np.array(sorted(pairs), dtype=object).reshape(-1, 2)
        return ExactMatrix._normalised(rows, w, ring, pairs[:, 0].astype(np.int64),
                                       pairs[:, 1], dens if self.p is None else 1)


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
    matrix of the numerators stored in `csr` (a CSR; the row denominators
    do not change the rank), as _Pivots, and the column-major array it
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
    the others are reduced by the first block's pivots, interleaved with
    their own in the same column order.  The pivots are those of one pass
    over all rows either way, and the pivot rows the greedy row basis.

    Mod p a block holds int32 residues, whose products run on int64
    (larger primes: Python ints); over Z the array is int64 until an
    update reaches 2^31, then Python ints.  Each array is charged to the
    memory budget before it exists, mod p with the pivot rows (at most
    n(n + 1)/2 columns and residues and 2n array headers), and an int
    array gets an anonymous mapping of its own, unmapped when it dies: a
    large array from the malloc heap stays resident after it is freed,
    and whether the next one reuses it depends on the heap's layout, so
    peak memory would differ from run to run.
    """
    pivots = _Pivots()
    if not p:
        what = f"the Smith form working array of a {m}x{n} matrix"
        charge_budget(8 * m * n, what)
        at = (np.frombuffer(mmap.mmap(-1, 8 * m * n), dtype=np.int64).reshape(n, m)
              if csr.top < 2**31 else np.zeros((n, m), dtype=object))
        at[csr.indices, _row_ids(csr.indptr)] = csr.nums
        return pivots, _sweep(at, 0, pivots, grow=lambda: charge_budget(16 * m * n, what))
    k = min(m, 2 * n) if m * n >= ROW_BLOCK_THRESHOLD and p < 2**31 else m
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
    more = _Pivots()
    at = _sweep(_residue_block(csr, k, m, n, p), p, more,
                known={int(s[-1]): (s, r) for s, r in pivots})
    both = sorted(zip(pivots + more, pivots.rows + [k + i for i in more.rows]),
                  key=lambda pair: -pair[0][0][-1])
    pivots[:], pivots.rows = [q for q, _ in both], [i for _, i in both]
    return pivots, at


def _residue_block(csr, lo, hi, n, p, probe=False):
    """The column-major array of rows lo..hi - 1 of the matrix in `csr`
    mod p (int32 below 2^31), charged with the pivot rows (see
    _eliminate); with `probe` one row more, the sum mod p of the rows from
    hi on, row i times the top 30 bits of i * 2^64 / golden ratio."""
    rows, size = hi - lo + probe, 4 if p < 2**31 else 8
    charge_budget(size * rows * n + 8 * n * (n + 1) + 2 * 112 * n,
                  f"the {rows}x{n} residue array of a modular rank")
    at = (np.frombuffer(mmap.mmap(-1, 4 * rows * n), dtype=np.int32).reshape(n, rows)
          if size == 4 else np.zeros((n, rows), dtype=object))
    a, b = csr.indptr[lo], csr.indptr[hi]
    at[csr.indices[a:b], _row_ids(csr.indptr[lo:hi + 1])] = csr.nums[a:b] % p
    if probe:
        ids = _row_ids(csr.indptr[hi:]).astype(np.uint64) + np.uint64(hi)
        weights = (ids * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(34)).astype(np.int64)
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, csr.indices[b:], csr.nums[b:] % p * (weights % p) % p)
        at[:, -1] = sums % p
    return at


def _sweep(at, p, pivots, grow=None, known=()):
    """The elimination loop of _eliminate on the column-major array `at`
    (so that finding a column's nonzeros reads contiguous memory), which
    it returns, appending the pivots it finds to `pivots`; a column in
    `known`, which maps it to a pivot row (support, residues) found on
    earlier rows, reduces the rows by that row instead.

    No rows are swapped: the pivot row is copied out and zeroed.  A pivot
    step updates only the rows with a nonzero in the pivot column, and in
    them only the pivot row's nonzero columns, through flat indices.  Mod
    p every column right of the pivot is zero by then in the rows that
    have not pivoted, so a pivot row's support ends at its pivot, and the
    step skips the pivot column, never read again.  Over Z column
    operations then clear the pivot row and touch nothing else, so zeroing
    it splits off a factor 1; an update that reaches 2^31 on int64 calls
    grow() and moves the array to Python ints."""
    n, m = at.shape
    flat = at.reshape(-1)
    for c in range(n - 1, -1, -1):
        if len(pivots.rows) == m:
            break
        col = at[c]
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        if c in known:
            (support, residues), below = known[c], nz
        else:
            if p:
                i, below = nz[0], nz[1:]
                row = at[:c + 1, i]
            else:
                unit = nz[np.abs(col[nz]) == 1]
                if unit.size == 0:
                    continue
                i = unit[0]
                below, row = nz[nz != i], at[:, i]
            support = row.nonzero()[0]
            if p:
                inv = pow(int(row[c]), -1, p)  # int64 times int32 is int64
                residues = row[support] * (inv if p >= 2**31 else np.int64(inv)) % p
                pivots.append((support, residues))
            else:
                residues = row[support] * row[c]
            row[support] = 0
            pivots.rows.append(int(i))
        if p:
            support, residues = support[:-1], residues[:-1]
        if below.size and support.size:
            cells = (support[:, None] * m + below).ravel()
            f = col.take(below)
            vals = flat.take(cells) - (residues[:, None] * f).ravel()
            flat.put(cells, vals % p if p else vals)
            if not p and at.dtype == np.int64 and np.abs(vals).max() >= 2**31:
                grow()
                at = at.astype(object)
                flat = at.reshape(-1)
    return at


def _rank_certified(m, n, csr):
    """Rank-many independent rows of the m x n integer matrix of the
    numerators stored in `csr`, from one elimination mod MODULAR_PRIME,
    or None when its certificate refuses.

    The rank r mod p is at most the rank over Q.  The n - r kernel
    vectors mod p that are the identity on the free (non-pivot) columns
    are lifted to integer vectors and checked exactly: they are
    independent, so a lift that A annihilates over Z proves the rank is
    at most r.  A prime that divides a maximal minor, a kernel that
    needs a denominator of 2^15 or more, or an entry of 2^31 or more
    (the check runs on int64) makes the certificate refuse.  A wide
    matrix is ranked as its transpose, whose kernel is the smaller: the
    entries sorted by column, then row, with np.lexsort and read by fancy
    indexing.  Its independent rows are then the transpose's pivot
    columns: there the pivot rows form a triangular matrix with a unit
    diagonal, as each clears its pivot column in the rows that pivot
    after it.
    """
    if csr.top >= 2**31:
        return None
    wide = m < n
    if wide:
        rows = _row_ids(csr.indptr)
        order = np.lexsort((rows, csr.indices))
        m, n, csr = n, m, ExactMatrix._normalised(
            n, m, ZZ, csr.indices[order] * m + rows[order], csr.nums[order])._csr
    pivots = _eliminate(m, n, csr, MODULAR_PRIME, exact=True)[0]
    if not (pivots.proven or _kernel_certifies(m, n, csr, pivots, MODULAR_PRIME)):
        return None
    return [support[-1] for support, _ in pivots] if wide else pivots.rows


def _kernel_certifies(m, n, csr, pivots, p, unread=None):
    """Whether the kernel mod p of the pivot rows `pivots` of the integer
    matrix A of the numerators stored in `csr` lifts to integer vectors
    that A annihilates; with `unread`, whether the kernel mod p
    annihilates the rows of A from `unread` on mod p: they lie in the span
    of the pivot rows mod p.

    The free columns are taken in chunks, so that the kernel mod p, its
    lift and the back-substitution's products stay below half the
    8 * m * n bytes of the residue array; the check takes A's rows in
    blocks whose products fill at most CHECK_BLOCK_BYTES.  These arrays,
    and 24 bytes per entry of A (its arrays, copied when a wide matrix is
    ranked as its transpose), are charged to the memory budget.
    """
    nnz = csr.indices.size - csr.indptr[unread or 0]
    if not nnz:
        return True
    steps = _back_substitution(n, pivots)
    per_column = 8 * (4 * n + 2 * max((c.size for _, c, _, _ in steps), default=0))
    free = np.setdiff1d(np.arange(n), [support[-1] for support, _ in pivots])
    width = max(1, min(free.size, 4 * m * n // per_column))
    charge_budget(24 * nnz + width * per_column
                  + min(8 * nnz * width, CHECK_BLOCK_BYTES),
                  f"the kernel certificate of a {m}x{n} modular rank")
    starts, row_nnz = _row_starts(csr.indptr[unread or 0:])
    bound = csr.top * row_nnz
    for lo in range(0, free.size, width):
        lift = _kernel_mod_p(n, steps, free[lo:lo + width], p)
        if unread is None:
            lift = _lift_kernel(lift, p)
            if lift is None or bound * int(np.abs(lift).max()) >= 2**62:
                return False
        block = max(1, CHECK_BLOCK_BYTES // (8 * lift.shape[1] * row_nnz))
        if not _annihilates(starts, csr.indices, csr.nums, lift, block, p if unread else 0):
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
