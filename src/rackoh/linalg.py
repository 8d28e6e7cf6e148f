"""Exact linear algebra over Z, Q, and prime fields.

Rank, kernel, solve, and Smith normal form back every cohomology
computation.  All arithmetic is arbitrary precision; no floats anywhere.
Matrices are stored as dense rows.  Rank and the Smith form read only the
nonzero entries: rank takes them as integer COO triplets (each Q row
scaled by the lcm of its own denominators), and the Smith form removes
unit pivots on a sparse copy and runs its dense loop only on the core that
remains.  Large integer matrices get their rank from elimination modulo
two independent ~30-bit primes, cross-checked against each other, with an
exact fraction-free fallback on disagreement.  Every F_p rank runs one
numpy elimination whose pivot steps update only the rows that meet the
pivot column, and in them only the pivot row's support: on int64 entries
below 2^31, on Python ints above.
"""

from __future__ import annotations

import mmap
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm, prod

import numpy as np

from .errors import InputError, PreconditionError, ResourceError

# matrices with at least this many entries use the modular rank path
MODULAR_RANK_THRESHOLD = 10_000

DEFAULT_SNF_BIT_CAP = 200_000


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


# ---------------------------------------------------------------------------
# matrices


class ExactMatrix:
    """Dense matrix with exact, ring-normalised entries.

    Instances are treated as immutable once built; construction helpers
    may assemble `data` in place but must not mutate a published matrix.
    """

    __slots__ = ("rows", "cols", "ring", "data")

    def __init__(self, rows: int, cols: int, ring: Ring, data=None):
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.ring = ring
        if data is None:
            zero = ring.coerce(0)
            self.data = [[zero] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise InputError("matrix data does not match declared shape")
            self.data = [[ring.coerce(x) for x in row] for row in data]

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, ring):
        return cls(rows, cols, ring)

    @classmethod
    def identity(cls, n, ring):
        m = cls(n, n, ring)
        one = ring.coerce(1)
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_rows(cls, rows, ring):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, ring, rows)

    @classmethod
    def from_entries(cls, rows, cols, ring, entries):
        """Build from a {(i, j): value} mapping; unmentioned entries are zero."""
        m = cls(rows, cols, ring)
        for (i, j), v in entries.items():
            m.data[i][j] = ring.coerce(v)
        return m

    @classmethod
    def from_columns(cls, columns, rows, ring):
        m = cls(rows, len(columns), ring)
        for j, col in enumerate(columns):
            for i, x in enumerate(col):
                m.data[i][j] = ring.coerce(x)
        return m

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.ring == other.ring and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring,
                     tuple(tuple(r) for r in self.data)))

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.data)

    def column(self, j):
        return [row[j] for row in self.data]

    def hstack(self, other):
        if other.rows != self.rows or other.ring != self.ring:
            raise InputError("hstack needs matching row count and ring")
        return ExactMatrix(self.rows, self.cols + other.cols, self.ring,
                           [a + b for a, b in zip(self.data, other.data)])

    def to_ring(self, ring: Ring) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, ring, self.data)

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other):
        self._check_same_shape(other)
        return ExactMatrix(self.rows, self.cols, self.ring,
                           [[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise InputError("shape or ring mismatch")

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows or self.ring != other.ring:
                raise InputError("matmul shape or ring mismatch")
            bt = list(zip(*other.data)) if other.rows else [()] * other.cols
            zero = self.ring.coerce(0)
            out = []
            for arow in self.data:
                nz = [(j, a) for j, a in enumerate(arow) if a != 0]
                orow = []
                for bcol in bt:
                    s = zero
                    for j, a in nz:
                        b = bcol[j]
                        if b:
                            s = s + a * b
                    orow.append(s)
                out.append(orow)
            return ExactMatrix(self.rows, other.cols, self.ring, out)
        return self.matvec(other)

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise InputError("vector length mismatch")
        zero = self.ring.coerce(0)
        out = []
        for row in self.data:
            s = zero
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(self.ring.coerce(s))
        return out

    # -- integer normalisation ----------------------------------------------

    def _int_entries(self):
        """Nonzero entries as COO triplets (row indices, column indices, ints).

        A Q row is scaled by the lcm of its nonzero entries' denominators
        (row scaling preserves rank); Z and F_p entries are ints already.
        """
        ii, jj, vals = [], [], []
        columns = range(self.cols)
        scale = self.ring == QQ
        for i, row in enumerate(self.data):
            nz = list(compress(columns, row))
            if not nz:
                continue
            xs = [row[j] for j in nz]
            if scale:
                den = lcm(*[x.denominator for x in xs])
                xs = [x.numerator * (den // x.denominator) for x in xs]
            ii += [i] * len(nz)
            jj += nz
            vals += xs
        return ii, jj, vals

    # -- rank ----------------------------------------------------------------

    def rank(self) -> int:
        """Rank over the matrix ring.

        F_p matrices run one modular elimination.  Z/Q matrices with at
        least MODULAR_RANK_THRESHOLD entries take the cross-checked modular
        path, smaller ones exact fraction-free elimination.
        """
        if self.rows == 0 or self.cols == 0:
            return 0
        coo = self._int_entries()
        if isinstance(self.ring, PrimeField):
            return _rank_mod_p(self.rows, self.cols, coo, self.ring.p)
        if self.rows * self.cols >= MODULAR_RANK_THRESHOLD:
            return _rank_modular_crosscheck(self.rows, self.cols, coo)
        return _bareiss_rank(_dense_rows(self.rows, self.cols, coo))

    # -- field elimination ----------------------------------------------------

    def kernel_basis(self):
        """Basis of the right kernel; field rings only."""
        if not self.ring.is_field:
            raise PreconditionError("kernel_basis needs a field ring (Q or Fp)")
        p = self.ring.p if isinstance(self.ring, PrimeField) else None
        rref = _IncrementalRREF(self.cols, p)
        for row in self.data:
            rref.feed(row)
        return rref.kernel_basis(self.ring)

    def kernel_matrix(self):
        return ExactMatrix.from_columns(self.kernel_basis(), self.cols, self.ring)

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
        p = self.ring.p if isinstance(self.ring, PrimeField) else None
        rref = _IncrementalRREF(self.cols + rhs.cols, p)
        for row, rrow in zip(self.data, rhs.data):
            rref.feed(row + rrow)
        if any(c >= self.cols for c in rref.pivot_cols):
            return None
        sol = ExactMatrix(self.cols, rhs.cols, self.ring)
        for row, c in zip(rref.pivot_rows, rref.pivot_cols):
            for k in range(rhs.cols):
                sol.data[c][k] = self.ring.coerce(row[self.cols + k])
        return sol

    def inverse(self):
        """Inverse matrix; InputError when singular (Z needs a unimodular input)."""
        if self.rows != self.cols:
            raise InputError("only square matrices can be inverted")
        if self.ring == ZZ:
            inv_q = self.to_ring(QQ).inverse()
            if any(x.denominator != 1 for row in inv_q.data for x in row):
                raise InputError("matrix is not invertible over Z")
            return inv_q.to_ring(ZZ)
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
# elimination kernels


class _IncrementalRREF:
    """Reduced row echelon form built one row at a time.

    Pivot rows are kept mutually reduced, so feeding a row costs one pass
    over the current pivots; well suited to the tall thin matrices that
    show up as restricted differentials.  Entries are Fractions (p=None)
    or ints mod p.
    """

    def __init__(self, width, p=None):
        self.width = width
        self.p = p
        self.pivot_rows = []
        self.pivot_cols = []

    def _reduce(self, row, other, factor):
        if self.p is None:
            return [a - factor * b for a, b in zip(row, other)]
        return [(a - factor * b) % self.p for a, b in zip(row, other)]

    def feed(self, src):
        p = self.p
        row = [Fraction(x) for x in src] if p is None else [int(x) % p for x in src]
        for r, c in zip(self.pivot_rows, self.pivot_cols):
            f = row[c]
            if f:
                row = self._reduce(row, r, f)
        lead = next((j for j in range(self.width) if row[j]), None)
        if lead is None:
            return False
        head = row[lead]
        if p is None:
            row = [a / head for a in row]
        else:
            inv = pow(head, -1, p)
            row = [a * inv % p for a in row]
        for i, r in enumerate(self.pivot_rows):
            f = r[lead]
            if f:
                self.pivot_rows[i] = self._reduce(r, row, f)
        pos = 0
        while pos < len(self.pivot_cols) and self.pivot_cols[pos] < lead:
            pos += 1
        self.pivot_rows.insert(pos, row)
        self.pivot_cols.insert(pos, lead)
        return True

    def kernel_basis(self, ring):
        pivot_set = set(self.pivot_cols)
        free_cols = [j for j in range(self.width) if j not in pivot_set]
        basis = []
        for f in free_cols:
            vec = [ring.coerce(0)] * self.width
            vec[f] = ring.coerce(1)
            for r, c in zip(self.pivot_rows, self.pivot_cols):
                v = r[f]
                if v:
                    vec[c] = ring.coerce(-v if self.p is None else (-v) % self.p)
            basis.append(vec)
        return basis


def _bareiss_rank(rows):
    """Fraction-free (Bareiss) row echelon rank of integer rows; destructive."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv, best = None, None
        for i in range(r, m):
            v = rows[i][c]
            if v:
                a = abs(v)
                if best is None or a < best:
                    piv, best = i, a
                    if a == 1:
                        break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(r + 1, m):
            ri = rows[i]
            fv = ri[c]
            for j in range(c + 1, n):
                ri[j] = (pv * ri[j] - fv * prow[j]) // prev
            ri[c] = 0
        prev = pv
        r += 1
    return r


def _dense_rows(m, n, coo):
    """Dense integer rows of an m x n matrix given by COO triplets."""
    rows = [[0] * n for _ in range(m)]
    for i, j, v in zip(*coo):
        rows[i][j] = v
    return rows


def _rank_mod_p(m, n, coo, p):
    """Rank mod p of the m x n integer matrix given by COO triplets.

    One numpy elimination with first-nonzero pivoting: each pivot step
    updates only the rows with a nonzero in the pivot column, and in
    them only the pivot row's nonzero columns.  Residue products fit
    int64 for p < 2^31; larger primes run the same loop on Python ints.
    The int64 array gets an anonymous mapping of its own, unmapped when
    the array dies: a large array from the malloc heap stays resident
    after it is freed, and whether the next one reuses it depends on the
    heap's layout, so peak memory would differ from run to run.
    """
    ii, jj, vals = coo
    if p < 2**31:
        a = np.frombuffer(mmap.mmap(-1, 8 * m * n), dtype=np.int64).reshape(m, n)
    else:
        a = np.zeros((m, n), dtype=object)
    a[ii, jj] = [v % p for v in vals]
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], :] = a[[piv, r], :]
        support = np.flatnonzero(a[r, c:]) + c
        inv = pow(int(a[r, c]), -1, p)
        a[r, support] = a[r, support] * inv % p
        below = nz[1:] + r
        if below.size:
            block = np.ix_(below, support)
            a[block] = (a[block] - a[below, c, None] * a[r, support]) % p
        r += 1
    return r


def _modular_primes(rows, cols):
    """Two distinct ~30-bit primes, chosen deterministically from the shape."""
    rng = random.Random(0x5ACC0 ^ (rows * 2654435761) ^ cols)
    primes = []
    while len(primes) < 2:
        cand = rng.randrange(2**29, 2**30) | 1
        if is_prime(cand) and cand not in primes:
            primes.append(cand)
    return primes


def _rank_modular_crosscheck(m, n, coo):
    """Rank mod two independent primes; exact fallback on disagreement.

    rank_Q >= rank mod p always, so two agreeing residue ranks pin the
    rational rank unless both primes divide the same maximal minor.
    """
    if max(map(abs, coo[2]), default=0) < 2**31:
        p1, p2 = _modular_primes(m, n)
        r1 = _rank_mod_p(m, n, coo, p1)
        if r1 == _rank_mod_p(m, n, coo, p2):
            return r1
    return _bareiss_rank(_dense_rows(m, n, coo))


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


def _smith(matrix: ExactMatrix, bit_cap: int) -> SmithForm:
    """Invariant factors: unit pivots first on a sparse copy, then a dense
    loop on the core they leave.

    A +-1 pivot clears its column by row operations; its row is then
    cleared by column operations that touch nothing else, so it splits off
    a factor 1.  Pivots go in Markowitz order (least (row nnz - 1) *
    (col nnz - 1) first) to limit fill-in; see the elimination phase of
    Dumas, Saunders and Villard, JSC 2001.
    """
    rows = {}
    for i, row in enumerate(matrix.data):
        entries = {j: int(x) for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
    cols: dict = {}
    for i, entries in rows.items():
        for j in entries:
            cols.setdefault(j, set()).add(i)

    units = 0
    while True:
        best = None
        for i, entries in rows.items():
            width = len(entries) - 1
            for j, a in entries.items():
                if a == 1 or a == -1:
                    cost = width * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j = best
        prow = rows.pop(i)
        sign = prow.pop(j)
        others = cols.pop(j)
        others.discard(i)
        for l in prow:
            cols[l].discard(i)
        for k in others:
            row = rows[k]
            q = row.pop(j) * sign
            for l, b in prow.items():
                old = row.get(l)
                new = (old or 0) - q * b
                if new:
                    row[l] = new
                    if old is None:
                        cols[l].add(k)
                elif old is not None:
                    del row[l]
                    cols[l].discard(k)
            if not row:
                del rows[k]
        units += 1

    core_cols = sorted(j for j, members in cols.items() if members)
    d = [[entries.get(j, 0) for j in core_cols] for entries in rows.values()]
    m, n = len(d), len(core_cols)

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
    b = image_of.smith_normal_form()
    free = kernel_of.cols - a.rank - b.rank
    if not modulus:
        return AbelianGroup(free, b.torsion)
    orders = [gcd(d, modulus) for d in b.torsion + a.torsion]
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
