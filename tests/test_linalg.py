import ast
import gc
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rackoh
from rackoh import cochains, linalg
from rackoh.cochains import differential
from rackoh.cohomology import _parse_coefficient
from rackoh.errors import InputError, PreconditionError, ResourceError
from rackoh.linalg import (BYTES_PER_TERM, GF, MODULAR_PRIME, QQ, ZZ,
                           AbelianGroup, ExactMatrix, _annihilates,
                           _back_substitution, _eliminate, _is_prime_power,
                           _kernel_certifies, _kernel_mod_p, _lift_kernel,
                           _rank_certified, _unit_sweep, is_prime,
                           lattice_quotient)
from rackoh.modules import constant_module, jordan_module, trivial_module
from rackoh.racks import dihedral_rack

from conftest import corpus, relabelled


# --- independent oracle: invariant factors from gcds of k x k minors -------

def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * head * _det(minor)
    return total


def snf_by_minor_gcds(rows):
    """Invariant factors via determinantal divisors: d_k = D_k / D_(k-1),
    D_k = gcd of all k x k minors.  Exponential; small matrices only."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                g = gcd(g, _det([[rows[i][j] for j in csel] for i in rsel]))
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[k] // divisors[k - 1] for k in range(1, len(divisors)))


def _random_unimodular_scramble(rows, rng, steps=12):
    rows = [r[:] for r in rows]
    m = len(rows)
    n = len(rows[0])
    for _ in range(steps):
        if rng.random() < 0.5 and m > 1:
            i, k = rng.sample(range(m), 2)
            c = rng.randrange(-3, 4)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
        elif n > 1:
            j, k = rng.sample(range(n), 2)
            c = rng.randrange(-3, 4)
            for r in rows:
                r[j] += c * r[k]
    return rows


small_int = st.integers(min_value=-9, max_value=9)


def int_matrices(max_dim=4, entries=small_int):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


# mostly zeros and units, with some entries near 2^30: one unit pivot
# update by such a row takes the fill-in past 2^31
sweep_entry = st.one_of(st.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                        st.integers(-2**30, 2**30))


# small entries, and entries that make the certificate of one prime refuse:
# multiples of MODULAR_PRIME, entries past 2^31 and pairs 181, 182, whose
# kernels need denominators past 2^15
escape_entry = st.one_of(small_int, st.sampled_from(
    (MODULAR_PRIME, -2 * MODULAR_PRIME, 2**31, -2**40 - 1, 181, 182)))


class TestRank:
    def test_identity(self):
        assert ExactMatrix.identity(3, QQ).rank() == 3

    def test_spec_2x2(self):
        assert ExactMatrix.from_rows([[2, 4], [6, 8]], QQ).rank() == 2

    def test_f2(self):
        assert ExactMatrix.from_rows([[1, 1], [1, 1]], GF(2)).rank() == 1

    def test_zero_matrix(self):
        assert ExactMatrix.zeros(3, 2, ZZ).rank() == 0

    def test_rational_entries(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(3, 2), Fraction(1, 1)]], QQ)
        assert m.rank() == 1  # second row is 3 times the first
        m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(1, 5), Fraction(1, 7)]], QQ)
        assert m.rank() == 2

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exact_equals_modular(self, rows):
        # entries of at most 9 on at most 4 x 4 certify with one prime:
        # the escape never runs
        m = ExactMatrix.from_rows(rows, ZZ)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _spy_escape(monkeypatch)
            assert (len(_rank_certified(m.rows, m.cols, m.csr))
                    == len(_gauss_jordan(rows)[1]))
        assert not calls

    @given(st.sampled_from([ZZ, QQ]), int_matrices(max_dim=8),
           st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_small_rank_equals_oracle(self, ring, rows, den):
        # small matrices take the certified modular rank too; over Q the
        # entries get denominators
        if ring == QQ:
            rows = [[Fraction(x, den + j) for j, x in enumerate(row)]
                    for row in rows]
        m = ExactMatrix.from_rows(rows, ring)
        assert m.rank() == len(_gauss_jordan(rows)[1])

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_plus_nullity(self, rows):
        m = ExactMatrix.from_rows(rows, QQ)
        assert m.rank() + len(m.kernel_basis()) == m.cols

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_mod_p_matches_snf_prediction(self, rows):
        # rank over Fp equals rank over Q unless p divides an invariant factor
        m = ExactMatrix.from_rows(rows, ZZ)
        factors = m.smith_normal_form().invariant_factors
        for p in (2, 3, 5, 7, 11):
            expected = sum(1 for d in factors if d % p)
            assert _to_ring(m, GF(p)).rank() == expected

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_mod_large_prime(self, rows):
        # p >= 2^31 takes the Python-int elimination
        p = 2**61 - 1
        m = ExactMatrix.from_rows(rows, ZZ)
        assert _to_ring(m, GF(p)).rank() == _to_ring(m, QQ).rank()
        assert ExactMatrix.from_rows([[p, 0], [0, 1]], GF(p)).rank() == 1

    @staticmethod
    def _rank_via_escape(monkeypatch, rows):
        """rank() of the Z matrix `rows`, whose one-prime certificate must
        refuse, so that the rank comes from more primes, and the oracle's
        rank."""
        m = ExactMatrix.from_rows(rows, ZZ)
        calls = _spy_escape(monkeypatch)
        rank = m.rank()
        assert len(calls) == 1
        return rank, len(_gauss_jordan(rows)[1])

    def test_bad_prime_takes_more_primes(self, monkeypatch):
        # a diagonal entry equal to the scheduled prime drops the rank mod
        # p, and the kernel vector mod p it leaves is no kernel vector
        # over Z, so the certificate refuses
        n = 100
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][0] = MODULAR_PRIME
        rank, expected = self._rank_via_escape(monkeypatch, rows)
        assert rank == expected == n

    def test_large_entry_takes_more_primes(self, monkeypatch):
        # one entry of 2^31 leaves the int64 check; a copy of its row and a
        # sum with it carry the large entry through elimination
        rng = random.Random(31)
        rows = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.03 else 0
                 for _ in range(90)] for _ in range(120)]
        rows[0][7] = 2**31
        rows[1] = rows[0][:]
        rows[2] = [a + b for a, b in zip(rows[0], rows[3])]
        rank, expected = self._rank_via_escape(monkeypatch, rows)
        assert rank == expected

    def test_auto_threshold_large_matrix(self, monkeypatch):
        # rows a + c * b over 40 dense base rows, so the rank is 40, not
        # full (and the Fraction oracle stays quick); the kernel of the
        # transpose needs denominators past 2^15, so one prime refuses
        rng = random.Random(7)
        base = [[rng.randrange(-2, 3) for _ in range(80)] for _ in range(40)]
        rows = []
        for _ in range(150):
            a, b = rng.sample(base, 2)
            c = rng.randrange(-2, 3)
            rows.append([x + c * y for x, y in zip(a, b)])
        rank, expected = self._rank_via_escape(monkeypatch, rows)
        assert rank == expected == 40

    def test_rational_entries_share_one_denominator(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 0, Fraction(1, 3)],
                                   [0, 0, 0],
                                   [0, Fraction(-5, 4), 0]], QQ)
        csr = m.csr
        assert [csr.indptr.tolist(), csr.indices.tolist(), csr.nums.tolist(),
                csr.den, csr.top] == [[0, 2, 2, 3], [0, 2, 1], [6, 4, -15], 12, 15]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_rank_mod_p_against_row_by_row_rref(self, seed):
        # sparse matrices of 10,000 cells and more, about 1 % nonzero, with
        # rank deficiency forced by duplicated and summed rows; the oracle
        # is the independent row-at-a-time reduction
        rng = random.Random(seed)
        n = rng.randrange(60, 120)
        m = -(-10_000 // n) + rng.randrange(0, 30)
        rows = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.01 else 0
                 for _ in range(n)] for _ in range(m)]
        for _ in range(m // 10):
            i, k, l = rng.sample(range(m), 3)
            rows[i] = rows[k][:]
            rows[l] = [a + b for a, b in zip(rows[l], rows[k])]
        matrix = ExactMatrix.from_rows(rows, ZZ)
        coo = matrix.csr
        for p in (2, 7, MODULAR_PRIME, 2**61 - 1):
            # the pivot rows are the greedy row basis: the rows independent
            # of all rows before them
            assert sorted(_eliminate(m, n, coo, p)[0].rows) == _greedy_rows(rows, p)

    def test_tall_matrices_pivot_as_one_pass(self, monkeypatch):
        # tall matrices (m >= 8n) whose rows past the first 2n mostly lie
        # in the span of those, and sometimes leave it in one or two
        # directions: the elimination gives the pivots, residues and rows
        # of the one-pass loop, whether it stops at a proof, the probe
        # leaves the span, or the proof fails after a zero probe (p = 2)
        # and the second block runs
        seen, calls = set(), []
        certifies, block = linalg._kernel_certifies, linalg._residue_block

        def spy_certifies(*args, **kwargs):
            calls.append(("proof", certifies(*args, **kwargs)))
            return calls[-1][1]

        def spy_block(csr, lo, *args, **kwargs):
            calls.append(("block", lo))
            return block(csr, lo, *args, **kwargs)

        monkeypatch.setattr(linalg, "_kernel_certifies", spy_certifies)
        monkeypatch.setattr(linalg, "_residue_block", spy_block)
        monkeypatch.setattr(linalg, "ROW_BLOCK_THRESHOLD", 0)
        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randrange(8, 30)
            m = 8 * n + rng.randrange(0, 3 * n)
            rows = _tall_rows(rng, m, n)
            coo = ExactMatrix.from_rows(rows, ZZ).csr
            for p in (2, 3, 7, MODULAR_PRIME, 2**61 - 1):
                calls.clear()
                assert _pivot_lists(_eliminate(m, n, coo, p)[0]) == _one_pass(m, n, coo, p)
                after = [kind if kind == "block" else result for kind, result in calls[1:]]
                seen.add({(): "one block", (True,): "proof", ("block",): "escape",
                          (False, "block"): f"failed proof at p = {p}"}[tuple(after)])
        assert {"proof", "escape", "failed proof at p = 2"} <= seen
        rows[2 * n:] = [[0] * n] * (m - 2 * n)  # the proof on rows with no entry
        coo = ExactMatrix.from_rows(rows, ZZ).csr
        assert _pivot_lists(_eliminate(m, n, coo, 7)[0]) == _one_pass(m, n, coo, 7)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_rank_mod_p_ignores_row_and_column_order(self, seed):
        # the columns are eliminated last to first and the first nonzero
        # row pivots, so the work depends on where the entries sit; the
        # rank must not: sparse matrices of 10,000 cells and more, with
        # dependent rows, under row and column shuffles
        rng = random.Random(seed)
        n = rng.randrange(60, 120)
        m = -(-10_000 // n) + rng.randrange(0, 60)
        density = rng.choice((0.01, 0.03))
        rows = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(m)]
        for _ in range(m // 10):
            i, k, l = rng.sample(range(m), 3)
            rows[i] = rows[k][:]
            rows[l] = [a + b for a, b in zip(rows[l], rows[k])]
        for p in (7, MODULAR_PRIME):
            rank = len(_greedy_rows(rows, p))
            for _ in range(2):
                rperm, cperm = rng.sample(range(m), m), rng.sample(range(n), n)
                coo = ExactMatrix.from_rows([[rows[i][j] for j in cperm]
                                             for i in rperm], ZZ).csr
                assert len(_eliminate(m, n, coo, p)[0]) == rank

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_differential_ranks_under_relabelling(self, seed):
        # the largest field_rank matrices, whose tuple order sets the pivot
        # order: dihedral:5 d_4 (3125 x 625) and Jordan t=1, k=3 d_3
        rack = relabelled(dihedral_rack(5), seed)
        for ring in (QQ, GF(7)):
            assert differential(rack, trivial_module(rack, ring), 4).rank() == 520
            assert differential(rack, jordan_module(rack, 1, 3, ring),
                                3).rank() == 312

    def test_residue_array_is_charged_to_the_budget(self, monkeypatch):
        # 4 bytes per cell of the array of the rows read, 16 for each of
        # the n(n + 1)/2 entries the pivot rows can hold and 224 per column,
        # however few entries are stored: 606,400 bytes for 300 x 200 (a
        # 200 x 300 matrix ranks as its transpose), 2,012,800 for 400 x
        # 400, and 183,600 for 5000 x 100, whose first block (200 rows and
        # the probe) holds a basis: an int64 array of all rows took 4 MB
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        entries = {(i, i): 1 for i in range(0, 200, 20)}
        with pytest.raises(ResourceError, match="budget"):
            ExactMatrix.from_entries(400, 400, ZZ, entries).rank()
        assert ExactMatrix.from_entries(200, 300, ZZ, entries).rank() == 10
        tall = {(i, i % 100): 1 for i in range(5000)}
        for ring in (ZZ, GF(7)):
            assert ExactMatrix.from_entries(5000, 100, ring, tall).rank() == 100


def _tall_rows(rng, m, n):
    """m rows of width n, each a combination of one to three of r sparse
    random basis rows with coefficients +-1, +-2; the first 2n rows use
    only the first r - s basis rows, and s in {0, 1, 2} rows past them
    also the others."""
    r = rng.randrange(n // 2, n)
    s = rng.choice((0, 1, 2))
    basis = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.2 else 0
              for _ in range(n)] for _ in range(r)]

    def combination(k):
        row = [0] * n
        for b in rng.sample(range(k), min(k, rng.randrange(1, 4))):
            f = rng.choice((-2, -1, 1, 2))
            row = [a + f * x for a, x in zip(row, basis[b])]
        return row

    rows = [combination(r - s) for _ in range(m)]
    for i in rng.sample(range(2 * n, m), s):
        rows[i] = combination(r)
    return rows


def _one_pass(m, n, csr, p):
    """The elimination mod p on one m x n array, as (supports, residues,
    rows) lists: columns last to first, each pivoting on the first row
    with a nonzero there, which is normalised and updates the rows below
    at its support."""
    at = np.zeros((n, m), dtype=np.int64 if p < 2**31 else object)
    at[csr.indices, np.arange(m).repeat(np.diff(csr.indptr))] = csr.nums % p
    flat = at.reshape(-1)
    supports, residues, rows = [], [], []
    for c in range(n - 1, -1, -1):
        nz = at[c].nonzero()[0]
        if nz.size == 0:
            continue
        i, below = nz[0], nz[1:]
        row = at[:c + 1, i]
        support = row.nonzero()[0]
        res = row[support] * pow(int(row[c]), -1, p) % p
        row[support] = 0
        supports.append(support.tolist())
        residues.append([int(x) for x in res])
        rows.append(int(i))
        if below.size:
            cells = (support[:, None] * m + below).ravel()
            f = flat.take(below + c * m)
            flat.put(cells, (flat.take(cells) - (res[:, None] * f).ravel()) % p)
    return supports, residues, rows


def _greedy_rows(rows, p=None):
    """The indices of the rows independent of the rows before them, mod p
    or over Q: the row-at-a-time oracle.  Each row, as a dict of its
    nonzero entries, is reduced by the kept row of its leading column
    until it has none or a new leading column; kept rows are 1 there."""
    kept, picked = {}, []

    def norm(x):
        return Fraction(x) if p is None else x % p

    for i, row in enumerate(rows):
        row = {j: norm(x) for j, x in enumerate(row) if norm(x)}
        while row and min(row) in kept:
            f = row[min(row)]
            for j, x in kept[min(row)].items():
                y = norm(row.get(j, 0) - f * x)
                if y:
                    row[j] = y
                else:
                    del row[j]
        if row:
            inv = 1 / row[min(row)] if p is None else pow(row[min(row)], -1, p)
            kept[min(row)] = {j: norm(x * inv) for j, x in row.items()}
            picked.append(i)
    return picked


def _pivot_lists(pivots):
    """The pivots of _eliminate as (supports, residues, rows) lists."""
    return ([s.tolist() for s, _ in pivots], [[int(x) for x in r] for _, r in pivots],
            [int(i) for i in pivots.rows])


def _to_ring(m, ring):
    """The matrix m with its entries coerced into `ring`."""
    return ExactMatrix.from_entries(m.rows, m.cols, ring, {
        (i, j): x for i in range(m.rows) for j, x in m.nonzeros(i)})


def _fails_to_escape(*args):
    raise AssertionError("the one-prime certificate refused")


def _spy_escape(monkeypatch):
    """A list that records the arguments of every _crt_kernel call."""
    calls, escape = [], linalg._crt_kernel
    monkeypatch.setattr(linalg, "_crt_kernel", lambda *args: calls.append(args) or escape(*args))
    return calls


class TestRankCertificate:
    @staticmethod
    def _kernel(matrix):
        """The stored entries of `matrix`, the free columns of its pivot
        rows mod MODULAR_PRIME and their kernel mod p (one column per free
        column)."""
        n = matrix.cols
        coo = matrix.csr
        pivots = _eliminate(matrix.rows, n, coo, MODULAR_PRIME)[0]
        free = np.setdiff1d(np.arange(n), [support[-1] for support, _ in pivots])
        x = _kernel_mod_p(n, _back_substitution(n, pivots), free, MODULAR_PRIME)
        return coo, free, x

    def test_kernel_with_denominators_certifies(self, monkeypatch):
        # the Q kernel of Jordan t=1, k=3 d_2 on dihedral:5 (375 x 75)
        # needs denominators 2 and 4
        rack = dihedral_rack(5)
        m = differential(rack, jordan_module(rack, 1, 3, QQ), 2)
        _, free, x = self._kernel(m)
        lift = _lift_kernel(x, MODULAR_PRIME)
        assert {2, 4} <= set(lift[free, np.arange(free.size)].tolist())
        expected = len(_greedy_rows(m.data))
        monkeypatch.setattr(linalg, "_crt_kernel", _fails_to_escape)
        assert m.rank() == expected == 62

    def test_exact_check_rejects_a_perturbed_kernel(self):
        rack = dihedral_rack(5)
        m = differential(rack, trivial_module(rack, ZZ), 3)
        coo, _, x = self._kernel(m)
        lift = _lift_kernel(x, MODULAR_PRIME)
        jj, vals = coo.indices, coo.nums
        starts = coo.indptr[:-1][np.diff(coo.indptr) > 0]
        for block in (1, 7, m.rows):
            assert _annihilates(starts, jj, vals, lift, block)
        lift[jj[-1], 0] += 1
        for block in (1, 7, m.rows):
            assert not _annihilates(starts, jj, vals, lift, block)

    def test_denominator_past_2_15_refuses(self, monkeypatch):
        # each block's kernel vector is (1, -1/181, -1/182): its
        # denominator 181 * 182 = 32942 passes 2^15
        rows = [[0] * 100 for _ in range(120)]
        for b in range(33):
            rows[2 * b][3 * b] = rows[2 * b + 1][3 * b] = 1
            rows[2 * b][3 * b + 1] = 181
            rows[2 * b + 1][3 * b + 2] = 182
        _, _, x = self._kernel(ExactMatrix.from_rows(rows, ZZ))
        assert _lift_kernel(x, MODULAR_PRIME) is None
        rank, expected = TestRank._rank_via_escape(monkeypatch, rows)
        assert rank == expected == 66

    def test_wide_matrix_ranks_as_its_transpose(self, monkeypatch):
        # the kernel of a 40 x 5000 matrix has at least 4960 dimensions,
        # its transpose's at most 40; the last row repeats the first
        rng = random.Random(3)
        rows = [[0] * 5000 for _ in range(39)]
        for row in rows:
            for _ in range(20):
                row[rng.randrange(5000)] = rng.choice((-2, -1, 1, 2))
        m = ExactMatrix.from_rows(rows + [rows[0]], ZZ)
        expected = len(_greedy_rows(rows + [rows[0]]))
        monkeypatch.setattr(linalg, "_crt_kernel", _fails_to_escape)
        assert m.rank() == expected == 39

    def test_certificate_stays_below_the_residue_array(self):
        # dihedral:5 trivial Q d_4 (3125 x 625): the certificate's arrays
        # peak below the 8 * m * n bytes of the elimination's array
        rack = dihedral_rack(5)
        m = differential(rack, trivial_module(rack, QQ), 4)
        coo = m.csr
        pivots = _eliminate(m.rows, m.cols, coo, MODULAR_PRIME)[0]
        tracemalloc.start()
        try:
            assert _kernel_certifies(m.rows, m.cols, coo, pivots, MODULAR_PRIME)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m.rows * m.cols

    def test_no_corpus_differential_falls_back(self, monkeypatch):
        # every Z/Q differential of the corpus up to degree 3 certifies
        # with one prime: trivial coefficients, the Jordan blocks and
        # diag(1, 2) of criterion 4
        diag = ExactMatrix.from_rows([[1, 0], [0, 2]], QQ)
        modules = [(rack, module) for _, rack in corpus() for module in (
            trivial_module(rack, ZZ), trivial_module(rack, QQ),
            jordan_module(rack, 1, 2, QQ), jordan_module(rack, 1, 3, QQ),
            jordan_module(rack, 2, 1, QQ), constant_module(rack, diag))]
        monkeypatch.setattr(linalg, "_crt_kernel", _fails_to_escape)
        certified = 0
        for rack, module in modules:
            for n in range(4):
                m = differential(rack, module, n)
                if not m.is_zero():
                    m.rank()
                    certified += 1
        assert certified == 232


def _sparse_rows(rng, m, n, density, dependent):
    """m random rows of width n, entries +-1 and +-2 at the given density,
    `dependent` of them replaced by a copy of one row or a sum of two."""
    rows = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]
    for _ in range(dependent):
        i, k, l = rng.sample(range(m), 3)
        rows[i] = rows[k][:] if rng.random() < 0.5 else [
            a + b for a, b in zip(rows[k], rows[l])]
    return rows


class TestIndependentRows:
    """independent_rows() gives rank-many rows whose submatrix has full row
    rank, on every path: checked with the Fraction Gauss-Jordan oracle."""

    @staticmethod
    def _check(m, rows, p=None):
        picked = m.independent_rows().tolist()
        assert picked == sorted(set(picked)) and m.rank() == len(picked)
        assert len(picked) == len(_gauss_jordan(rows, p)[1])
        assert len(_gauss_jordan([rows[i] for i in picked], p)[1]) == len(picked)
        assert m.independent_rows() is m.independent_rows()  # found once

    @pytest.mark.parametrize("p", [2, 7, MODULAR_PRIME])
    def test_modular_elimination(self, p):
        rows = _sparse_rows(random.Random(p), 70, 50, 0.05, 12)
        self._check(ExactMatrix.from_rows(rows, GF(p)), rows, p)

    def test_certified_rank(self, monkeypatch):
        rows = _sparse_rows(random.Random(1), 140, 80, 0.03, 20)
        m = ExactMatrix.from_rows(rows, ZZ)
        assert m.rows > m.cols
        monkeypatch.setattr(linalg, "_crt_kernel", _fails_to_escape)
        self._check(m, rows)

    @given(st.sampled_from([ZZ, QQ]), int_matrices(max_dim=8), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_small_matrices(self, ring, rows, den):
        if ring == QQ:
            rows = [[Fraction(x, den + j) for j, x in enumerate(row)] for row in rows]
        self._check(ExactMatrix.from_rows(rows, ring), rows)

    def test_refused_certificate(self, monkeypatch):
        rows = _sparse_rows(random.Random(2), 110, 95, 0.03, 15)
        rows[0][7] = 2**31
        m = ExactMatrix.from_rows(rows, ZZ)
        calls = _spy_escape(monkeypatch)
        self._check(m, rows)
        assert len(calls) == 1

    def test_wide_matrix_gives_its_transpose_pivot_columns(self, monkeypatch):
        rows = _sparse_rows(random.Random(3), 30, 400, 0.05, 6)
        m = ExactMatrix.from_rows(rows, ZZ)
        assert m.rows < m.cols
        monkeypatch.setattr(linalg, "_crt_kernel", _fails_to_escape)
        self._check(m, rows)

    def test_empty_shapes(self):
        for ring in (ZZ, QQ, GF(5)):
            for shape in ((0, 3), (3, 0), (0, 0)):
                assert ExactMatrix.zeros(*shape, ring).independent_rows().tolist() == []


class TestKernelSolve:
    def test_zero_map_kernel(self):
        assert len(ExactMatrix.zeros(2, 3, QQ).kernel_basis()) == 3

    def test_one_relation(self):
        basis = ExactMatrix.from_rows([[1, 1]], QQ).kernel_basis()
        assert len(basis) == 1
        v = basis[0]
        assert v[0] == -v[1] and v[1] != 0

    def test_identity_kernel_empty(self):
        assert ExactMatrix.identity(4, QQ).kernel_basis() == []

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, rows):
        m = ExactMatrix.from_rows(rows, QQ)
        for vec in m.kernel_basis():
            assert all(x == 0 for x in m.matvec(vec))

    def test_solve_identity(self):
        assert ExactMatrix.identity(3, QQ).solve([1, 0, 0]) == [1, 0, 0]

    def test_solve_underdetermined(self):
        sol = ExactMatrix.from_rows([[1, 1]], QQ).solve([0])
        assert sol is not None and sol[0] + sol[1] == 0

    def test_solve_inconsistent(self):
        assert ExactMatrix.zeros(1, 1, QQ).solve([1]) is None

    @given(int_matrices(), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_solve_postcondition(self, rows, seed):
        rng = random.Random(seed)
        m = ExactMatrix.from_rows(rows, QQ)
        x = [Fraction(rng.randrange(-4, 5)) for _ in range(m.cols)]
        rhs = m.matvec(x)
        sol = m.solve(rhs)
        assert sol is not None
        assert m.matvec(sol) == rhs

    def test_kernel_needs_field(self):
        with pytest.raises(PreconditionError):
            ExactMatrix.identity(2, ZZ).kernel_basis()

    def test_solve_over_prime_field(self):
        m = ExactMatrix.from_rows([[1, 2], [0, 3]], GF(5))
        sol = m.solve([4, 1])
        assert sol is not None and m.matvec(sol) == [4, 1]
        assert ExactMatrix.from_rows([[1, 1], [2, 2]], GF(3)).solve([0, 1]) is None

    def test_kernel_over_prime_field(self):
        m = ExactMatrix.from_rows([[1, 1, 0], [0, 2, 2]], GF(3))
        basis = m.kernel_basis()
        assert len(basis) == 1
        assert all(x == 0 for x in m.matvec(basis[0]))

    def test_kernel_charge_covers_measured_bytes(self, monkeypatch):
        # the tracemalloc peak of kernel_matrix where the kernel array is
        # large (a zero matrix, a sparse wide one) against
        # KERNEL_BYTES_PER_CELL per cell of that array, which is charged
        # before it is built
        rng = random.Random(1)
        entries = {(i, j): rng.choice((-2, -1, 1, 2))
                   for i in range(150) for j in rng.sample(range(900), 6)}
        for ring in (QQ, GF(7)):
            for a in (ExactMatrix.zeros(20, 1000, ring),
                      ExactMatrix.from_entries(150, 900, ring, entries)):
                gc.collect()
                tracemalloc.start()
                try:
                    k = a.kernel_matrix()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= linalg.KERNEL_BYTES_PER_CELL * a.cols * k.cols
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        with pytest.raises(ResourceError, match="kernel of a 1x2000 matrix"):
            ExactMatrix.zeros(1, 2000, QQ).kernel_matrix()


class TestSmithNormalForm:
    def test_oracle_on_spec_example(self):
        # independent minors oracle computed first, then the main algorithm
        assert snf_by_minor_gcds([[2, 0], [0, 3]]) == (1, 6)
        sf = ExactMatrix.from_rows([[2, 0], [0, 3]], ZZ).smith_normal_form()
        assert sf.invariant_factors == (1, 6)

    def test_identity(self):
        sf = ExactMatrix.identity(4, ZZ).smith_normal_form()
        assert sf.invariant_factors == (1, 1, 1, 1)

    def test_2x2_with_content(self):
        assert snf_by_minor_gcds([[2, 4], [6, 8]]) == (2, 4)
        sf = ExactMatrix.from_rows([[2, 4], [6, 8]], ZZ).smith_normal_form()
        assert sf.invariant_factors == (2, 4)

    def test_zero_matrix(self):
        sf = ExactMatrix.zeros(2, 3, ZZ).smith_normal_form()
        assert sf.invariant_factors == () and sf.rank == 0

    def test_bit_cap_enforced_on_core(self, monkeypatch):
        # no +-1 entry, so the whole matrix reaches the dense loop
        m = ExactMatrix.from_rows([[2**10, 0], [0, 3]], ZZ)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "DEFAULT_SNF_BIT_CAP", 8)
            with pytest.raises(ResourceError):
                m.smith_normal_form()
        assert m.smith_normal_form().invariant_factors == (1, 3 * 2**10)

    @given(int_matrices())
    @settings(max_examples=50, deadline=None)
    def test_against_minors_oracle(self, rows):
        sf = ExactMatrix.from_rows(rows, ZZ).smith_normal_form()
        assert sf.invariant_factors == snf_by_minor_gcds(rows)
        for a, b in zip(sf.invariant_factors, sf.invariant_factors[1:]):
            assert b % a == 0

    @given(int_matrices(5, sweep_entry))
    @settings(max_examples=100, deadline=None)
    def test_unit_sweep_against_minors_oracle(self, rows):
        # the sweep's units and the core it leaves, each checked by the
        # oracle, without the dense loop
        units, core = _unit_sweep(ExactMatrix.from_rows(rows, ZZ))
        core_factors = snf_by_minor_gcds(core) if core else ()
        assert (1,) * units + core_factors == snf_by_minor_gcds(rows)

    def test_fill_in_past_2_31_moves_to_python_ints(self):
        # the unit sweep's updates here take entries past 2^31 and their
        # products past 2^63, where int64 arithmetic would wrap around
        rows = [[-1, -536870917, 1, -536870917],
                [-536870917, 0, 0, -1],
                [1073741821, 1, 1073741821, 1],
                [-1, 0, -1, 3145729]]
        want = (1, 1, 1, 973555985874099137163311462743996)
        assert snf_by_minor_gcds(rows) == want
        assert ExactMatrix.from_rows(rows, ZZ).smith_normal_form().invariant_factors == want

    @pytest.mark.parametrize("rows, units, core", [
        ([[2], [1]], 1, []),
        ([[2, 4, 3], [1, 0, 1], [0, 1, 2]], 2, [[7]]),
    ])
    def test_unit_below_a_non_unit_pivots(self, rows, units, core):
        # over Z a column pivots on its first +-1, not on its first
        # nonzero: in each column here a non-unit sits above the +-1
        assert _unit_sweep(ExactMatrix.from_rows(rows, ZZ)) == (units, core)
        assert (ExactMatrix.from_rows(rows, ZZ).smith_normal_form().invariant_factors
                == snf_by_minor_gcds(rows))

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_recovers_scrambled_diagonal(self, seeds, seed):
        # build a divisibility chain, scramble it unimodularly, recover it
        chain = []
        for s in seeds:
            chain.append(s if not chain else chain[-1] * s)
        n = len(chain)
        rows = [[chain[i] if i == j else 0 for j in range(n)] for i in range(n)]
        scrambled = _random_unimodular_scramble(rows, random.Random(seed))
        sf = ExactMatrix.from_rows(scrambled, ZZ).smith_normal_form()
        assert list(sf.invariant_factors) == chain

    @pytest.mark.parametrize("spec, n, torsion, rank", [
        ("conj:S3", 3, (3, 3, 3, 3, 3, 9), 165),
        ("dihedral:4", 3, (2,) * 6, 46),
        ("dihedral:6", 2, (), 28),
    ])
    def test_pivot_order_cannot_change_factors(self, spec, n, torsion, rank):
        # seeded row and column permutations and row sign flips move the
        # unit pivots off the coboundary order, so the sweep leaves larger
        # cores to the dense loop; the invariant factors must not move
        rack = dict(corpus())[spec]
        d = differential(rack, trivial_module(rack, ZZ), n)
        want = (1,) * (rank - len(torsion)) + torsion
        assert d.smith_normal_form().invariant_factors == want
        for seed in range(4):
            rng = random.Random(seed)
            rperm = rng.sample(range(d.rows), d.rows)
            cperm = rng.sample(range(d.cols), d.cols)
            entries = {}
            for r, i in enumerate(rperm):
                sign = rng.choice((1, -1))
                for j, x in d.nonzeros(i):
                    entries[r, cperm[j]] = sign * x
            shuffled = ExactMatrix.from_entries(d.rows, d.cols, ZZ, entries)
            assert shuffled.smith_normal_form().invariant_factors == want

    @pytest.mark.parametrize("rows, dtype, factors", [
        # the update 2^30 - (-(2^30 - 1)) lands on 2^31 - 1, and its
        # negation on -(2^31 - 1): both fit int32
        ([[1, 1], [2**30, 1 - 2**30]], np.int32, (1, 2**31 - 1)),
        ([[1, 1], [-2**30, 2**30 - 1]], np.int32, (1, 2**31 - 1)),
        # the update reaches 2^31, and -2^31: Python ints before it is written
        ([[1, 1], [2**30, -2**30]], object, (1, 2**31)),
        ([[1, 1], [-2**30, 2**30]], object, (1, 2**31)),
        # an entry of 2^31 or more: Python ints from the start
        ([[2**31, 1], [3, 1]], object, (1, 2**31 - 3)),
        ([[1, 0], [0, -2**31]], object, (1, 2**31)),
    ])
    def test_int32_boundary_of_the_working_array(self, rows, dtype, factors):
        a = ExactMatrix.from_rows(rows, ZZ)
        assert _eliminate(a.rows, a.cols, a.csr, 0)[1].dtype == dtype
        assert snf_by_minor_gcds(rows) == factors
        assert a.smith_normal_form().invariant_factors == factors

    def test_working_copy_is_charged_to_the_budget(self, monkeypatch):
        # the working array takes 4 bytes per matrix cell (int32)
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        side = isqrt((1 << 20) // 4)
        fits = ExactMatrix.identity(side, ZZ)
        assert fits.smith_normal_form().rank == side
        with pytest.raises(ResourceError, match="Smith form .* budget"):
            ExactMatrix.identity(side + 1, ZZ).smith_normal_form()

    @pytest.mark.parametrize("n", [100, 200])
    def test_move_to_python_ints_is_charged(self, monkeypatch, n):
        # a dense n x n matrix of entries in [2^29, 2^30) with one unit, in
        # the column pivoted first: its update reaches 2^58 and moves the
        # working array to Python ints; the tracemalloc peak stays within
        # the largest charge, which is near it, not padded far above it
        a = np.random.default_rng(n).integers(2**29, 2**30, size=(n, n))
        a[0, -1] = 1
        csr = ExactMatrix.from_dense(a, ZZ).csr
        charged = []
        monkeypatch.setattr(linalg, "charge_budget", lambda need, what: charged.append(need))
        gc.collect()
        tracemalloc.start()
        try:
            at = _eliminate(n, n, csr, 0)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert at.dtype == object
        assert 0.8 * max(charged) <= peak <= max(charged)


class TestInverse:
    def test_field_inverse(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]], QQ)
        assert (m @ m.inverse()) == ExactMatrix.identity(2, QQ)

    def test_singular_raises(self):
        with pytest.raises(InputError):
            ExactMatrix.from_rows([[1, 1], [1, 1]], QQ).inverse()

    def test_integer_unimodular(self):
        m = ExactMatrix.from_rows([[1, 1], [0, 1]], ZZ)
        assert (m @ m.inverse()) == ExactMatrix.identity(2, ZZ)

    def test_integer_non_unimodular(self):
        with pytest.raises(InputError):
            ExactMatrix.from_rows([[2, 0], [0, 1]], ZZ).inverse()

    def test_fp_inverse(self):
        m = ExactMatrix.from_rows([[1, 1], [0, 1]], GF(3))
        assert (m @ m.inverse()) == ExactMatrix.identity(2, GF(3))


# --- elimination against a textbook Gauss-Jordan oracle --------------------
# The reduced row echelon form is canonical, so the kernel basis (one vector
# per free column), the solution with free unknowns 0 and the inverse that
# it gives are unique: the results must be equal to the oracle's, entry for
# entry, not merely span the same space.  The elimination takes the columns
# from last to first, so the oracles below run Gauss-Jordan on the columns
# reversed and reverse what it gives.


def _gauss_jordan(rows, p=None):
    """Nonzero rows of the reduced row echelon form, as Fractions, and
    their pivot columns.  Mod p it runs on residues.  Over Q it is
    fraction-free (Bareiss): each row is scaled to integers, every other
    row becomes (pivot * row - its entry * pivot row) / previous pivot, an
    exact division, and the pivot rows, whose pivots all end equal to the
    last, are divided by it once at the end."""
    if p is None:
        rows = [[Fraction(x) for x in row] for row in rows]
        rows = [[int(x * d) for x in row] for row, d in
                ((row, lcm(*(x.denominator for x in row))) for row in rows)]
    else:
        rows = [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p
                 for x in row] for row in rows]
    width = len(rows[0]) if rows else 0
    pivots, prev = [], 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        head = rows[r][c]
        if p is not None:
            inv = pow(head, -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i == r:
                continue
            if p is None:
                rows[i] = [(head * a - f * b) // prev for a, b in zip(rows[i], rows[r])]
            elif f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        prev = head if p is None else 1
        pivots.append(c)
    return [[Fraction(x, prev) for x in row] for row in rows[:len(pivots)]], pivots


def _reversed(rows):
    return [row[::-1] for row in rows]


def _oracle_kernel(rows, width, p=None):
    reduced, pivots = _gauss_jordan(_reversed(rows), p)
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f] if p is None else -row[f] % p
        basis.append(vec)
    return _reversed(basis[::-1])


def _oracle_solve(rows, rhs, p=None):
    width = len(rows[0])
    reduced, pivots = _gauss_jordan([a + b for a, b in zip(_reversed(rows), rhs)], p)
    if any(c >= width for c in pivots):
        return None
    sol = [[Fraction(0)] * len(rhs[0]) for _ in range(width)]
    for row, c in zip(reduced, pivots):
        sol[c] = row[width:]
    return sol[::-1]


def _oracle_pivot_columns(rows, p=None):
    """The columns that pivot from last to first, ascending."""
    width = len(rows[0])
    return sorted(width - 1 - c for c in _gauss_jordan(_reversed(rows), p)[1])


def _q_rows(rng, m, n, rank):
    """m x n rows over Q with denominators 2-7; the rows past `rank` are
    combinations of the first ones, so the rank is at most `rank`."""
    rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(2, 8))
             if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
            for _ in range(rank)]
    for _ in range(m - rank):
        coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(2, 8)) for _ in range(rank)]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                     for j in range(n)])
    rng.shuffle(rows)
    return rows


class TestEliminationOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_basis_over_q(self, seed):
        rng = random.Random(seed)
        m, n = rng.randrange(2, 7), rng.randrange(2, 8)
        rows = _q_rows(rng, m, n, rng.randrange(1, min(m, n) + 1))
        basis = ExactMatrix.from_rows(rows, QQ).kernel_basis()
        assert basis == _oracle_kernel(rows, n)
        assert all(type(x) is Fraction for vec in basis for x in vec)
        kernel = ExactMatrix.from_rows(rows, QQ).kernel_matrix()
        assert [kernel.column(t) for t in range(kernel.cols)] == basis

    def test_rank_deficient_kernel(self):
        rows = _q_rows(random.Random(11), 6, 5, 2)
        basis = ExactMatrix.from_rows(rows, QQ).kernel_basis()
        assert len(basis) == 3
        assert basis == _oracle_kernel(rows, 5)

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_columns_over_q(self, seed):
        rng = random.Random(100 + seed)
        m, n = rng.randrange(2, 7), rng.randrange(2, 7)
        rows = _q_rows(rng, m, n, rng.randrange(1, min(m, n) + 1))
        a = ExactMatrix.from_rows(rows, QQ)
        # a consistent right-hand side: a times some fractional X
        x = _q_rows(rng, n, 2, 2)
        rhs = ExactMatrix.from_rows(x, QQ)
        sol = a.solve_columns(a @ rhs)
        assert sol.data == _oracle_solve(rows, (a @ rhs).data)
        assert (a @ sol) == (a @ rhs)

    def test_inconsistent_system(self):
        rows = _q_rows(random.Random(7), 4, 3, 2)
        rhs = [[Fraction(1, 3)], [Fraction(0)], [Fraction(-2, 5)], [Fraction(4, 7)]]
        assert _oracle_solve(rows, rhs) is None
        a = ExactMatrix.from_rows(rows, QQ)
        assert a.solve_columns(ExactMatrix.from_rows(rhs, QQ)) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_over_q(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randrange(2, 6)
        rows = _q_rows(rng, n, n, n)
        while len(_gauss_jordan(rows)[1]) < n:
            rows = _q_rows(rng, n, n, n)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inv = ExactMatrix.from_rows(rows, QQ).inverse()
        assert inv.data == _oracle_solve(rows, ident)
        assert all(type(x) is Fraction for row in inv.data for x in row)

    @pytest.mark.parametrize("p", [2, 7])
    def test_over_prime_field(self, p):
        rng = random.Random(p)
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        rows.append([(a + 2 * b) % p for a, b in zip(rows[0], rows[1])])
        a = ExactMatrix.from_rows(rows, GF(p))
        assert a.kernel_basis() == _oracle_kernel(rows, 6, p)
        rhs = [[rng.randrange(p)] for _ in range(5)]
        sol = a.solve_columns(ExactMatrix.from_rows(rhs, GF(p)))
        expect = _oracle_solve(rows, rhs, p)
        assert (sol is None and expect is None) or sol.data == expect
        square = ExactMatrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]], GF(p))
        if len(_gauss_jordan(square.data, p)[1]) == 3:
            ident = [[int(i == j) for j in range(3)] for i in range(3)]
            assert square.inverse().data == _oracle_solve(square.data, ident, p)

    @given(st.sampled_from([ZZ, QQ, GF(2), GF(7), GF(MODULAR_PRIME)]),
           int_matrices(5, escape_entry), st.integers(1, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_field_operations_against_oracle(self, ring, rows, k, data):
        # entries that make the one-prime certificate refuse (multiples of
        # MODULAR_PRIME, entries past 2^31, kernels with denominators past
        # 2^15) reach the escape over Z and Q; over F_p they are residues
        p = getattr(ring, "p", None)
        a = ExactMatrix.from_rows(rows, ring)
        m, n = len(rows), len(rows[0])
        columns = _oracle_pivot_columns(rows, p)
        assert a.column_basis() == a.select_columns(columns)
        assert a.column_basis().data == [[a[i, j] for j in columns] for i in range(m)]
        rhs = data.draw(st.lists(st.lists(escape_entry, min_size=k, max_size=k),
                                 min_size=m, max_size=m))
        if ring == ZZ:
            with pytest.raises(PreconditionError):
                a.kernel_matrix()
            with pytest.raises(PreconditionError):
                a.solve_columns(ExactMatrix.from_rows(rhs, ZZ))
        else:
            assert a.kernel_basis() == _oracle_kernel(rows, n, p)
            sol = a.solve_columns(ExactMatrix.from_rows(rhs, ring))
            expect = _oracle_solve(rows, rhs, p)
            assert (sol is None and expect is None) or sol.data == expect
        if m == n:
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            expect = _oracle_solve(rows, ident, p)
            if expect is None:
                with pytest.raises(InputError, match="singular"):
                    a.inverse()
            elif ring == ZZ and any(x.denominator != 1 for row in expect for x in row):
                with pytest.raises(InputError, match="not invertible over Z"):
                    a.inverse()
            else:
                assert a.inverse().data == expect

    @pytest.mark.parametrize("case", ["prime_on_diagonal", "entry_2_31",
                                      "denominator_181_182", "dense_150x80"])
    def test_escape_gives_the_oracle_kernel(self, monkeypatch, case):
        # the four kinds of matrix on which the one-prime certificate
        # refuses: the kernel over Q comes from more primes and equals the
        # oracle's, and so does the inverse of the square one
        rng = random.Random(7)
        if case == "prime_on_diagonal":
            rows = [[int(i == j) for j in range(12)] for i in range(12)]
            rows[0][0] = MODULAR_PRIME
        elif case == "entry_2_31":
            rows = _sparse_rows(rng, 30, 25, 0.1, 4)
            rows[0][7] = 2**31
        elif case == "denominator_181_182":
            rows = [[1, 181, 0], [1, 0, 182]]
        else:
            base = [[rng.randrange(-2, 3) for _ in range(80)] for _ in range(40)]
            rows = [[x + c * y for x, y in zip(*rng.sample(base, 2))]
                    for c in (rng.randrange(-2, 3) for _ in range(150))]
        calls = _spy_escape(monkeypatch)
        a = ExactMatrix.from_rows(rows, QQ)
        assert a.kernel_basis() == _oracle_kernel(rows, len(rows[0]))
        assert len(calls) == 1
        if case == "prime_on_diagonal":
            ident = [[int(i == j) for j in range(12)] for i in range(12)]
            assert a.inverse().data == _oracle_solve(rows, ident)


class TestLatticeQuotient:
    def test_plain_cokernel(self):
        zero = ExactMatrix.zeros(0, 2, ZZ)
        image = ExactMatrix.from_rows([[2, 0], [0, 3]], ZZ)
        assert lattice_quotient(zero, image) == AbelianGroup(0, (6,))

    def test_free_part(self):
        zero = ExactMatrix.zeros(0, 3, ZZ)
        image = ExactMatrix.from_rows([[2], [0], [0]], ZZ)
        assert lattice_quotient(zero, image) == AbelianGroup(2, (2,))

    def test_prime_modulus(self):
        zero = ExactMatrix.zeros(0, 2, ZZ)
        image = ExactMatrix.from_rows([[3, 0], [0, 1]], ZZ)
        assert lattice_quotient(zero, image, modulus=3) == AbelianGroup(0, (3,))

    def test_prime_power_modulus(self):
        zero = ExactMatrix.zeros(0, 1, ZZ)
        image = ExactMatrix.from_rows([[2]], ZZ)
        assert lattice_quotient(zero, image, modulus=4) == AbelianGroup(0, (2,))

    def test_kernel_restriction(self):
        # ker(x + y) in Z^2 is spanned by (1, -1); quotient by 3*(1, -1)
        kernel_of = ExactMatrix.from_rows([[1, 1]], ZZ)
        image = ExactMatrix.from_rows([[3], [-3]], ZZ)
        assert lattice_quotient(kernel_of, image) == AbelianGroup(0, (3,))

    def test_image_outside_kernel_raises(self):
        kernel_of = ExactMatrix.from_rows([[1, 1]], ZZ)
        image = ExactMatrix.from_rows([[3], [3]], ZZ)
        with pytest.raises(ArithmeticError):
            lattice_quotient(kernel_of, image)
        with pytest.raises(ArithmeticError):
            lattice_quotient(kernel_of, image, modulus=3)

    def test_rejects_modulus_that_is_not_a_prime_power(self):
        zero = ExactMatrix.zeros(0, 1, ZZ)
        image = ExactMatrix.from_rows([[2]], ZZ)
        for q in (1, 6, 12):
            with pytest.raises(InputError):
                lattice_quotient(zero, image, modulus=q)

    def test_large_prime_modulus(self):
        q = 1_000_000_007
        zero = ExactMatrix.zeros(0, 1, ZZ)
        image = ExactMatrix.from_rows([[2]], ZZ)
        assert lattice_quotient(zero, image, modulus=q) == AbelianGroup(0, ())

    def test_square_of_large_prime_modulus(self):
        # trial division up to the smallest prime factor would take about
        # 10^9 steps on this modulus; integer roots take a few
        q = (10**9 + 7) ** 2
        zero = ExactMatrix.zeros(0, 1, ZZ)
        image = ExactMatrix.from_rows([[2]], ZZ)
        start = time.perf_counter()
        assert _is_prime_power(q)
        assert lattice_quotient(zero, image, modulus=q) == AbelianGroup(0, ())
        assert time.perf_counter() - start < 1.0

    def test_order(self):
        assert AbelianGroup(0, (2, 4)).order == 8
        assert AbelianGroup(0, ()).order == 1
        assert AbelianGroup(1, (2,)).order is None

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
           st.integers(0, 2), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_scrambled_diagonal_complex(self, r_b, r_a, extra_a, extra_c, seed):
        # Z^a --B--> Z^b --A--> Z^c built diagonal (B hits the first r_b
        # coordinates with a factor chain e, A the next r_a with a chain f),
        # then scrambled by unimodular changes of basis on all three
        # lattices.  The quotient is known from the construction alone.
        rng = random.Random(seed)
        free = rng.randrange(0, 3)
        b = r_b + r_a + free
        a, c = r_b + extra_a, r_a + extra_c

        def chain(k):
            out = []
            for _ in range(k):
                step = rng.choice((1, 1, 2, 3, 4, 6))
                out.append(step if not out else out[-1] * step)
            return out

        e, f = chain(r_b), chain(r_a)
        diag_b = [[e[i] if i == j and i < r_b else 0 for j in range(a)]
                  for i in range(b)]
        diag_a = [[f[k] if k < r_a and j == r_b + k else 0 for j in range(b)]
                  for k in range(c)]

        def unimodular(n):
            if n == 0:
                return ExactMatrix(0, 0, ZZ)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            return ExactMatrix.from_rows(_random_unimodular_scramble(ident, rng),
                                         ZZ)

        p, q_a, q_c = unimodular(b), unimodular(a), unimodular(c)
        p_inv = p.inverse() if b else p
        image = p @ ExactMatrix(b, a, ZZ, diag_b) @ q_a
        kernel_of = q_c @ ExactMatrix(c, b, ZZ, diag_a) @ p_inv
        assert lattice_quotient(kernel_of, image) == AbelianGroup(
            free, tuple(x for x in e if x != 1))
        for q in (2, 3, 4, 9):
            orders = sorted([q] * free + [gcd(x, q) for x in e + f])
            assert lattice_quotient(kernel_of, image, q) == AbelianGroup(
                0, tuple(x for x in orders if x != 1))


def _product_is_zero(a_rows, b_rows):
    """Whether the integer matrices a_rows @ b_rows multiply to zero, by
    Python int arithmetic on the dense rows."""
    return all(sum(x * b_rows[k][j] for k, x in enumerate(row)) == 0
               for row in a_rows for j in range(len(b_rows[0])))


class TestZeroProduct:
    # A @ B = 0 is tested as a product that stores no entry; lattice_quotient
    # refuses an image outside the kernel through that same test

    def test_agrees_with_product(self):
        a = ExactMatrix.from_rows([[1, 1, 0], [0, 2, -2]], ZZ)
        inside = ExactMatrix.from_rows([[1], [-1], [-1]], ZZ)
        outside = ExactMatrix.from_rows([[1], [1], [1]], ZZ)
        assert (a @ inside).is_zero() and not (a @ outside).is_zero()
        assert lattice_quotient(a, inside) == AbelianGroup(0, ())
        with pytest.raises(ArithmeticError):
            lattice_quotient(a, outside)

    def test_zero_factors(self):
        a = ExactMatrix.from_rows([[1, 1, 0], [0, 2, -2]], ZZ)
        assert (a @ ExactMatrix.zeros(3, 2, ZZ)).is_zero()
        assert lattice_quotient(a, ExactMatrix.zeros(3, 2, ZZ)) == AbelianGroup(1, ())
        assert (ExactMatrix.zeros(2, 3, ZZ) @ ExactMatrix.identity(3, ZZ)).is_zero()
        assert lattice_quotient(ExactMatrix.zeros(2, 3, ZZ),
                                ExactMatrix.identity(3, ZZ)) == AbelianGroup(0, ())

    def test_sums_past_2_63_do_not_wrap(self):
        # 2^32 * 2^32 is 0 mod 2^64, so int64 products would miss it
        a = ExactMatrix.from_rows([[2**32, 1]], ZZ)
        b = ExactMatrix.from_rows([[2**32], [0]], ZZ)
        assert not (a @ b).is_zero()
        with pytest.raises(ArithmeticError):
            lattice_quotient(a, b)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_past_the_int64_bound(self, r, t, c, data):
        # A = [P | -P] and B = [Q ; Q] multiply to PQ - PQ = 0; every entry
        # has |x| >= 2^31, so the bound on the sums passes 2^62 and the
        # product runs on Python ints.  Bumping one entry of B may break
        # the zero, which the dense rows' product decides and which
        # lattice_quotient must then refuse.
        big = st.integers(2**31, 2**40) | st.integers(-2**40, -2**31)

        def block(rows, cols):
            return data.draw(st.lists(st.lists(big, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows))

        p, q = block(r, t), block(t, c)
        a_rows = [row + [-x for x in row] for row in p]
        a = ExactMatrix.from_rows(a_rows, ZZ)
        b = ExactMatrix.from_rows(q + q, ZZ)
        assert (a @ b).is_zero()
        i, j = data.draw(st.integers(0, 2 * t - 1)), data.draw(st.integers(0, c - 1))
        rows = [row[:] for row in q + q]
        rows[i][j] += data.draw(st.sampled_from((1, -1, 2**33)))
        bumped = ExactMatrix.from_rows(rows, ZZ)
        zero = _product_is_zero(a_rows, rows)
        assert (a @ bumped).is_zero() == zero
        if not zero:
            with pytest.raises(ArithmeticError):
                lattice_quotient(a, bumped)

    def test_needs_integer_matrices(self):
        with pytest.raises(PreconditionError):
            lattice_quotient(ExactMatrix.identity(2, QQ), ExactMatrix.identity(2, QQ))
        with pytest.raises(InputError):
            lattice_quotient(ExactMatrix.identity(2, ZZ), ExactMatrix.identity(3, ZZ))
        with pytest.raises(InputError):
            ExactMatrix.identity(2, ZZ) @ ExactMatrix.identity(3, ZZ)


def _big_entries(rows, cols, bits, sign, rng):
    """A rows x cols integer matrix with entries +-(2^bits + small), about
    half of them zero, each nonzero entry negated with probability `sign`."""
    return ExactMatrix.from_rows(
        [[0 if rng.random() < 0.5 else (-1 if rng.random() < sign else 1)
          * ((1 << bits) + rng.randrange(1, 1000)) for _ in range(cols)]
         for _ in range(rows)], ZZ)


class TestProductCharge:
    @staticmethod
    def _charged(monkeypatch, product):
        """(the largest charge of `product` to the budget, its tracemalloc
        peak): a block's charge covers all that the product holds at once."""
        charged = []
        monkeypatch.setattr(linalg, "charge_budget",
                            lambda need, what: charged.append(need))
        gc.collect()
        tracemalloc.start()
        try:
            product()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return max(charged), peak

    def test_charge_covers_measured_bytes(self, monkeypatch):
        # the tracemalloc peak of a product, per byte it charges, stays
        # within 1 on int64 terms (dihedral:5 d_4 @ d_3 and d_5 @ d_4 over
        # Z and Q, summed in many blocks, densely and by sorting; a
        # diagonal times a dense block, where no two terms share a
        # position; one term a row in DENSE_CELLS_PER_TERM columns, the
        # largest dense accumulator a term may take) and on Python ints (big
        # entries, products that collide or not, of both signs); and the
        # int64 charge is near the worst case, not padded far above it
        rack = dihedral_rack(5)
        rng = random.Random(5)
        int64, objects = [], []
        for ring in (ZZ, QQ):
            d3, d4, d5 = (differential(rack, trivial_module(rack, ring), n) for n in (3, 4, 5))
            int64 += [lambda d3=d3, d4=d4: d4 @ d3, lambda d4=d4, d5=d5: d5 @ d4]
        n = 1000
        diag = np.arange(n)
        block = ExactMatrix.from_triplets(n, 20, ZZ, diag.repeat(20), np.tile(np.arange(20), n),
                                          np.full(20 * n, 5))
        diagonal = ExactMatrix.from_triplets(n, n, ZZ, diag, diag, np.full(n, -3))
        width = linalg.DENSE_CELLS_PER_TERM
        one = ExactMatrix.from_triplets(n, width, ZZ, diag, diag % width, np.full(n, 5))
        int64 += [lambda: diagonal @ block, lambda: diagonal @ one]
        for bits in (40, 70, 200, 1000):
            for sign in (0, 0.5, 1):
                a, b = (_big_entries(40, 40, bits, sign, rng) for _ in range(2))
                objects.append(lambda a=a, b=b: a @ b)
            big = ExactMatrix.from_triplets(n, n, ZZ, diag, diag,
                                            np.full(n, -(1 << bits) - 1, dtype=object))
            objects.append(lambda big=big: big @ block)
        ratios = {}
        for kind, products in (("int64", int64), ("objects", objects)):
            ratios[kind] = []
            for product in products:
                charged, peak = self._charged(monkeypatch, product)
                ratios[kind].append(peak / charged)
        assert max(ratios["int64"] + ratios["objects"]) <= 1
        assert max(ratios["int64"]) >= 0.8

    def test_product_over_the_budget_refuses(self, monkeypatch):
        # dihedral:5 d_4 @ d_3 expands 70,880 terms (7.6 MiB at
        # BYTES_PER_TERM), but in blocks of CHECK_BLOCK_BYTES that keep no
        # entry: it passes 2 MiB.  The entries that a product keeps are
        # charged as they build up: a 20000 x 20 result (400,000 entries)
        # cannot fit 4 MiB
        rack = dihedral_rack(5)
        d3, d4 = (differential(rack, trivial_module(rack, ZZ), n) for n in (3, 4))
        assert int(np.diff(d3.csr.indptr)[d4.csr.indices].sum()) == 70880
        assert 70880 * BYTES_PER_TERM > 7 << 20
        monkeypatch.setenv("RACKOH_BUDGET_MB", "2")
        assert (d4 @ d3).is_zero()
        n = 20000
        diag = np.arange(n)
        block = ExactMatrix.from_triplets(n, 20, ZZ, diag.repeat(20), np.tile(np.arange(20), n),
                                          np.full(20 * n, 5))
        diagonal = ExactMatrix.from_triplets(n, n, ZZ, diag, diag, np.full(n, -3))
        monkeypatch.setenv("RACKOH_BUDGET_MB", "4")
        with pytest.raises(ResourceError, match="product exceeds the memory budget"):
            diagonal @ block
        monkeypatch.setenv("RACKOH_BUDGET_MB", "64")
        assert diagonal @ block == ExactMatrix.from_triplets(
            n, 20, ZZ, diag.repeat(20), np.tile(np.arange(20), n), np.full(20 * n, -15))

    def test_fifth_zero_check_fits_4_mib(self, monkeypatch):
        # with the builder's charge waived, the zero check d_5 @ d_4 of
        # dihedral:5 (580,000 terms) runs within a 4 MiB budget, and its
        # tracemalloc peak stays below 4 MiB
        rack = dihedral_rack(5)
        monkeypatch.setenv("RACKOH_BUDGET_MB", "4")
        monkeypatch.setattr(cochains, "BYTES_PER_ENTRY", 1)
        d4, d5 = (differential(rack, trivial_module(rack, GF(7)), n) for n in (4, 5))
        gc.collect()
        tracemalloc.start()
        try:
            assert (d5 @ d4).is_zero()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20


def _is_prime_power_by_trial_division(q):
    if q < 2:
        return False
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


class TestPrimePower:
    @given(st.integers(-5, 10**5 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_trial_division(self, q):
        assert _is_prime_power(q) == _is_prime_power_by_trial_division(q)

    def test_high_powers(self):
        assert _is_prime_power(2**127) and _is_prime_power(3**80)
        assert _is_prime_power(2**127 - 1)
        assert not _is_prime_power(2**127 * 3) and not _is_prime_power(6**40)

    @pytest.mark.parametrize("coeff, message", [
        ("Z6", "modulus 6 is not a prime power"),
        ("Z1", "modulus must be at least 2"),
        ("Z12", "modulus 12 is not a prime power"),
    ])
    def test_coefficient_messages(self, coeff, message):
        with pytest.raises(InputError) as info:
            _parse_coefficient(coeff)
        assert str(info.value) == message

    def test_coefficient_prime_powers(self):
        assert _parse_coefficient("Z8") == ("Zq", 8)
        assert _parse_coefficient(f"Z{(10**9 + 7) ** 2}") == ("Zq", (10**9 + 7) ** 2)


class TestRings:
    def test_prime_validation(self):
        with pytest.raises(InputError):
            GF(4)
        with pytest.raises(InputError):
            GF(1)
        assert GF(7).p == 7

    def test_is_prime(self):
        assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**32)

    def test_coercion(self):
        assert GF(5).coerce(Fraction(1, 2)) == 3
        assert ZZ.coerce(Fraction(4, 2)) == 2
        with pytest.raises(InputError):
            ZZ.coerce(Fraction(1, 2))

    def test_entries_normalised(self):
        m = ExactMatrix.from_rows([[7, -1]], GF(5))
        assert m.data[0] == [2, 4]

    def test_q_coerce_keeps_fractions(self):
        x = Fraction(3, 4)
        assert QQ.coerce(x) is x
        assert type(QQ.coerce(2)) is Fraction and QQ.coerce(True) == 1
        with pytest.raises(InputError):
            QQ.coerce(0.5)

    def test_matvec_over_q_matches_fraction_formula(self):
        rng = random.Random(3)
        rows = _q_rows(rng, 5, 4, 4)
        vec = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(4)]
        out = ExactMatrix.from_rows(rows, QQ).matvec(vec)
        assert out == [sum((a * v for a, v in zip(row, vec)), Fraction(0))
                       for row in rows]
        assert all(type(x) is Fraction for x in out)


# --- sparse storage against dense Fraction arithmetic ----------------------

SPARSE_RINGS = (ZZ, QQ, GF(2), GF(7))


def _ring_values(ring):
    """Entries with many zeros: mixed denominators over Q, multiples of p
    over F_p, and sums that cancel to 0."""
    p = ring.characteristic
    if ring == QQ:
        nonzero = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    elif p:
        nonzero = st.integers(-3 * p, 3 * p)
    else:
        nonzero = st.integers(-9, 9)
    cancelled = st.builds(lambda x: x - x, nonzero)
    return st.one_of(st.just(0), cancelled, nonzero)


def _huge_values(ring):
    """Entries of 2^62 or more in absolute value; over Q also fractions
    with such numerators over powers of 2 up to 2^64 (invertible in F7)."""
    huge = st.integers(2**62, 2**70) | st.integers(-2**70, -2**62)
    if ring == QQ:
        return huge | st.builds(Fraction, huge, st.integers(0, 64).map(lambda e: 2**e))
    return huge


def _dense(ring, draw, m, n, values=None):
    row = st.lists(_ring_values(ring) if values is None else values,
                   min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


def _ref(ring, x):
    """x as an element of the ring, by plain Fraction arithmetic."""
    x = Fraction(x)
    p = ring.characteristic
    if not p:
        return x
    return x.numerator * pow(x.denominator, -1, p) % p


def _ref_rows(ring, rows):
    return [[_ref(ring, x) for x in row] for row in rows]


@st.composite
def sparse_cases(draw):
    ring = draw(st.sampled_from(SPARSE_RINGS))
    m, n, q = (draw(st.integers(0, 5)) for _ in range(3))
    values = _ring_values(ring)
    if draw(st.booleans()):
        values = st.one_of(values, _huge_values(ring))
    return ring, m, n, q, {name: _dense(ring, draw, *shape, values) for name, shape in (
        ("a", (m, n)), ("b", (n, q)), ("c", (m, q)), ("d", (m, n)),
        ("vec", (1, n)))}


class TestSparseAgainstDense:
    @given(sparse_cases())
    @settings(max_examples=120, deadline=None)
    def test_operations_match_dense_reference(self, case):
        ring, m, n, q, dense = case
        a_rows, vec = dense["a"], dense["vec"][0]
        a = ExactMatrix.from_entries(m, n, ring, {(i, j): x for i, row in enumerate(a_rows)
                                                  for j, x in enumerate(row)})
        ref = _ref_rows(ring, a_rows)
        b, c, d = (ExactMatrix(*shape, ring, dense[name]) for name, shape in
                   (("b", (n, q)), ("c", (m, q)), ("d", (m, n))))
        ref_b, ref_c, ref_d = (_ref_rows(ring, dense[name]) for name in "bcd")

        from_rows = ExactMatrix(m, n, ring, a_rows)
        assert a == from_rows and hash(a) == hash(from_rows)
        den = lcm(*[Fraction(x).denominator for row in a_rows for x in row])
        ii, jj = [i for i in range(m) for _ in range(n)], list(range(n)) * m
        nums = np.array([int(x * den) for row in a_rows for x in row], dtype=object)
        assert ExactMatrix.from_triplets(m, n, ring, ii, jj, nums, den) == a
        with pytest.raises(InputError):
            ExactMatrix.from_triplets(m + 1, n, ring, ii + [m], jj + [n],
                                      np.append(nums, 1), den)
        for bad in (0, -den):  # a matrix is over a positive denominator
            with pytest.raises(InputError):
                ExactMatrix.from_triplets(m, n, ring, ii, jj, nums, bad)
        # every constructor and operation stores equal matrices alike, so
        # they compare and hash equal: entries past 2^62 too, int64 and
        # object numerators, and Q entries over a denominator that is not
        # the lowest
        ident, zero = ExactMatrix.identity(n, ring), ExactMatrix.zeros(m, n, ring)
        for big in (1, 2**62 + 1):
            rows_b = [[x * big for x in row] for row in a_rows]
            nums_b = [int(x * den) * big for row in a_rows for x in row]
            same = [ExactMatrix(m, n, ring, rows_b),
                    ExactMatrix.from_entries(m, n, ring, {
                        (i, j): x for i, row in enumerate(rows_b) for j, x in enumerate(row)}),
                    ExactMatrix.from_triplets(m, n, ring, ii, jj,
                                              np.array(nums_b, dtype=object), den)]
            if all(abs(x) < 2**63 for x in nums_b):
                same.append(ExactMatrix.from_triplets(
                    m, n, ring, ii, jj, np.array(nums_b, dtype=np.int64), den))
            if ring == QQ:
                same.append(ExactMatrix.from_triplets(
                    m, n, ring, ii, jj, np.array([6 * x for x in nums_b], dtype=object),
                    6 * den))
            if n:
                same.append(ExactMatrix.from_columns(
                    [[row[j] for row in rows_b] for j in range(n)], ring))
            dense, dense_den = same[0].dense()
            same += [same[0] @ ident, same[0] - zero,
                     ExactMatrix.from_dense(dense, ring, dense_den)]
            for other in same:
                assert other == same[0] and hash(other) == hash(same[0])
                assert other.data == same[0].data
        assert a.data == ref and from_rows.data == ref
        dense, den = a.dense()
        assert [[Fraction(int(x), den) for x in row] for row in dense.tolist()] == ref
        for i in range(m):
            assert all(x != 0 for _, x in a.nonzeros(i))
            assert a.nonzeros(i) == [(j, x) for j, x in enumerate(ref[i]) if x]
            assert [a[i, j] for j in range(n)] == ref[i]
        assert all(x != 0 for x in a.csr.nums.tolist())
        assert [a.column(j) for j in range(n)] == [[row[j] for row in ref]
                                                   for j in range(n)]
        assert a.is_zero() == all(x == 0 for row in ref for x in row)
        assert (a == d) == (ref == ref_d)

        assert a.matvec(vec) == [
            _ref(ring, sum(x * Fraction(v) for x, v in zip(row, vec))) for row in ref]
        assert (a @ b).data == [
            [_ref(ring, sum(row[j] * ref_b[j][k] for j in range(n))) for k in range(q)]
            for row in ref]
        assert a.hstack(c).data == [r1 + r2 for r1, r2 in zip(ref, ref_c)]
        for cols in (range(n), range(0, n, 2), range(1, n, 2)):
            assert a.select_columns(list(cols)) == ExactMatrix(
                m, len(cols), ring, [[row[j] for j in cols] for row in a_rows])
        assert (a - d).data == [[_ref(ring, x - y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(ref, ref_d)]
        for target in (QQ, GF(7)) if ring in (ZZ, QQ) else ():
            assert _to_ring(a, target).data == _ref_rows(target, ref)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_canonical_top_of_the_most_negative_int64(dtype):
    # -2^63 has no int64 absolute value, yet its top is 2^63
    a, top = linalg._canonical(np.array([5, -2**63, 7], dtype=dtype))
    assert top == 2**63 and a.dtype == object and a.tolist() == [5, -2**63, 7]
    a, top = linalg._canonical(np.array([3, 1 - 2**62], dtype=dtype))
    assert top == 2**62 - 1 and a.dtype == np.int64
    assert linalg._canonical(np.array([], dtype=dtype))[1] == 0
    m = ExactMatrix.from_dense(np.array([[0, -2**63]], dtype=dtype), ZZ)
    assert m.csr.top == 2**63 and m[0, 1] == -2**63


def _nonzero_values(ring):
    """Entries that are nonzero in the ring."""
    if ring == QQ:
        return st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 6))
    p = ring.characteristic
    return st.integers(1, p - 1) if p else st.integers(1, 9) | st.integers(-9, -1)


@st.composite
def product_cases(draw):
    """Two matrices that can be multiplied: 0-row and 0-column shapes,
    empty rows, zero matrices and entries past 2^62 among them, and right
    factors that are more than half full."""
    ring = draw(st.sampled_from(SPARSE_RINGS))
    m, n, q = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 12))
    values = _ring_values(ring)
    if draw(st.booleans()):
        values = st.one_of(values, _huge_values(ring))
    left = [_dense(ring, draw, 1, n, values)[0] if draw(st.booleans()) else [0] * n
            for _ in range(m)]
    full = draw(st.booleans())
    right = _dense(ring, draw, n, q, _nonzero_values(ring) if full else values)
    if draw(st.booleans()):
        left = [[0] * n for _ in range(m)]
    return ring, m, n, q, left, right


class TestProductOracle:
    @pytest.mark.parametrize("block_bytes", [linalg.CHECK_BLOCK_BYTES, 300])
    @given(case=product_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_product(self, block_bytes, case):
        # a plain product of {(i, j): value} dicts in Fractions; blocks of
        # a few hundred bytes split every product into many, and a row's
        # terms overrun one
        ring, m, n, q, left, right = case
        a, b = ExactMatrix(m, n, ring, left), ExactMatrix(n, q, ring, right)
        entries = {}
        for i, row in enumerate(left):
            for k, x in enumerate(row):
                if x:
                    for j, y in enumerate(right[k]):
                        entries[i, j] = entries.get((i, j), 0) + Fraction(x) * Fraction(y)
        want = [[_ref(ring, entries.get((i, j), 0)) for j in range(q)] for i in range(m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "CHECK_BLOCK_BYTES", block_bytes)
            product = a @ b
        assert product.data == want
        assert product == ExactMatrix(m, q, ring, want)


@st.composite
def matvec_cases(draw):
    """A matrix with empty rows, entries past 2^62 and 0 columns among the
    shapes drawn, with a small vector and a huge one for it."""
    ring = draw(st.sampled_from(SPARSE_RINGS))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    huge = st.integers(2**62, 2**70) | st.integers(-2**70, -2**62)
    values = st.one_of(_ring_values(ring), huge)
    if ring == QQ:
        values = st.one_of(values, st.builds(Fraction, huge, st.integers(1, 2**64)))
    rows = [draw(st.lists(values, min_size=n, max_size=n))
            if draw(st.booleans()) else [0] * n for _ in range(m)]
    small = _dense(ring, draw, 1, n)[0]
    big = list(small)
    if n:
        big[draw(st.integers(0, n - 1))] = draw(huge)
    return ring, m, n, rows, small, big


class TestMatvec:
    @given(matvec_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_fraction_oracle(self, case):
        # the same matrix, so the same cached arrays, meets a small vector
        # (int64 sums) and then a huge one (Python ints)
        ring, m, n, rows, small, big = case
        a = ExactMatrix(m, n, ring, rows)
        vectors = [(small, small), (big, big)]
        if ring != QQ:
            vectors.append(([np.int64(v) for v in small], small))
        for vec, values in vectors:
            out = a.matvec(vec)
            assert out == [_ref(ring, sum((Fraction(x) * Fraction(v)
                                           for x, v in zip(row, values)), Fraction(0)))
                           for row in rows]
            assert all(type(x) is (Fraction if ring == QQ else int) for x in out)
            p = ring.characteristic
            assert not p or all(0 <= x < p for x in out)

    def test_reused_matrix_picks_the_dtype_per_call(self):
        a = ExactMatrix.from_rows([[3, 0, -2], [0, 0, 0], [1, 1, 1]], ZZ)
        assert a.matvec([1, 2, 3]) == [-3, 0, 6]
        assert a.matvec([2**80, 0, 1]) == [3 * 2**80 - 2, 0, 2**80 + 1]
        assert a.matvec([1, 2, 3]) == [-3, 0, 6]
        assert ExactMatrix(2, 0, QQ).matvec([]) == [Fraction(0)] * 2


def test_package_reads_no_dense_rows():
    """Outside linalg, ExactMatrix entries are read only through m[i, j],
    m.nonzeros(i) and the m.csr accessor, never the storage attributes."""
    offenders = []
    for path in sorted(Path(rackoh.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr in ("data", "_rows", "_flat", "_csr")]
    assert offenders == []
