import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackoh.cohomology import _parse_coefficient
from rackoh.errors import InputError, PreconditionError, ResourceError
from rackoh.linalg import (GF, MODULAR_RANK_THRESHOLD, QQ, ZZ, AbelianGroup,
                           ExactMatrix, _bareiss_rank, _dense_rows,
                           _IncrementalRREF, _is_prime_power, _modular_primes,
                           _rank_mod_p, _rank_modular_crosscheck, is_prime,
                           lattice_quotient)


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


def int_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


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
        m = ExactMatrix.from_rows(rows, ZZ)
        coo = m._int_entries()
        assert (_bareiss_rank(_dense_rows(m.rows, m.cols, coo))
                == _rank_modular_crosscheck(m.rows, m.cols, coo))

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
            assert m.to_ring(GF(p)).rank() == expected

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_mod_large_prime(self, rows):
        # p >= 2^31 takes the Python-int elimination
        p = 2**61 - 1
        m = ExactMatrix.from_rows(rows, ZZ)
        assert m.to_ring(GF(p)).rank() == m.to_ring(QQ).rank()
        assert ExactMatrix.from_rows([[p, 0], [0, 1]], GF(p)).rank() == 1

    def test_modular_path_falls_back_on_bad_prime(self):
        # a diagonal of one of the scheduled primes drops rank mod that
        # prime; the cross-check must disagree and fall back to exact
        p1, p2 = _modular_primes(2, 2)
        m = ExactMatrix.from_rows([[p1, 0], [0, 1]], ZZ)
        assert _rank_modular_crosscheck(m.rows, m.cols, m._int_entries()) == 2

    def test_auto_threshold_large_matrix(self):
        rng = random.Random(7)
        rows = [[rng.randrange(-2, 3) for _ in range(80)] for _ in range(150)]
        m = ExactMatrix.from_rows(rows, ZZ)
        assert m.rows * m.cols >= 10_000
        assert m.rank() == _bareiss_rank(
            _dense_rows(m.rows, m.cols, m._int_entries()))

    def test_rational_rows_scaled_by_their_own_denominators(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 0, Fraction(1, 3)],
                                   [0, 0, 0],
                                   [0, Fraction(-5, 4), 0]], QQ)
        assert m._int_entries() == ([0, 0, 2], [0, 2, 1], [3, 2, -5])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_rank_mod_p_against_row_by_row_rref(self, seed):
        # sparse matrices at the modular threshold, about 1 % nonzero, with
        # rank deficiency forced by duplicated and summed rows; the oracle
        # is the independent row-at-a-time RREF
        rng = random.Random(seed)
        n = rng.randrange(60, 120)
        m = -(-MODULAR_RANK_THRESHOLD // n) + rng.randrange(0, 30)
        rows = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.01 else 0
                 for _ in range(n)] for _ in range(m)]
        for _ in range(m // 10):
            i, k, l = rng.sample(range(m), 3)
            rows[i] = rows[k][:]
            rows[l] = [a + b for a, b in zip(rows[l], rows[k])]
        matrix = ExactMatrix.from_rows(rows, ZZ)
        coo = matrix._int_entries()
        for p in (2, 7, _modular_primes(m, n)[0], 2**61 - 1):
            rref = _IncrementalRREF(n, p)
            for row in rows:
                rref.feed(row)
            assert _rank_mod_p(m, n, coo, p) == len(rref.pivot_cols)


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

    def test_bit_cap_enforced_on_core(self):
        # no +-1 entry, so the whole matrix reaches the dense loop
        m = ExactMatrix.from_rows([[2**10, 0], [0, 3]], ZZ)
        with pytest.raises(ResourceError):
            m.smith_normal_form(bit_cap=8)
        assert m.smith_normal_form().invariant_factors == (1, 3 * 2**10)

    @given(int_matrices())
    @settings(max_examples=50, deadline=None)
    def test_against_minors_oracle(self, rows):
        sf = ExactMatrix.from_rows(rows, ZZ).smith_normal_form()
        assert sf.invariant_factors == snf_by_minor_gcds(rows)
        for a, b in zip(sf.invariant_factors, sf.invariant_factors[1:]):
            assert b % a == 0

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
