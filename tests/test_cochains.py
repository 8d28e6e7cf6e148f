import gc
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackoh import cochains
from rackoh.cochains import (apply_rack_element, apply_rack_element_columns,
                             averaging_projector, chain_isomorphism,
                             cochain_product, cochain_product_columns,
                             cochain_space, differential, differential_prime,
                             finite_action_group, group_action_on_cochains,
                             invariant_basis, invariant_columns,
                             is_invariant_cochain, slice_first,
                             slice_first_columns)
from rackoh.cohomology import RackComplex, RackPresentation, _h1_matrices
from rackoh.errors import InputError, PreconditionError, ResourceError
from rackoh.linalg import GF, QQ, ZZ, ExactMatrix, int_vector
from rackoh.modules import (CoeffModule, check_module, constant_module, custom_module,
                            function_module, jordan_module, module_from_spec,
                            tensor_with_trivial, trivial_module)
from rackoh.racks import (conjugation_rack, cyclic_rack, dihedral_rack,
                          symmetric_group_table, trivial_rack)

from conftest import INNER_ORDERS, corpus, orbit_indicator_cocycle, relabelled


def rand_vec(rng, dim, ring=None, lo=-6, hi=6):
    vals = [rng.randrange(lo, hi + 1) for _ in range(dim)]
    if ring is None:
        return vals
    return [ring.coerce(v) for v in vals]


class TestModules:
    def test_compatibility_enforced(self):
        d3 = dihedral_rack(3)
        # one element acting by 2 and the rest trivially breaks the relation
        mats = [ExactMatrix.from_rows([[2 if x == 0 else 1]], QQ)
                for x in range(3)]
        from rackoh.errors import InputError
        from rackoh.modules import CoeffModule
        with pytest.raises(InputError):
            check_module(d3, CoeffModule(QQ, 1, tuple(mats)))

    def test_one_matrix_for_every_element_makes_no_relation_products(self, monkeypatch):
        # with A_x = A for every x the relation reads A A = A A
        d3 = dihedral_rack(3)
        products = []
        matmul = ExactMatrix.__matmul__

        def counted(a, b):
            products.append((a.rows, b.cols))
            return matmul(a, b)

        monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
        constant_module(d3, ExactMatrix.from_rows([[1, 1], [0, 1]], QQ))
        jordan_module(d3, 2, 2)
        assert products == []
        with pytest.raises(InputError):  # the invertibility check stays
            constant_module(d3, ExactMatrix.from_rows([[1, 1], [1, 1]], QQ))

    def test_two_matrices_that_break_the_relation_are_refused(self):
        # on the trivial rack the relation says the matrices commute
        swap, shear = [[0, 1], [1, 0]], [[1, 1], [0, 1]]
        with pytest.raises(InputError):
            custom_module(trivial_rack(2), QQ, [swap, shear])
        custom_module(trivial_rack(2), QQ, [shear, shear])

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=["Z", "Q", "F5"])
    def test_relation_check_matches_pairwise_products(self, ring):
        # the batched relation check against the product-by-product loop,
        # first failing pair in row-major order; one triangular matrix for
        # every element but at most one, entries up to 2^40 past the int64
        # bound
        rng = random.Random(11)
        rack = conjugation_rack(symmetric_group_table(3))
        unit = (1, -1) if ring == ZZ else (1, 2, Fraction(1, 2))

        def triangular():
            top = rng.choice([3, 2**40])
            return ExactMatrix.from_rows([[rng.choice(unit), rng.randint(-top, top)],
                                          [0, rng.choice(unit)]], ring)

        for _ in range(12):
            mats = [triangular()] * rack.size
            if rng.random() < 0.75:
                mats[rng.randrange(rack.size)] = triangular()
            bad = next(((x, y) for x in range(rack.size) for y in range(rack.size)
                        if mats[x] @ mats[y] != mats[rack.op(x, y)] @ mats[x]), None)
            module = CoeffModule(ring, 2, tuple(mats))
            if bad is None:
                assert check_module(rack, module) is module
            else:
                with pytest.raises(InputError, match=re.escape(f"at ({bad[0]},{bad[1]})")):
                    check_module(rack, module)

    def test_function_module_matrices_are_translations(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        for y in range(3):
            m = fun.action(y)
            for x in range(3):
                col = [m[z, x] for z in range(3)]
                assert col == [1 if z == d3.op(y, x) else 0 for z in range(3)]

    def test_jordan_shape(self):
        d3 = dihedral_rack(3)
        j = jordan_module(d3, Fraction(1, 2), 3)
        m = j.action(0)
        assert m[0, 0] == Fraction(1, 2)
        assert m[1, 0] == 1 and m[2, 1] == 1
        assert m[0, 1] == 0

    def test_module_file_floats_read_as_written(self):
        # a JSON float is the decimal it spells: 0.1 is 1/10, not the
        # binary fraction nearest to it, and 2.0 and -1.0 are integers
        d3 = dihedral_rack(3)
        jordan = module_from_spec(d3, {"ring": "Q", "dim": 2,
                                       "action": {"type": "jordan", "t": 0.1}})
        assert jordan.action(0)[0, 0] == Fraction(1, 10)
        assert jordan.describe()["action"]["t"] == "1/10"
        for ring, entry in (("Q", 2.0), ("Z", -1.0)):
            custom = module_from_spec(d3, {"ring": ring, "action": {
                "type": "custom", "matrices": [[[entry]]] * 3}})
            assert custom.action(0)[0, 0] == int(entry)


def _unflat(space, flat):
    """The (tuple, module index) of a flat cochain coordinate: the inverse
    of CochainSpace.flat."""
    j = flat % space.module.dim
    idx = flat // space.module.dim
    xs = []
    for _ in range(space.degree):
        xs.append(idx % space.rack.size)
        idx //= space.rack.size
    return tuple(reversed(xs)), j


class TestCochainSpace:
    def test_dimensions(self):
        d3 = dihedral_rack(3)
        j2 = jordan_module(d3, 1, 2)
        assert cochain_space(d3, j2, 0).dimension == 2
        assert cochain_space(d3, j2, 2).dimension == 18

    def test_memory_budget_guard(self, monkeypatch):
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        d6 = dihedral_rack(6)
        with pytest.raises(ResourceError):
            differential(d6, trivial_module(d6, ZZ), 3)

    def test_guard_charge_covers_measured_bytes(self, monkeypatch):
        # the tracemalloc peak of building each kind of guarded matrix (the
        # builder's current row plus the stored rows), per entry the guard
        # charges (summed over the matrices one build makes), must stay
        # within BYTES_PER_ENTRY; and the constant must be near the worst
        # case, not padded far above it
        charged = []
        guard = cochains._guard
        monkeypatch.setattr(cochains, "_guard", lambda rows, cols, per_row: (
            charged.append(rows * min(per_row, cols)), guard(rows, cols, per_row)))
        d5, d6 = dihedral_rack(5), dihedral_rack(6)
        jordan = jordan_module(d5, Fraction(1, 2), 2)
        fun = function_module(d5, QQ)
        group = finite_action_group(d5, fun)
        fun7 = function_module(d5, GF(7))
        group7 = finite_action_group(d5, fun7)
        builds = [lambda ring=ring: differential(d6, trivial_module(d6, ring), 3)
                  for ring in (ZZ, QQ, GF(7))]
        builds += [lambda: differential(d5, jordan, 2),
                   lambda: differential_prime(d5, jordan, 2),
                   lambda: chain_isomorphism(d5, jordan, 3),
                   lambda: chain_isomorphism(d6, trivial_module(d6, QQ), 3),
                   lambda: group_action_on_cochains(d6, trivial_module(d6, QQ), 3, 1),
                   lambda: group_action_on_cochains(d5, fun, 2, 1),
                   lambda: averaging_projector(d5, fun, 2, group),
                   lambda: averaging_projector(d5, fun7, 2, group7),
                   lambda: cochains._fixed_space_stack(d5, jordan, 2),
                   lambda: cochains._fixed_space_stack(d6, trivial_module(d6, QQ), 3),
                   lambda: invariant_basis(d6, trivial_module(d6, QQ), 3),
                   lambda: _h1_matrices(RackPresentation.of(d6),
                                        trivial_module(d6, ZZ)),
                   lambda: _h1_matrices(RackPresentation.of(d5), fun)]
        per_entry = []
        for build in builds:
            before = len(charged)
            gc.collect()
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_entry.append(peak / sum(charged[before:]))
        assert max(per_entry) <= cochains.BYTES_PER_ENTRY
        assert max(per_entry) >= 0.8 * cochains.BYTES_PER_ENTRY

    def test_flat_round_trip(self):
        d3 = dihedral_rack(3)
        j2 = jordan_module(d3, 1, 2)
        space = cochain_space(d3, j2, 3)
        flat = space.flat((2, 0, 1), 1)
        assert _unflat(space, flat) == ((2, 0, 1), 1)


class TestDifferential:
    def test_degree0_trivial_is_zero(self):
        d3 = dihedral_rack(3)
        assert differential(d3, trivial_module(d3, ZZ), 0).is_zero()

    def test_degree1_trivial_formula(self):
        # df(x1, x2) = f(x2) - f(x1 |> x2) under a trivial action
        d3 = dihedral_rack(3)
        d1 = differential(d3, trivial_module(d3, ZZ), 1)
        assert (d1.rows, d1.cols) == (9, 3)
        for x1 in range(3):
            for x2 in range(3):
                row = [d1[x1 * 3 + x2, j] for j in range(3)]
                expect = [0, 0, 0]
                expect[x2] += 1
                expect[(2 * x1 - x2) % 3] -= 1
                assert row == expect

    def test_indicator_image(self):
        # the image of the indicator of element 0 tabulated from the formula
        d3 = dihedral_rack(3)
        d1 = differential(d3, trivial_module(d3, ZZ), 1)
        image = d1.matvec([1, 0, 0])
        expect = [(1 if x2 == 0 else 0) - (1 if (2 * x1 - x2) % 3 == 0 else 0)
                  for x1 in range(3) for x2 in range(3)]
        assert image == expect

    def test_d_squared_zero_matrix_level(self, corpus_rack):
        spec, rack = corpus_rack
        for module in (trivial_module(rack, ZZ), jordan_module(rack, 2, 2)):
            for n in range(2):
                d_n = differential(rack, module, n)
                d_n1 = differential(rack, module, n + 1)
                assert (d_n1 @ d_n).is_zero()

    def test_nonzero_block_count(self):
        # each output row touches at most 2(n+1) module blocks
        d3 = dihedral_rack(3)
        j2 = jordan_module(d3, 2, 2)
        n = 2
        d = differential(d3, j2, n)
        for i in range(d.rows):
            blocks = {j // 2 for j, _ in d.nonzeros(i)}
            assert len(blocks) <= 2 * (n + 1)


def _reference_coboundary(rack, module, n, deleted, twisted):
    """Oracle for the two coboundary maps: every entry is summed as a ring
    value into one {(i, j): value} mapping, block by block, and the matrix
    is made by ExactMatrix.from_entries (the builder differentials had
    before their rows were summed as integers)."""
    size, k = rack.size, module.dim
    entries = {}
    ident = [[(j, 1)] for j in range(k)]
    deleted, twisted = ([ident] * size if mats is None else
                        [[m.nonzeros(j) for j in range(k)] for m in mats]
                        for mats in (deleted, twisted))

    def index(xs):
        idx = 0
        for x in xs:
            idx = idx * size + x
        return idx

    def add(row, col, block, weight):
        # weight * (the matrix whose rows are block) transposed at (row, col)
        for j, pairs in enumerate(block):
            for l, a in pairs:
                key = (row + l, col + j)
                entries[key] = entries.get(key, 0) + weight * a

    for row, ys in enumerate(product(range(size), repeat=n + 1)):
        for i in range(n + 1):
            sign = (-1) ** i
            yi = ys[i]
            w = yi
            for j in range(i - 1, -1, -1):
                w = rack.op(ys[j], w)
            add(row * k, index(ys[:i] + ys[i + 1:]) * k, deleted[w], sign)
            twist = ys[:i] + tuple(rack.op(yi, y) for y in ys[i + 1:])
            add(row * k, index(twist) * k, twisted[yi], -sign)
    return ExactMatrix.from_entries(size ** (n + 1) * k, size ** n * k,
                                    module.ring, entries)


def _lex(xs, size):
    idx = 0
    for x in xs:
        idx = idx * size + x
    return idx


def _add_matrix(entries, row, col, mat, weight=1):
    """Add weight * mat transposed at (row, col), entry by entry, into a
    {(i, j): value} mapping (how the operators below were summed before
    their rows were built as integers)."""
    for j in range(mat.rows):
        for l, a in mat.nonzeros(j):
            key = (row + l, col + j)
            entries[key] = entries.get(key, 0) + weight * a


def _reference_chain_isomorphism(rack, module, n):
    k = module.dim
    dim = rack.size ** n * k
    entries = {}
    for idx, xs in enumerate(product(range(rack.size), repeat=n)):
        prod_mat = ExactMatrix.identity(k, module.ring)
        for x in xs:
            prod_mat = prod_mat @ module.action(x)
        _add_matrix(entries, idx * k, idx * k, prod_mat.inverse())
    return ExactMatrix.from_entries(dim, dim, module.ring, entries)


def _reference_action(rack, module, n, pairs, scale=1):
    """scale times the sum of the cochain actions of the (permutation,
    matrix) pairs."""
    k = module.dim
    dim = rack.size ** n * k
    entries = {}
    for perm, mat in pairs:
        for idx, xs in enumerate(product(range(rack.size), repeat=n)):
            tgt = _lex([perm[x] for x in xs], rack.size)
            _add_matrix(entries, idx * k, tgt * k, mat)
    return ExactMatrix.from_entries(
        dim, dim, module.ring, {key: v * scale for key, v in entries.items()})


def _group_pairs(rack, module, group):
    """The (permutation, matrix) pairs of the closure's flat elements
    perm + (den,) + entries."""
    size, k = rack.size, module.dim
    return [(e[:size], ExactMatrix.from_rows(
        [[Fraction(x, e[size]) for x in e[size + 1 + i * k:size + 1 + (i + 1) * k]]
         for i in range(k)], module.ring)) for e in group]


def _reference_fixed_space_stack(rack, module, n):
    dim = rack.size ** n * module.dim
    ident = ExactMatrix.identity(dim, module.ring)
    entries = {}
    for y in range(rack.size):
        diff = _reference_action(rack, module, n, [
            (rack.translation(y), module.action(y))]) - ident
        for i in range(dim):
            for j, x in diff.nonzeros(i):
                entries[(y * dim + i, j)] = x
    return ExactMatrix.from_entries(rack.size * dim, dim, module.ring, entries)


def _reference_orbit_indicators(rack, ring, n, k):
    """Column (orbit, j) is the indicator of an orbit of n-tuples at module
    index j; orbits found by closure, numbered by their first tuple."""
    tuples = list(product(range(rack.size), repeat=n))
    labels, count = {}, 0
    for xs in tuples:
        if xs in labels:
            continue
        labels[xs] = count
        frontier = [xs]
        while frontier:
            ys = frontier.pop()
            for y in range(rack.size):
                zs = tuple(rack.op(y, z) for z in ys)
                if zs not in labels:
                    labels[zs] = count
                    frontier.append(zs)
        count += 1
    return ExactMatrix.from_entries(
        len(tuples) * k, count * k, ring,
        {(idx * k + j, labels[xs] * k + j): 1
         for idx, xs in enumerate(tuples) for j in range(k)})


def _reference_h1_matrices(presentation, module):
    n, k = presentation.size, module.dim
    ring = module.ring
    constraints = {}
    for ridx, (x, y, xy) in enumerate(presentation.relations):
        base = ridx * k
        _add_matrix(constraints, base, x * k, module.action(y))
        _add_matrix(constraints, base, xy * k, module.action(x), -1)
        for l in range(k):
            key = (base + l, y * k + l)
            constraints[key] = constraints.get(key, 0) + 1
            key = (base + l, x * k + l)
            constraints[key] = constraints.get(key, 0) - 1
    cmat = ExactMatrix.from_entries(len(presentation.relations) * k, n * k,
                                    ring, constraints)
    cob = {}
    for x in range(n):
        ax = module.action(x)
        for l in range(k):
            for j in range(k):
                v = ax[j, l] - (1 if j == l else 0)
                if v:
                    cob[(x * k + l, j)] = v
    return cmat, ExactMatrix.from_entries(n * k, k, ring, cob)


def _reference_fixed_space_dim(rack, module):
    k, ring = module.dim, module.ring
    rows = []
    for x in range(rack.size):
        a = module.action(x)
        for l in range(k):
            rows.append([a[j, l] - (1 if j == l else 0) for j in range(k)])
    return k - ExactMatrix.from_rows(rows, ring if ring.is_field else QQ).rank()


def _sign_module(rack, spec):
    """The sign character on conj:S3 (its elements are the permutations of
    range(3) in lex order), -1 for every element elsewhere."""
    if spec != "conj:S3":
        return constant_module(rack, ExactMatrix.from_rows([[-1]], QQ))
    signs = [(-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
             for p in permutations(range(3))]
    return custom_module(rack, QQ, [ExactMatrix.from_rows([[s]], QQ)
                                    for s in signs])


ORACLE_RACKS = {
    "dihedral:3": lambda: dihedral_rack(3),
    "dihedral:5": lambda: dihedral_rack(5),
    "conj:S3": lambda: conjugation_rack(symmetric_group_table(3)),
    "dihedral:4/seed 3": lambda: relabelled(dihedral_rack(4), 3),
}


class TestBuilderOracle:
    @pytest.mark.parametrize("spec", sorted(ORACLE_RACKS))
    def test_differentials_match_dict_builder(self, spec):
        # degrees 0..3; degree 3 with modules of dimension above 1 (t = 1/2
        # gives rows with denominators) only on the smallest rack, to keep
        # the oracle's Fraction sums cheap
        rack = ORACLE_RACKS[spec]()
        modules = [trivial_module(rack, ring) for ring in (ZZ, QQ, GF(2), GF(7))]
        modules += [jordan_module(rack, t, k) for t in (1, 2, Fraction(1, 2))
                    for k in (2, 3)]
        modules += [function_module(rack, QQ), _sign_module(rack, spec)]
        for module in modules:
            inverses = [module.action_inverse(x) for x in range(rack.size)]
            top = 3 if module.dim == 1 or rack.size == 3 else 2
            for n in range(top + 1):
                assert differential(rack, module, n) == _reference_coboundary(
                    rack, module, n, None, module.matrices)
                assert differential_prime(rack, module, n) == \
                    _reference_coboundary(rack, module, n, inverses, None)


    @staticmethod
    def _modules(rack, spec):
        # modules with denominators (t = 1/2) and of dimension above 1
        return [trivial_module(rack, ZZ), trivial_module(rack, GF(7), 2),
                jordan_module(rack, Fraction(1, 2), 2), jordan_module(rack, 2, 3),
                function_module(rack, QQ), _sign_module(rack, spec)]

    @staticmethod
    def _finite_modules(rack, spec, ring):
        # modules whose action group is finite, one of them with matrices
        # that have denominators over Q
        swap = [[0, Fraction(1, 2)], [2, 0]]
        return [trivial_module(rack, ring), function_module(rack, ring),
                constant_module(rack, ExactMatrix.from_rows(swap, ring))] + (
            [_sign_module(rack, spec)] if ring == QQ else [])

    @pytest.mark.parametrize("spec", sorted(ORACLE_RACKS))
    def test_chain_isomorphism_and_action_match_dict_builder(self, spec):
        rack = ORACLE_RACKS[spec]()
        for module in self._modules(rack, spec):
            for n in range(4 if module.dim == 1 else 3):
                assert chain_isomorphism(rack, module, n) == \
                    _reference_chain_isomorphism(rack, module, n)
                for y in range(rack.size):
                    assert group_action_on_cochains(rack, module, n, y) == \
                        _reference_action(rack, module, n, [
                            (rack.translation(y), module.action(y))])
                assert cochains._fixed_space_stack(rack, module, n) == \
                    _reference_fixed_space_stack(rack, module, n)

    @pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("spec", sorted(ORACLE_RACKS))
    def test_projector_and_fixed_space_basis_match_dict_builder(self, spec, ring):
        rack = ORACLE_RACKS[spec]()
        for module in self._finite_modules(rack, spec, ring):
            group = finite_action_group(rack, module)
            scale = (Fraction(1, group.order) if ring == QQ
                     else ring.inv(group.order))
            pairs = _group_pairs(rack, module, group)
            for n in range(3):
                assert averaging_projector(rack, module, n, group) == \
                    _reference_action(rack, module, n, pairs, scale)
                assert cochains._fixed_space_stack(rack, module, n) \
                    .kernel_matrix() == _reference_fixed_space_stack(rack, module, n).kernel_matrix()

    @pytest.mark.parametrize("spec", sorted(ORACLE_RACKS))
    def test_orbit_indicators_match_closure(self, spec):
        rack = ORACLE_RACKS[spec]()
        for ring, k in ((QQ, 1), (GF(7), 2)):
            for n in range(4):
                assert invariant_basis(rack, trivial_module(rack, ring, k), n) \
                    == _reference_orbit_indicators(rack, ring, n, k)

    @pytest.mark.parametrize("spec", sorted(ORACLE_RACKS))
    def test_h1_matrices_and_fixed_space_dim_match_dict_builder(self, spec):
        rack = ORACLE_RACKS[spec]()
        pres = RackPresentation.of(rack)
        for module in self._modules(rack, spec) + [trivial_module(rack, QQ, 2)]:
            assert _h1_matrices(pres, module) == \
                _reference_h1_matrices(pres, module)
            assert RackComplex(rack, module).fixed_space_dim() == \
                _reference_fixed_space_dim(rack, module)


# constant actions whose scaled entries, or their sums in an operator, pass
# int64; numpy's int64 arithmetic would wrap without an error
BIG_ENTRIES = {"2^61+1": [[2**61 + 1]], "2^40/3": [[Fraction(2**40, 3)]],
               "2^62 triangular": [[3, 2**62], [0, Fraction(1, 5)]]}


class TestEntriesPastInt64:
    @pytest.mark.parametrize("name", sorted(BIG_ENTRIES))
    def test_operators_match_dict_oracles(self, name):
        rack = dihedral_rack(3)
        module = constant_module(rack, ExactMatrix.from_rows(BIG_ENTRIES[name], QQ))
        inverses = [module.action_inverse(x) for x in range(rack.size)]
        rng = random.Random(name)
        for n in range(3):
            assert differential(rack, module, n) == _reference_coboundary(
                rack, module, n, None, module.matrices)
            assert differential_prime(rack, module, n) == _reference_coboundary(
                rack, module, n, inverses, None)
            assert chain_isomorphism(rack, module, n) == \
                _reference_chain_isomorphism(rack, module, n)
            vec = [Fraction(rng.randrange(-2**63, 2**63), rng.randrange(1, 9))
                   for _ in range(3 ** n * module.dim)]
            for y in range(rack.size):
                action = group_action_on_cochains(rack, module, n, y)
                assert action == _reference_action(
                    rack, module, n, [(rack.translation(y), module.action(y))])
                assert apply_rack_element(rack, module, n, y, vec) == \
                    action.matvec(vec)

    def test_sums_of_entries_below_the_bound_pass_int64(self):
        # each entry alone fits int64 with room to spare, but the terms that
        # meet in one entry sum to 2^63 or more: the dtype bound must count
        # the terms per entry and the weights, not only the largest entry
        big = ExactMatrix.from_rows([[2**60]], ZZ)
        m = cochains._block_rows(ZZ, 2, 1, 1, [big], 3, lambda: (0, 3, 0))
        assert [m[0, 0], m[1, 0]] == [9 * 2**60, 9 * 2**60]
        rack = dihedral_rack(3)
        unipotent = constant_module(rack, ExactMatrix.from_rows(
            [[1, 1, 1], [0, 1, 1], [0, 0, 1]], ZZ))
        vec = [2**62 - 1] * 9
        assert apply_rack_element(rack, unipotent, 1, 0, vec) == \
            group_action_on_cochains(rack, unipotent, 1, 0).matvec(vec)


SMALL_CORPUS = [(spec, rack) for spec, rack in corpus() if rack.size <= 5]


@st.composite
def small_constant_modules(draw):
    """A relabelled corpus rack of at most 5 elements and a constant module
    acting by a random invertible 2 x 2 rational matrix."""
    _, rack = draw(st.sampled_from(SMALL_CORPUS))
    rack = relabelled(rack, draw(st.integers(0, 2**16)))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    rows = draw(st.lists(st.lists(entry, min_size=2, max_size=2),
                         min_size=2, max_size=2).filter(
        lambda r: r[0][0] * r[1][1] != r[0][1] * r[1][0]))
    return rack, constant_module(rack, ExactMatrix.from_rows(rows, QQ))


class TestBuilderProperty:
    @given(small_constant_modules())
    @settings(max_examples=25, deadline=None)
    def test_differentials_match_dict_builder(self, case):
        rack, module = case
        inverses = [module.action_inverse(x) for x in range(rack.size)]
        for n in range(3):
            assert differential(rack, module, n) == _reference_coboundary(
                rack, module, n, None, module.matrices)
            assert differential_prime(rack, module, n) == _reference_coboundary(
                rack, module, n, inverses, None)


class TestDifferentialPrime:
    def test_trivial_action_matches_d(self):
        c3 = cyclic_rack(3)
        triv = trivial_module(c3, ZZ)
        for n in range(3):
            assert differential_prime(c3, triv, n) == differential(c3, triv, n)

    def test_degree0_formula(self):
        # d'f(x1) = f . x1^-1 - f
        d3 = dihedral_rack(3)
        j1 = jordan_module(d3, 2, 1)
        dp = differential_prime(d3, j1, 0)
        inv = Fraction(1, 2)
        assert dp.cols == 1
        for x1 in range(3):
            assert dp[x1, 0] == inv - 1

    def test_jordan_1_1_matches_d(self):
        d3 = dihedral_rack(3)
        j = jordan_module(d3, 1, 1)
        for n in range(3):
            assert differential_prime(d3, j, n) == differential(d3, j, n)

    def test_dprime_squared_zero(self):
        d3 = dihedral_rack(3)
        j2 = jordan_module(d3, 2, 2)
        for n in range(2):
            assert (differential_prime(d3, j2, n + 1)
                    @ differential_prime(d3, j2, n)).is_zero()


class TestChainIsomorphism:
    def test_degree0_identity(self):
        d3 = dihedral_rack(3)
        j2 = jordan_module(d3, 2, 2)
        assert chain_isomorphism(d3, j2, 0) == ExactMatrix.identity(2, QQ)

    def test_trivial_action_identity(self):
        d3 = dihedral_rack(3)
        triv = trivial_module(d3, QQ)
        for n in range(3):
            assert chain_isomorphism(d3, triv, n) == \
                ExactMatrix.identity(3 ** n, QQ)

    def test_scalar_action_diagonal(self):
        # scalar eigenvalue t: degree-2 blocks are t^-2
        d3 = dihedral_rack(3)
        j = jordan_module(d3, 2, 1)
        iso = chain_isomorphism(d3, j, 2)
        for i in range(9):
            assert iso[i, i] == Fraction(1, 4)

    def test_intertwines_differentials(self, corpus_rack):
        spec, rack = corpus_rack
        module = jordan_module(rack, 2, 2)
        for n in range(2):
            lhs = chain_isomorphism(rack, module, n + 1) @ \
                differential(rack, module, n)
            rhs = differential_prime(rack, module, n) @ \
                chain_isomorphism(rack, module, n)
            assert lhs == rhs


class TestGroupAction:
    def test_trivial_everything_identity(self):
        t3 = trivial_rack(3)
        triv = trivial_module(t3, QQ)
        for y in range(3):
            assert group_action_on_cochains(t3, triv, 2, y) == \
                ExactMatrix.identity(9, QQ)

    def test_degree1_permutation(self):
        # dihedral 3, y = 0: basis functions permuted by x -> -x mod 3
        d3 = dihedral_rack(3)
        triv = trivial_module(d3, ZZ)
        act = group_action_on_cochains(d3, triv, 1, 0)
        f = [5, 7, 11]
        assert act.matvec(f) == [f[(-x) % 3] for x in range(3)]

    def test_degree0_is_module_action(self):
        d3 = dihedral_rack(3)
        triv = trivial_module(d3, QQ)
        for y in range(3):
            assert group_action_on_cochains(d3, triv, 0, y) == \
                ExactMatrix.identity(1, QQ)

    def test_right_action_composition(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        rng = random.Random(5)
        for n in (1, 2):
            dim = 3 ** n * fun.dim
            f = rand_vec(rng, dim, QQ)
            for y in range(3):
                for z in range(3):
                    one = apply_rack_element(d3, fun, n, y, f)
                    two = apply_rack_element(d3, fun, n, z, one)
                    # f.(yz) applies the pair (perm, matrix) of the word yz
                    perm = tuple(d3.op(y, d3.op(z, i)) for i in range(3))
                    mat = fun.action(y) @ fun.action(z)
                    direct = cochains.apply_group_action_columns(
                        d3, fun, n, [(perm, mat)], [0],
                        ExactMatrix.from_columns([f], QQ)).column(0)
                    assert two == direct

    def test_action_commutes_with_d(self, corpus_rack):
        spec, rack = corpus_rack
        fun = function_module(rack, QQ)
        d1 = differential(rack, fun, 1)
        for y in range(rack.size):
            act1 = group_action_on_cochains(rack, fun, 1, y)
            act2 = group_action_on_cochains(rack, fun, 2, y)
            assert (d1 @ act1) == (act2 @ d1)


def _block_modules(rack, spec):
    return [trivial_module(rack, ZZ), trivial_module(rack, QQ),
            jordan_module(rack, 2, 2), function_module(rack, ZZ),
            _sign_module(rack, spec)]


def _block_columns(rng, ring, dim):
    """A zero column (invariant for every module), a constant one, two
    random ones (fractions over Q) and one whose entries pass 2^62."""
    def entry(lo, hi):
        x = rng.randrange(lo, hi)
        return Fraction(x, rng.randrange(1, 7)) if ring == QQ else x
    return [[0] * dim, [3] * dim, *([entry(-9, 10) for _ in range(dim)] for _ in "ab"),
            [entry(-2**70, 2**70) for _ in range(dim)]]


class TestBlocksMatchVectors:
    """Each block helper equals its vector form called column by column."""

    @staticmethod
    def _columns(block):
        return [block.column(j) for j in range(block.cols)]

    def test_action_slice_and_invariance(self, corpus_rack):
        spec, rack = corpus_rack
        rng = random.Random(f"blocks:{spec}")
        for module in _block_modules(rack, spec):
            for n in range(3):
                cols = _block_columns(rng, module.ring, rack.size ** n * module.dim)
                block = ExactMatrix.from_columns(cols, module.ring)
                ys = [rng.randrange(rack.size) for _ in cols]
                assert self._columns(apply_rack_element_columns(
                    rack, module, n, ys, block)) == [
                    apply_rack_element(rack, module, n, y, c) for y, c in zip(ys, cols)]
                if n:
                    assert self._columns(slice_first_columns(
                        rack, module, n, ys, block)) == [
                        slice_first(rack, module, n, y, c) for y, c in zip(ys, cols)]
                invariant = invariant_columns(rack, module, n, block).tolist()
                assert invariant == [is_invariant_cochain(rack, module, n, c)
                                     for c in cols]
                assert invariant[0]

    def test_product(self, corpus_rack):
        spec, rack = corpus_rack
        rng = random.Random(f"block product:{spec}")
        for module in _block_modules(rack, spec):
            triv = trivial_module(rack, module.ring, 2)
            for a, b in ((0, 1), (1, 1), (1, 0)):
                fs = _block_columns(rng, module.ring, rack.size ** a * 2)
                gs = _block_columns(rng, module.ring, rack.size ** b * module.dim)
                gs.reverse()  # the zeros meet the entries past 2^62
                f, g = (ExactMatrix.from_columns(c, module.ring) for c in (fs, gs))
                out, tensor = cochain_product_columns(rack, triv, a, f, module, b, g,
                                                      require_invariant=False)
                assert tensor.dim == 2 * module.dim
                assert self._columns(out) == [
                    cochain_product(rack, triv, a, fc, module, b, gc,
                                    require_invariant=False)[0]
                    for fc, gc in zip(fs, gs)]
                # the invariance test covers every column of g
                if all(is_invariant_cochain(rack, module, b, gc) for gc in gs):
                    assert cochain_product_columns(rack, triv, a, f, module, b,
                                                   g)[0] == out
                else:
                    with pytest.raises(PreconditionError):
                        cochain_product_columns(rack, triv, a, f, module, b, g)
                zeros = ExactMatrix.zeros(g.rows, g.cols, module.ring)
                assert cochain_product_columns(rack, triv, a, f, module, b,
                                               zeros)[0].is_zero()

    def test_blocks_are_checked(self):
        d3 = dihedral_rack(3)
        fun, zfun = function_module(d3, QQ), function_module(d3, ZZ)
        block = ExactMatrix.from_columns([[1] * 9, [2] * 9], QQ)
        with pytest.raises(InputError):  # a block over another ring
            apply_rack_element_columns(d3, zfun, 1, [0, 1], block)
        with pytest.raises(InputError):  # blocks of different widths
            cochain_product_columns(d3, trivial_module(d3, QQ), 1,
                                    ExactMatrix.from_columns([[1] * 3], QQ),
                                    fun, 1, block, require_invariant=False)
        with pytest.raises(InputError):  # an entry with no image in Z
            apply_rack_element(d3, zfun, 1, 0, [Fraction(1, 2)] * 9)


class TestCochainLengths:
    """A cochain vector of the wrong length is refused, as matvec does."""

    def _setup(self):
        d3 = dihedral_rack(3)
        return d3, trivial_module(d3, QQ), function_module(d3, QQ)

    def test_product_refuses_long_and_short_factors(self):
        d3, qm, fun = self._setup()
        f = [Fraction(1)] * 3
        for g in ([Fraction(1)] * 10, [Fraction(1)] * 8):
            # a 10-entry g once gave a 27-entry product
            with pytest.raises(InputError):
                cochain_product(d3, qm, 1, f, fun, 1, g, require_invariant=False)
            with pytest.raises(InputError):
                cochain_product(d3, qm, 1, f, fun, 1, g)
        with pytest.raises(InputError):
            cochain_product(d3, qm, 1, f + f, fun, 1, [Fraction(1)] * 9,
                            require_invariant=False)

    def test_action_refuses_long_and_short_vectors(self):
        d3, _, fun = self._setup()
        for dim in (10, 8):
            # a 10-entry vector in the 9-dimensional space once came back whole
            with pytest.raises(InputError):
                apply_rack_element(d3, fun, 1, 0, [Fraction(1)] * dim)
            with pytest.raises(InputError):
                cochains.apply_group_action_columns(
                    d3, fun, 1, [(d3.translation(1), fun.action(1))], [0],
                    ExactMatrix.from_columns([[Fraction(1)] * dim], QQ))

    def test_slice_refuses_long_and_short_vectors(self):
        d3, _, fun = self._setup()
        assert slice_first(d3, fun, 1, 2, list(range(9))) == [6, 7, 8]
        for dim in (10, 8):
            with pytest.raises(InputError):
                slice_first(d3, fun, 1, 2, list(range(dim)))


class TestFractionFormulas:
    """Over Q with fractional inputs the integer paths give the per-entry
    Fraction formula, and every entry is a Fraction."""

    def test_cochain_product(self):
        rng = random.Random(17)
        d3 = dihedral_rack(3)
        qm2 = trivial_module(d3, QQ, 2)
        fun = function_module(d3, QQ)
        for a, b in ((1, 1), (2, 1), (0, 2)):
            f = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                 for _ in range(3 ** a * 2)]
            g = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                 for _ in range(3 ** b * 3)]
            out, tensor = cochain_product(d3, qm2, a, f, fun, b, g,
                                          require_invariant=False)
            expect = [Fraction(0)] * (3 ** (a + b) * 6)
            for fa, i, gb, j in product(range(3 ** a), range(2), range(3 ** b), range(3)):
                expect[(fa * 3 ** b + gb) * 6 + i * 3 + j] = f[fa * 2 + i] * g[gb * 3 + j]
            assert out == expect and tensor.dim == 6
            assert all(type(x) is Fraction for x in out)

    def test_apply_rack_element(self):
        rng = random.Random(19)
        d3 = dihedral_rack(3)
        jm = jordan_module(d3, Fraction(2, 3), 2)
        mat = jm.action(0)
        for n in (1, 2):
            f = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                 for _ in range(3 ** n * 2)]
            for y in range(3):
                expect = []
                for xs in product(range(3), repeat=n):
                    tgt = 0
                    for x in xs:
                        tgt = tgt * 3 + d3.op(y, x)
                    expect += [sum((mat[j, l] * f[tgt * 2 + j] for j in range(2)),
                                   Fraction(0)) for l in range(2)]
                out = apply_rack_element(d3, jm, n, y, f)
                assert out == expect
                assert all(type(x) is Fraction for x in out)


class TestSliceIdentity:
    def test_dfy_identity_random(self, corpus_rack):
        spec, rack = corpus_rack
        rng = random.Random(f"dfy:{spec}")
        module = function_module(rack, QQ)
        for n in (1, 2):
            d_n = differential(rack, module, n)
            d_prev = differential(rack, module, n - 1)
            dim = rack.size ** n * module.dim
            for _ in range(5):
                f = rand_vec(rng, dim, QQ)
                y = rng.randrange(rack.size)
                lhs = d_prev.matvec(slice_first(rack, module, n, y, f))
                f_act = apply_rack_element(rack, module, n, y, f)
                df_y = slice_first(rack, module, n + 1, y, d_n.matvec(f))
                rhs = [a - b - c for a, b, c in zip(f, f_act, df_y)]
                assert lhs == rhs


class TestFiniteActionGroup:
    def test_trivial_coefficients_match_inner_group(self, corpus_rack):
        spec, rack = corpus_rack
        group = finite_action_group(rack, trivial_module(rack, QQ))
        assert group.order == INNER_ORDERS[spec]

    def test_unipotent_is_infinite(self, monkeypatch):
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        t2 = trivial_rack(2)
        with pytest.raises(ResourceError, match="group closure"):
            finite_action_group(t2, jordan_module(t2, 1, 2))

    def test_jordan_k1_t1_is_trivial_group(self):
        t2 = trivial_rack(2)
        assert finite_action_group(t2, jordan_module(t2, 1, 1)).order == 1


class TestProjector:
    def test_trivial_rack_identity(self):
        t3 = trivial_rack(3)
        p = averaging_projector(t3, trivial_module(t3, QQ), 1)
        assert p == ExactMatrix.identity(3, QQ)

    def test_idempotent_and_commutes(self):
        d3 = dihedral_rack(3)
        qm = trivial_module(d3, QQ)
        group = finite_action_group(d3, qm)
        for n in range(2):
            p_n = averaging_projector(d3, qm, n, group)
            p_n1 = averaging_projector(d3, qm, n + 1, group)
            d_n = differential(d3, qm, n)
            assert (p_n @ p_n) == p_n
            assert (p_n1 @ d_n) == (d_n @ p_n)

    def test_rank_one_on_connected_degree1(self):
        d3 = dihedral_rack(3)
        p = averaging_projector(d3, trivial_module(d3, QQ), 1)
        assert p.rank() == 1
        # image is the constants
        const = p.matvec([1, 1, 1])
        assert const == [1, 1, 1]

    def test_degree0_trivial_coefficients_identity(self, corpus_rack):
        spec, rack = corpus_rack
        p = averaging_projector(rack, trivial_module(rack, QQ), 0)
        assert p == ExactMatrix.identity(1, QQ)

    def test_characteristic_obstruction(self):
        d3 = dihedral_rack(3)
        with pytest.raises(PreconditionError):
            averaging_projector(d3, trivial_module(d3, GF(2)), 1)
        with pytest.raises(PreconditionError):
            averaging_projector(d3, trivial_module(d3, GF(3)), 1)
        # F5 is fine: 5 does not divide |G| = 6
        p = averaging_projector(d3, trivial_module(d3, GF(5)), 1)
        assert (p @ p) == p

    def test_fixes_exactly_the_fixed_space(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        n = 1
        p = averaging_projector(d3, fun, n)
        fixed = cochains._fixed_space_stack(d3, fun, n).kernel_matrix()
        # P fixes the fixed space
        assert (p @ fixed) == fixed
        # and the ranks agree, so it fixes nothing more
        assert p.rank() == fixed.cols


class TestInvariantBasis:
    def test_combinatorial_matches_projector(self, corpus_rack):
        spec, rack = corpus_rack
        qm = trivial_module(rack, QQ)
        for n in (1, 2):
            fast = invariant_basis(rack, qm, n)
            proj = averaging_projector(rack, qm, n).column_basis()
            assert fast.cols == proj.cols
            assert fast.hstack(proj).rank() == fast.cols

    def test_every_column_is_invariant(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        basis = cochains._fixed_space_stack(d3, fun, 1).kernel_matrix()
        for j in range(basis.cols):
            assert is_invariant_cochain(d3, fun, 1, basis.column(j))


class TestDegreeShift:
    """C^n(X, A) = C^(n-1)(X, Fun(X, A)) for trivial A: under the flat basis
    the reindexing is the identity, so the differentials are equal."""

    def test_differentials_agree_under_shift(self, corpus_rack):
        spec, rack = corpus_rack
        qm = trivial_module(rack, QQ)
        fun = function_module(rack, QQ)
        for n in (1, 2):
            assert differential(rack, qm, n) == differential(rack, fun, n - 1)

    def test_integer_coefficients_degree_2(self):
        d3 = dihedral_rack(3)
        zm = trivial_module(d3, ZZ)
        zfun = function_module(d3, ZZ)
        assert differential(d3, zm, 2) == differential(d3, zfun, 1)


class TestCochainProduct:
    def test_degree0_constants(self):
        d3 = dihedral_rack(3)
        qm = trivial_module(d3, QQ)
        out, tensor = cochain_product(d3, qm, 0, [Fraction(3)], qm, 0,
                                      [Fraction(5)])
        assert out == [15] and tensor.dim == 1

    def test_orbit_indicator_product(self):
        # indicators of orbits s, t multiply to the indicator of s x t
        t2 = trivial_rack(2)
        qm = trivial_module(t2, QQ)
        one_s = orbit_indicator_cocycle(t2, QQ, 0)
        one_t = orbit_indicator_cocycle(t2, QQ, 1)
        out, _ = cochain_product(t2, qm, 1, one_s, qm, 1, one_t)
        assert out == [0, 1, 0, 0]  # only (x1, x2) = (0, 1)

    def test_product_of_cocycles_is_cocycle(self):
        d3 = dihedral_rack(3)
        qm = trivial_module(d3, QQ)
        one = [Fraction(1)] * 3  # the single orbit indicator, a cocycle
        out, tensor = cochain_product(d3, qm, 1, one, qm, 1, one)
        d2 = differential(d3, tensor, 2)
        assert all(v == 0 for v in d2.matvec(out))

    def test_invariance_enforced(self):
        d3 = dihedral_rack(3)
        qm = trivial_module(d3, QQ)
        fun = function_module(d3, QQ)
        g_bad = [Fraction(i) for i in range(9)]
        assert not is_invariant_cochain(d3, fun, 1, g_bad)
        with pytest.raises(PreconditionError):
            cochain_product(d3, qm, 1, [Fraction(1)] * 3, fun, 1, g_bad)

    def test_tensor_with_one_dimensional_trivial_keeps_matrices(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        tensor = tensor_with_trivial(fun, 1)
        assert tensor.matrices == fun.matrices
        assert tensor.dim == fun.dim and tensor.tag == "custom"

    def test_product_tensor_dimension(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        g = [Fraction(1)] * 9  # constant, hence invariant
        for ka in (1, 2):
            f = [Fraction(1)] * (3 * ka)
            _, tensor = cochain_product(d3, trivial_module(d3, QQ, ka), 1, f,
                                        fun, 1, g)
            assert tensor.dim == ka * fun.dim
            assert tensor.matrices == tensor_with_trivial(fun, ka).matrices

    @staticmethod
    def _leibniz(rack, ring, f, g):
        """d(f g) == df g - f dg for degree-1 f, g with g in Fun(X, ring)."""
        triv, fun = trivial_module(rack, ring), function_module(rack, ring)
        fg, tensor = cochain_product(rack, triv, 1, f, fun, 1, g,
                                     require_invariant=False)
        dfg, _ = cochain_product(rack, triv, 2,
                                 differential(rack, triv, 1).matvec(f),
                                 fun, 1, g, require_invariant=False)
        fdg, _ = cochain_product(rack, triv, 1, f, fun, 2,
                                 differential(rack, fun, 1).matvec(g),
                                 require_invariant=False)
        lhs = differential(rack, tensor, 2).matvec(fg)
        return lhs == [a - b for a, b in zip(dfg, fdg)]

    def test_leibniz_over_q_and_its_integer_scaling(self):
        # criterion_structural runs Leibniz over Z on int_vector-scaled g;
        # the unscaled fractional g must satisfy it over Q as well
        from rackoh.cli import _leibniz_columns
        from rackoh.cohomology import RackComplex
        d3 = dihedral_rack(3)
        gbasis = cochains._fixed_space_stack(
            d3, function_module(d3, QQ), 1).kernel_matrix()
        coeffs = [Fraction(1 + i, 2 + 3 * i) for i in range(gbasis.cols)]
        g = gbasis.matvec(coeffs)
        assert any(x.denominator > 1 for x in g)
        f = [Fraction(1, 2), Fraction(-2, 3), Fraction(5)]
        assert is_invariant_cochain(d3, function_module(d3, QQ), 1, g)
        assert self._leibniz(d3, QQ, f, g)
        gi, den = int_vector(g)
        assert den > 1 and all(type(x) is int for x in gi)
        fi = [3, -4, 30]
        assert self._leibniz(d3, ZZ, fi, gi)
        g_bad = list(range(9))
        assert not is_invariant_cochain(d3, function_module(d3, ZZ), 1, g_bad)
        assert not self._leibniz(d3, ZZ, fi, g_bad)
        for ring, ff, gg, holds in ((QQ, f, g, True), (ZZ, fi, gi, True),
                                    (ZZ, fi, g_bad, False)):
            triv, fun = trivial_module(d3, ring), function_module(d3, ring)
            assert _leibniz_columns(d3, triv, RackComplex(d3, triv), fun,
                                    RackComplex(d3, fun),
                                    ExactMatrix.from_columns([ff], ring),
                                    ExactMatrix.from_columns([gg], ring),
                                    require_invariant=False) == holds

    def test_leibniz_check_tests_each_invariant_factor_once(self, monkeypatch):
        # the Leibniz check of criterion_structural forms f (x) g and
        # df (x) g from the same block of g; only the first tests it for
        # invariance, once for the whole block, and the search for a
        # non-invariant g tests each of its candidates once
        from rackoh.cli import criterion_structural
        widths = []
        check = cochains.invariant_columns

        def counted(rack, module, n, block):
            widths.append((n, block.cols))
            return check(rack, module, n, block)

        monkeypatch.setattr(cochains, "invariant_columns", counted)
        outcomes = criterion_structural([("dihedral:3", dihedral_rack(3))], trials=3)
        assert all(o.passed for o in outcomes if o.name == "leibniz_rule")
        # candidates first, inline, one column each; then the trial block
        assert widths[-1] == (1, 3)
        assert widths[:-1] and set(widths[:-1]) == {(1, 1)}
