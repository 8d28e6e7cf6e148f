import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackoh import racks
from rackoh.errors import InputError, ResourceError
from rackoh.linalg import GF, ExactMatrix
from rackoh.modules import constant_module, trivial_module
from rackoh.racks import (AXIOM_BIJECTIVE, AXIOM_SELF_DISTRIBUTIVE, RackTable,
                          RackValidation, conjugation_rack, cyclic_group_table,
                          cyclic_rack, dihedral_rack,
                          is_quandle, make_semidirect, orbits,
                          rack_from_json, rack_to_json, symmetric_group_table,
                          trivial_rack, verify_rack, verify_yang_baxter)


class TestVerifyRack:
    def test_dihedral_3_is_valid(self):
        report = verify_rack([[(2 * x - y) % 3 for y in range(3)] for x in range(3)])
        assert report.valid

    def test_non_bijective_row_witness(self):
        report = verify_rack([[0, 0], [0, 1]])
        assert not report.valid
        assert report.witness(AXIOM_BIJECTIVE) == (0,)

    def test_self_distributivity_witness(self):
        # phi_0 = id, phi_1 = swap: fails at (1, 0, 0)
        report = verify_rack([[0, 1], [1, 0]])
        assert not report.valid
        assert report.witness(AXIOM_SELF_DISTRIBUTIVE) == (1, 0, 0)

    def test_malformed_tables_raise(self):
        with pytest.raises(InputError):
            verify_rack([[0, 1]])
        with pytest.raises(InputError):
            verify_rack([[0, 2], [1, 0]])
        with pytest.raises(InputError):
            verify_rack([])
        with pytest.raises(InputError):
            verify_rack([0, 1])
        with pytest.raises(InputError):
            verify_rack([[True, False], [0, 1]])

    def test_constructor_rejects_non_rack(self):
        with pytest.raises(InputError):
            RackTable.from_table([[0, 0], [0, 1]])

    def test_first_witness_only_per_axiom(self):
        # row 0 is constant and rows 1, 2 break self-distributivity:
        # exactly one witness is reported per axiom
        report = verify_rack([[0, 0, 0], [0, 2, 1], [0, 1, 2]])
        assert len(report.violations) == 2
        assert report.witness(AXIOM_BIJECTIVE) == (0,)
        assert report.witness(AXIOM_SELF_DISTRIBUTIVE) is not None


class TestYangBaxter:
    def test_dihedral_3(self):
        assert verify_yang_baxter(dihedral_rack(3))

    def test_trivial_4(self):
        assert verify_yang_baxter(trivial_rack(4))

    def test_cyclic_3(self):
        assert verify_yang_baxter(cyclic_rack(3))

    def test_whole_corpus(self, corpus_list):
        for _, rack in corpus_list:
            assert verify_yang_baxter(rack)


class TestStandardRacks:
    def test_trivial_rows_are_identity(self):
        rack = trivial_rack(3)
        assert all(rack.table[x] == (0, 1, 2) for x in range(3))

    def test_dihedral_formula(self):
        rack = dihedral_rack(3)
        for x in range(3):
            for y in range(3):
                assert rack.op(x, y) == (2 * x - y) % 3

    def test_conjugation_s3(self):
        rack = conjugation_rack(symmetric_group_table(3))
        assert rack.size == 6
        part = orbits(rack)
        assert part.orbit_count == 3
        assert sorted(len(c) for c in part.classes()) == [1, 2, 3]

    def test_conjugation_is_quandle(self):
        for table in (symmetric_group_table(3), [[(a + b) % 4 for b in range(4)]
                                                 for a in range(4)]):
            assert is_quandle(conjugation_rack(table))

    def test_conjugation_subset_must_close(self):
        s3 = symmetric_group_table(3)
        # elements 1, 2 are two of the three transpositions; conjugation by a
        # 3-cycle maps them to the third, so the subset is not closed
        with pytest.raises(InputError):
            conjugation_rack(s3, subset=[1, 2])
        # the full transposition class is closed
        classes = orbits(conjugation_rack(s3)).classes()
        transpositions = next(c for c in classes if len(c) == 3)
        sub = conjugation_rack(s3, subset=transpositions)
        assert sub.size == 3

    def test_quandle_flags(self):
        assert is_quandle(dihedral_rack(3))
        assert not is_quandle(cyclic_rack(3))
        assert is_quandle(trivial_rack(2))

    def test_table_charge_covers_measured_bytes(self, monkeypatch):
        # the tracemalloc peak of each formula table, its axioms skipped
        # (O(n^3) steps), against BYTES_PER_CELL per cell; at n = 500 half
        # the entries are ints past the small-int cache
        monkeypatch.setattr(racks, "verify_rack", lambda table: RackValidation(True, ()))
        for n in (100, 500):
            for build in (trivial_rack, dihedral_rack, cyclic_rack, cyclic_group_table):
                gc.collect()
                tracemalloc.start()
                try:
                    build(n)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= racks.BYTES_PER_CELL * n * n

    def test_table_is_charged_before_it_is_built(self, monkeypatch):
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        assert trivial_rack(140).size == 140  # 0.9 MiB charged
        for build in (trivial_rack, dihedral_rack, cyclic_rack, cyclic_group_table):
            with pytest.raises(ResourceError, match="150x150 table"):
                build(150)


class TestOrbits:
    def test_trivial_singletons(self):
        part = orbits(trivial_rack(3))
        assert part.orbit_count == 3
        assert part.orbit_of == (0, 1, 2)

    def test_dihedral_3_connected(self):
        assert orbits(dihedral_rack(3)).orbit_count == 1

    def test_dihedral_even_splits(self):
        part = orbits(dihedral_rack(4))
        assert part.orbit_count == 2
        assert part.orbit_of[0] == part.orbit_of[2]
        assert part.orbit_of[1] == part.orbit_of[3]

    def test_partition_closed_under_action(self, corpus_list):
        for _, rack in corpus_list:
            part = orbits(rack)
            assert sorted(set(part.orbit_of)) == list(range(part.orbit_count))
            for y in range(rack.size):
                for x in range(rack.size):
                    assert part.orbit_of[x] == part.orbit_of[rack.op(y, x)]

    @given(st.permutations(list(range(6))))
    @settings(max_examples=25, deadline=None)
    def test_orbit_count_invariant_under_relabelling(self, sigma):
        rack = conjugation_rack(symmetric_group_table(3))
        relabelled = [[sigma[rack.op(sigma.index(x), sigma.index(y))]
                       for y in range(6)] for x in range(6)]
        assert orbits(RackTable.from_table(relabelled)).orbit_count == 3


class TestSemidirect:
    def test_trivial_rack_with_z2(self):
        t1 = trivial_rack(1)
        sd = make_semidirect(t1, trivial_module(t1, GF(2)))
        assert sd == trivial_rack(2)

    def test_dihedral_3_with_f3_sign_action(self):
        d3 = dihedral_rack(3)
        module = constant_module(d3, ExactMatrix.from_rows([[-1]], GF(3)))
        sd = make_semidirect(d3, module)
        assert sd.size == 9
        assert verify_yang_baxter(sd)

    def test_zero_module_keeps_rack(self):
        d3 = dihedral_rack(3)
        sd = make_semidirect(d3, trivial_module(d3, GF(2), dim=0))
        assert sd == d3

    def test_projection_is_homomorphism(self):
        d3 = dihedral_rack(3)
        module = constant_module(d3, ExactMatrix.from_rows([[-1]], GF(3)))
        sd = make_semidirect(d3, module)
        block = sd.size // d3.size
        for i in range(sd.size):
            for j in range(sd.size):
                assert sd.op(i, j) // block == d3.op(i // block, j // block)

    def test_needs_finite_field_module(self):
        from rackoh.linalg import QQ
        d3 = dihedral_rack(3)
        with pytest.raises(InputError):
            make_semidirect(d3, trivial_module(d3, QQ))


class TestJson:
    def test_round_trip_is_byte_identical(self):
        rack = dihedral_rack(4)
        doc = rack_to_json(rack, labels=["a", "b", "c", "d"])
        text = json.dumps(doc, indent=2, sort_keys=True)
        rack2, labels = rack_from_json(json.loads(text))
        assert rack2 == rack and labels == ["a", "b", "c", "d"]
        assert json.dumps(rack_to_json(rack2, labels), indent=2,
                          sort_keys=True) == text

    def test_bad_documents(self):
        with pytest.raises(InputError):
            rack_from_json({"size": 2})
        with pytest.raises(InputError):
            rack_from_json({"size": 3, "table": [[0, 1], [1, 0]]})
        with pytest.raises(InputError):
            rack_from_json({"table": [[1, 0], [1, 0]], "labels": ["x"]})
