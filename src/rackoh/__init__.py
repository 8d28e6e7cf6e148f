"""rackoh: exact-arithmetic cohomology workbench for finite racks."""

from .errors import InputError, PreconditionError, RackohError, ResourceError
from .linalg import (GF, QQ, ZZ, AbelianGroup, ExactMatrix, PrimeField,
                     SmithForm, lattice_quotient)
from .racks import (OrbitPartition, RackTable, conjugation_rack, cyclic_rack,
                    dihedral_rack, is_quandle, make_semidirect, orbits,
                    rack_from_json, rack_to_json, symmetric_group_table,
                    trivial_rack, verify_rack, verify_yang_baxter)
from .permutations import FiniteGroup, group_closure, inner_group
from .modules import (CoeffModule, constant_module, custom_module,
                      function_module, jordan_module, module_from_spec,
                      trivial_module)
from .cochains import (CochainSpace, averaging_projector,
                       chain_isomorphism, cochain_product, cochain_space,
                       differential, differential_prime, finite_action_group,
                       group_action_on_cochains, invariant_basis, slice_first)
from .cohomology import (CohomologyReport, H2Comparison, InvariantComparison,
                         NonabelianH2, RackComplex, RackPresentation,
                         cohomology_integral, cohomology_over_field, direct_h2,
                         group_h1, h2_via_group, invariant_cohomology,
                         nonabelian_h2, same_operator_cohomology,
                         semidirect_cocycle_check, twisted_cohomology)

__version__ = "0.1.0"
