"""Coefficient modules: a ring, a dimension, and one matrix per rack element.

A module is a right action: v -> v @ A_x on coordinate row vectors, so the
matrices must satisfy A_x A_y = A_{x|>y} A_x, the matrix shadow of the
structure-group relation.  Builders validate this compatibility and the
invertibility of every matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import InputError
from .linalg import GF, QQ, ZZ, ExactMatrix, Ring, _int_dtype, charge_budget, matrix_stack
from .racks import RackTable

TAG_TRIVIAL = "trivial"
TAG_JORDAN = "jordan"
TAG_CUSTOM = "custom"
TAG_FUNCTIONS = "functions"

# Peak bytes that the builders charge first (tracemalloc, tests/test_cli.py):
# per dimension of a trivial module's identity (48-50) or a Jordan block
# (550-660), per cell of check_module's rack.size^2 dense products (29-30).
IDENTITY_BYTES_PER_DIM = 56
JORDAN_BYTES_PER_DIM = 700
CHECK_BYTES_PER_CELL = 32


@dataclass(frozen=True)
class CoeffModule:
    ring: Ring
    dim: int
    matrices: tuple  # one invertible dim x dim ExactMatrix per rack element
    tag: str = TAG_CUSTOM
    params: tuple = ()
    # action matrix -> its inverse, filled on demand; not part of the
    # module's identity, so equality and hashing ignore it
    _inverses: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def action(self, x: int) -> ExactMatrix:
        return self.matrices[x]

    def action_inverse(self, x: int) -> ExactMatrix:
        """The inverse of element x's matrix, computed once per distinct matrix."""
        m = self.matrices[x]
        if m not in self._inverses:
            self._inverses[m] = m.inverse()
        return self._inverses[m]

    @cached_property  # the matrices never change
    def is_trivial(self) -> bool:
        ident = ExactMatrix.identity(self.dim, self.ring)
        return all(m == ident for m in self.matrices)

    def describe(self) -> dict:
        ring = {"Z": {"ring": "Z"}, "Q": {"ring": "Q"}}.get(
            self.ring.name, {"ring": "Fp", "p": getattr(self.ring, "p", None)})
        out = {"dim": self.dim, "action": {"type": self.tag}, **ring}
        if self.tag == TAG_JORDAN:
            out["action"]["t"] = str(self.params[0])
        return out


def check_module(rack: RackTable, module: CoeffModule):
    """Validate shapes, invertibility, and the structure-group relation."""
    n = rack.size
    if len(module.matrices) != n:
        raise InputError(f"module provides {len(module.matrices)} matrices "
                         f"for a rack of size {n}")
    charge_budget(CHECK_BYTES_PER_CELL * (n * module.dim) ** 2, f"the action check "
                  f"of a {module.dim}-dimensional module", "lower the module's dim")
    for x, m in enumerate(module.matrices):
        if m.rows != module.dim or m.cols != module.dim or m.ring != module.ring:
            raise InputError(f"action matrix for element {x} has the wrong shape or ring")
        module.action_inverse(x)  # raises InputError when singular
    # A_x A_y - A_(x|>y) A_x for every pair at once, over den^2
    stack, _, top = matrix_stack(module.matrices)
    a = stack.astype(_int_dtype(module.dim * top * top))
    diff = a[:, None] @ a - a[np.array(rack.table)] @ a[:, None]
    p = module.ring.characteristic
    bad = np.flatnonzero((diff % p if p else diff).reshape(n * n, -1).any(axis=1))
    if bad.size:
        raise InputError("action matrices violate A_x A_y = A_(x|>y) A_x at "
                         "({},{})".format(*divmod(int(bad[0]), n)))
    return module


def trivial_module(rack: RackTable, ring: Ring, dim: int = 1) -> CoeffModule:
    charge_budget(IDENTITY_BYTES_PER_DIM * dim, f"a {dim}-dim trivial module", "lower its dim")
    ident = ExactMatrix.identity(dim, ring)
    return CoeffModule(ring, dim, (ident,) * rack.size, TAG_TRIVIAL)


def jordan_module(rack: RackTable, t, k: int, ring: Ring = QQ) -> CoeffModule:
    """Every element acts by the same Jordan block with eigenvalue t.

    Basis convention: v_i -> t*v_i + v_{i-1} (with v_0 = 0), so for t = 1
    this is the unipotent shift-by-one action.
    """
    t = ring.coerce(Fraction(t) if not isinstance(t, (int, Fraction)) else t)
    if t == 0:
        raise InputError("jordan eigenvalue must be nonzero")
    if k < 1:
        raise InputError("jordan block size must be >= 1")
    charge_budget(JORDAN_BYTES_PER_DIM * k, f"a {k}x{k} Jordan block", "lower the module's dim")
    entries = {(i, i): t for i in range(k)}
    entries.update({(i, i - 1): 1 for i in range(1, k)})
    block = ExactMatrix.from_entries(k, k, ring, entries)
    mod = CoeffModule(ring, k, (block,) * rack.size, TAG_JORDAN, (t, k))
    return check_module(rack, mod)


def constant_module(rack: RackTable, matrix: ExactMatrix) -> CoeffModule:
    """Every element acts by the same invertible matrix."""
    if matrix.rows != matrix.cols:
        raise InputError("constant action matrix must be square")
    mod = CoeffModule(matrix.ring, matrix.rows, (matrix,) * rack.size, TAG_CUSTOM)
    return check_module(rack, mod)


def function_module(rack: RackTable, ring: Ring) -> CoeffModule:
    """Functions X -> ring with the action (h.y)(x) = h(y |> x).

    The matrices are the permutation matrices of the translations, so the
    compatibility relation is exactly self-distributivity.
    """
    n = rack.size
    # row index z = phi_y(x), column index x
    mats = tuple(ExactMatrix.from_entries(n, n, ring, {
        (rack.op(y, x), x): 1 for x in range(n)}) for y in range(n))
    return CoeffModule(ring, n, mats, TAG_FUNCTIONS)


def custom_module(rack: RackTable, ring: Ring, matrices) -> CoeffModule:
    mats = tuple(m if isinstance(m, ExactMatrix) else
                 ExactMatrix.from_rows(m, ring) for m in matrices)
    dim = mats[0].rows if mats else 0
    return check_module(rack, CoeffModule(ring, dim, mats, TAG_CUSTOM))


def tensor_with_trivial(module: CoeffModule, trivial_dim: int) -> CoeffModule:
    """Tensor A (x) N for trivial A: the action is I_A (x) A_x^N."""
    if trivial_dim == 1:
        return CoeffModule(module.ring, module.dim, module.matrices, TAG_CUSTOM)
    k = module.dim
    dim = trivial_dim * k
    mats = []
    for m in module.matrices:
        mats.append(ExactMatrix.from_entries(dim, dim, module.ring, {
            (a * k + i, a * k + j): x
            for a in range(trivial_dim) for i in range(k)
            for j, x in m.nonzeros(i)}))
    return CoeffModule(module.ring, dim, tuple(mats), TAG_CUSTOM)


def ring_from_spec(doc: dict) -> Ring:
    name = doc.get("ring")
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name == "Fp":
        if "p" not in doc:
            raise InputError("ring Fp needs a field 'p'")
        return GF(doc["p"])
    raise InputError(f"unknown ring {name!r}")


def _number(value):
    """A module-file entry: a JSON number, or a string such as "1/2"; a
    float is read as the decimal it was written as, so 0.1 is 1/10."""
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"bad number {value!r} in the module file")


def module_from_spec(rack: RackTable, doc: dict) -> CoeffModule:
    """Parse the module JSON: ring, dim, action type trivial|jordan|custom."""
    if not isinstance(doc, dict):
        raise InputError("module JSON must be an object")
    ring = ring_from_spec(doc)
    dim = doc.get("dim", 1)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError("module dim must be a non-negative integer")
    action = doc.get("action", {"type": "trivial"})
    if not isinstance(action, dict):
        raise InputError("module 'action' must be an object")
    kind = action.get("type", "trivial")
    if kind == "trivial":
        return trivial_module(rack, ring, dim)
    if kind == "jordan":
        return jordan_module(rack, _number(action.get("t", 1)), dim, ring)
    if kind == "custom":
        matrices = action.get("matrices")
        if not isinstance(matrices, list) or not all(
                isinstance(mat, list) and all(isinstance(row, list) for row in mat)
                for mat in matrices):
            raise InputError("custom action needs 'matrices', a list of "
                             "matrices given as lists of rows")
        size = len(matrices[0]) if matrices else 0
        if "dim" in doc and size != dim:
            raise InputError(f"module dim {dim} does not match its {size}x{size} matrices")
        parsed = [[[_number(v) for v in row] for row in mat] for mat in matrices]
        return custom_module(rack, ring, parsed)
    raise InputError(f"unknown action type {kind!r}")
