"""Oracle-relativized propositional calculus and its quantified extension:
evaluation, satisfiability, sequent proofs with a strict checker,
automatic provers with size accounting, and a compiler from
nondeterministic Turing machines to linear-size universally quantified
formulas."""

from .formulas import (
    And,
    Atom,
    CaptureError,
    Const,
    Exists,
    FALSE,
    Forall,
    Formula,
    Not,
    Or,
    QuantifiedCostError,
    RApp,
    Sequent,
    TRUE,
    cost,
    cost_sequent,
    free_atoms,
    iff,
    implies,
    is_quantifier_free,
    quantifier_depth,
    substitute,
)
from .syntax import (
    ParseError,
    format_formula,
    format_sequent,
    length,
    parse_entry,
    parse_formula,
    parse_sequent,
    sequent_length,
)
from .semantics import (
    BUDGET_EXCEEDED,
    SAT,
    UNSAT,
    Pi1Result,
    SolverLimits,
    Structure,
    UnassignedAtomError,
    eval_formula,
    sat_pc,
    sat_pi1,
    sequent_valid,
    valid_pc,
)
from .proofs import (
    CheckError,
    Proof,
    check_g,
    check_pk,
    counted_size,
    derive_scheme,
    dump_proof,
    load_proof,
    max_line_length,
)
from .prover import ProveResult, ProverStats, prove
from .gprover import gprove
from .machines import MachineSpec, Run, load_machine, normalize_machine, simulate
from .tableau import (
    EncodingParams,
    build_E,
    build_I,
    build_S,
    compile_machine,
    compile_with_info,
    witness_structure,
)
from .families import weak_pigeonhole

__version__ = "0.1.0"
