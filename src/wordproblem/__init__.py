"""Decision procedures around the word problem for groups and semigroups:
free-group word algebra, the length-reducing solver with small-cancellation
certificates, string and tree rewriting with bounded equivalence search,
repetition-free sequences, coset enumeration with Cayley graphs, and the
reduction from Turing machines to directed rewriting."""

from .words import (
    GenLetter,
    Word,
    concat,
    cyclic_reduce,
    exponent_vector,
    format_word,
    free_reduce,
    invert,
    parse_word,
)
from .presentations import (
    GroupPresentation,
    SemigroupPresentation,
    SymmetrizedRelators,
    catalog,
    max_piece_ratio,
    symmetrize,
)
from .dehn import DehnOutcome, Verdict, dehn_solve, dehn_step
from .rewriting import (
    RewriteSystem,
    SystemKind,
    apply_rule,
    search_equivalence,
    successors,
    thue_closure,
)
from .search import DerivationTrace, SearchOutcome, SearchStats, SearchStatus
from .terms import (
    Leaf,
    Node,
    TreeRule,
    apply_tree_rule,
    match_subst,
    search_tree_equivalence,
)
from .sequences import (
    Morphism,
    fixed_point_prefix,
    is_power_free,
    square_free_ternary_prefix,
    thue_morse_prefix,
)
from .cayley import (
    CayleyGraph,
    CosetTable,
    estimate_delta,
    geodesic_distance,
    to_cayley_graph,
    todd_coxeter,
    word_problem_finite,
)
from .reductions import TuringMachine, encode, tm_run, verify_simulation
