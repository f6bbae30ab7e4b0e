"""Deep-inference proof search for a quantified pomset-style logic and
certified reachability for a process calculus with logic restriction."""

from .structures import (
    Atom, CoPar, Name, ONE, One, Par, Sdq, Seq, Structure,
    canonical_key, canonicalize, congruent, names, negate, parse_structure,
    print_structure, size,
)
from .calculus import (
    Derivation, RuleInstance, Step, check_derivation, enumerate_instances,
    is_right_context,
)
from .standardize import (
    commute_once, is_standard, seq_number, standardize,
)
from .ccsr import (
    ActionSeq, LtsNode, Process, actions_normalize, check_lts_derivation,
    is_simple_process, lts_reachable, lts_steps, parse_actions, parse_process,
    print_actions, print_process,
)
from .bridge import (
    StructureKinds, actions_to_env, classify_structure, env_to_actions,
)
from .search import (
    ReachVerdict, SearchBudget, consumes, derive, extract_lts, prove, reach,
    reduce,
)

__version__ = "0.1.0"
