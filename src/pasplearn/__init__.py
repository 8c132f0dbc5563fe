"""Parameter learning for probabilistic answer set programs.

Programs pair probabilistic facts (independent Bernoulli choices, some
marked learnable) with normal rules.  Each total choice of facts is a
*world* whose stable models bound query probabilities from below (all
models satisfy the query) and above (some model does).  This package
computes those bounds exactly, extracts them as multilinear polynomials
in the learnable probabilities, and fits the learnable probabilities to
observed partial interpretations by likelihood maximization — either
direct box-constrained search or an EM scheme on expected fact counts.
"""

from .credal import (
    CredalBounds,
    WorldModels,
    check_consistency,
    conditional_from_joints,
    credal_conditional,
    credal_query,
    world_models,
)
from .datasets import FAMILIES, DatasetSpec, generate
from .errors import (
    CapExceeded,
    ContradictoryInterpretation,
    DuplicateProbFact,
    GenerationError,
    HeadIsProbFact,
    InconsistentWorld,
    NoLearnableFacts,
    NonGroundInterpretation,
    PaspError,
    PaspSyntaxError,
    ProbOutOfRange,
    SourceSpan,
    SpecOutOfRange,
    UndefinedConditional,
    UnsafeRule,
)
from .grounding import GroundProgram, ground
from .learning import (
    EMExpectations,
    LearnConfig,
    LearnResult,
    em_expectation,
    em_maximization,
    learn_em,
    learn_opt,
    ll_objective,
)
from .model import (
    Atom,
    Interpretation,
    Literal,
    ProbFact,
    Program,
    Query,
    Rule,
    interpretation_query,
    query_from_literals,
    world_cap,
)
from .parsing import (
    interpretations_to_text,
    parse_interpretations,
    parse_program,
    parse_query,
    program_to_text,
)
from .rng import SplitMix64
from .sympoly import (
    SymPoly,
    extract_poly,
    poly_eval,
    poly_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CapExceeded",
    "ContradictoryInterpretation",
    "CredalBounds",
    "DatasetSpec",
    "DuplicateProbFact",
    "EMExpectations",
    "FAMILIES",
    "GenerationError",
    "GroundProgram",
    "HeadIsProbFact",
    "InconsistentWorld",
    "Interpretation",
    "LearnConfig",
    "LearnResult",
    "Literal",
    "NoLearnableFacts",
    "NonGroundInterpretation",
    "PaspError",
    "PaspSyntaxError",
    "ProbFact",
    "ProbOutOfRange",
    "Program",
    "Query",
    "Rule",
    "SourceSpan",
    "SpecOutOfRange",
    "SplitMix64",
    "SymPoly",
    "UndefinedConditional",
    "UnsafeRule",
    "WorldModels",
    "check_consistency",
    "conditional_from_joints",
    "credal_conditional",
    "credal_query",
    "em_expectation",
    "em_maximization",
    "extract_poly",
    "generate",
    "ground",
    "interpretation_query",
    "interpretations_to_text",
    "learn_em",
    "learn_opt",
    "ll_objective",
    "parse_interpretations",
    "parse_program",
    "parse_query",
    "poly_eval",
    "poly_to_text",
    "program_to_text",
    "query_from_literals",
    "world_cap",
    "world_models",
]
