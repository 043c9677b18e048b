"""Combinatorics of forbidden subposets on the subset lattice.

The package splits into:

- families: subsets of [n], set families, interval chains, counting functions
- posets: finite strict orders, constructors, subposet embedding search
- solver: exact alpha / La / Lubell-maximum computations by branch and bound
- bounds: closed-form coefficient bounds and the exponent recursion
- embedder: greedy antichain embedding, interior shift, middle-level witnesses
- verify: the verification suites, the paper's lemmas run as checks
- cli: the subposet-lab command-line driver
"""

from .errors import (
    CycleDetected,
    GuardRefused,
    InternalExhaustion,
    InvalidEmbedding,
    InvalidParams,
    InvariantViolated,
    InvalidSpec,
    NotUniqueExtremum,
    OutOfRange,
    ParseError,
    PFreenessViolated,
    PreconditionViolated,
    SubposetLabError,
)
from .families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    apply_permutation,
    count_trailing_zero_profile,
    family_from_text,
    family_to_text,
    interval_chain,
    level_count,
    lubell,
    min_chain_partition,
    permutation_hit_count,
    permutation_hit_count_exhaustive,
    symmetric_chain_partition,
    unrelated_below,
    unrelated_below_count,
    worst_set,
)
from .posets import (
    AntichainDecomposition,
    Embedding,
    Poset,
    antichain,
    chain,
    check_embedding,
    complete_multilevel,
    diamond,
    embed_into_diamond_product,
    find_subposet,
    inclusion_poset,
    iter_subposet_embeddings,
    parse_poset_spec,
    poset_from_relations,
    product,
)
from .solver import (
    DoubleCountingReport,
    ExtremalResult,
    alpha,
    la_exact,
    lubell_max,
    verify_double_counting,
)
from .bounds import (
    BoundReport,
    InducedExponentTrace,
    best_chen_li_m,
    best_main_k,
    bound_burcsi_nagy,
    bound_chen_li,
    bound_corollary_diamond,
    bound_corollary_interval,
    bound_dk,
    bound_main,
    bound_product_composition,
    induced_exponent_chain,
    lower_bound_complete_multilevel,
    min_valid_n,
)
from .embedder import (
    GreedyStep,
    GreedyTrace,
    SpanCertificate,
    embedding_threshold,
    greedy_embed,
    middle_levels_family,
    removal_allowance,
    shift_into_interior,
    span_certificate,
)

__version__ = "0.1.0"
