"""Constructive embedding procedures with executable certificates.

greedy_embed turns the antichain-by-antichain embedding argument into code
that re-checks its own arithmetic: each step's fresh removals are checked
against the closed-form allowance, and total consumption against the
threshold, and GreedyTrace keeps the very counts checked, so a successful run
is a machine-checked instance of the bound rather than a trusted one.

Every k-interval chain is a permuted copy of the canonical one, so one path
serves every base: the greedy order reads each set on the canonical base
through the spec's bit mapping (IntervalChainSpec.canonical_mask), and a
step discards exactly the sets outside the intersection of the images so
far, together with the images themselves. The order is an integer key per
set (IntervalChainSpec.greedy_key), memoised on the spec object and filled
only for the sets a run sees, so repeated runs on one spec, such as the
lru-cached canonical ones, read each set's place once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import filterfalse, islice

from .errors import InternalExhaustion, InvalidEmbedding, PreconditionViolated
from .families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    unrelated_below_count,
)
from .posets import Embedding, Poset, check_embedding


def removal_allowance(k: int) -> int:
    """Most sets any single embedding step may discard: (3k-5) 2^(k-2)."""
    return unrelated_below_count(k)


def embedding_threshold(P: Poset, k: int) -> int:
    """Family size guaranteeing the greedy embedding succeeds:
    |P| + (h-1) (3k-5) 2^(k-2)."""
    return P.size + (P.height() - 1) * removal_allowance(k)


@dataclass(frozen=True)
class GreedyStep:
    """One antichain placement: the images chosen and the sets unusable below them."""

    layer: int
    images: tuple[Subset, ...]
    removed: tuple[Subset, ...]


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of a greedy run over the total order it used, with the
    counts greedy_embed checked: each step's fresh removals (beyond its images
    and all earlier removals) and the distinct sets used or discarded."""

    total_order: tuple[Subset, ...]
    steps: tuple[GreedyStep, ...]
    allowance: int
    threshold: int
    fresh_counts: tuple[int, ...]
    consumed: int

    def new_removals(self) -> tuple[int, ...]:
        return self.fresh_counts

    def total_consumption(self) -> int:
        return self.consumed


def greedy_embed(
    H: SetFamily, P: Poset, spec: IntervalChainSpec
) -> tuple[Embedding, GreedyTrace]:
    """Weak-embed P into a large enough subfamily H of the interval chain.

    Antichain layers are placed top-down: each takes the first still-usable
    sets in the greedy order, read on the canonical base through the spec's
    bit mapping, so every base chain takes the same path. A set stays usable
    while it is properly contained in every image so far: it lies inside the
    images' intersection and is none of them. The window precondition on
    member sizes is what caps each step's fresh discards at
    removal_allowance(k); callers outside the window should pass H through
    shift_into_interior first.

    The order sorts on IntervalChainSpec.greedy_key, an integer memoised on
    the spec object for the sets runs have looked at, and the layers are
    placed on masks; each step's fresh discards and the total consumption
    are counted and checked as the steps are taken, and the trace keeps them.
    """
    if spec.k < 2:
        raise PreconditionViolated(f"need k >= 2, got {spec.k}")
    if H.n != spec.n:
        raise PreconditionViolated("family and chain live over different ground sets")
    lo, hi = spec.embedding_window
    key_of = spec.greedy_key
    keyed = []
    for s in H:
        mask = s.mask
        try:
            keyed.append((key_of(mask), mask, s))
        except ValueError:
            raise PreconditionViolated(f"{s} is not a member of the chain") from None
        if not lo <= mask.bit_count() <= hi:
            raise PreconditionViolated(
                f"{s} has size {s.weight} outside the window [{lo}, {hi}]"
            )
    threshold = embedding_threshold(P, spec.k)
    if len(H) < threshold:
        raise PreconditionViolated(
            f"family has {len(H)} sets; the embedding needs {threshold}"
        )

    allowance = removal_allowance(spec.k)
    decomp = P.mirsky_decomposition()
    # Keys are distinct, so the sort never compares two sets.
    keyed.sort()
    _, order, ordered = zip(*keyed) if keyed else ((), (), ())
    subset = dict(zip(order, ordered)).__getitem__

    # Removals only grow (the meet shrinks, the images accumulate).
    unusable: set[int] = set()
    image_masks: set[int] = set()
    images: dict[int, int] = {}
    steps: list[GreedyStep] = []
    fresh_counts: list[int] = []
    meet = (1 << spec.n) - 1

    for i in range(len(decomp.layers), 0, -1):
        layer = decomp.layers[i - 1]
        placed = list(islice(filterfalse(unusable.__contains__, order), len(layer)))
        if len(placed) < len(layer):
            raise InternalExhaustion(
                "ran out of usable sets despite a valid threshold; this is a bug"
            )
        for elem, target in zip(sorted(layer), placed):
            images[elem] = target
            meet &= target
        image_masks.update(placed)
        removed = []
        fresh = 0
        if i >= 2:
            outside = ~meet
            removed = [m for m in order if m & outside or m in image_masks]
            grown = set(removed)
            fresh = len(grown.difference(unusable, placed))
            if fresh > allowance:
                raise InternalExhaustion(
                    f"step {i} discarded {fresh} fresh sets, over the "
                    f"allowance {allowance}; this is a bug"
                )
            unusable = grown
        fresh_counts.append(fresh)
        steps.append(
            GreedyStep(i, tuple(map(subset, placed)), tuple(map(subset, removed)))
        )

    consumed = len(unusable | image_masks)
    if consumed > threshold:
        raise InternalExhaustion(
            f"consumed {consumed} sets, over the threshold {threshold}; this is a bug"
        )
    trace = GreedyTrace(
        ordered, tuple(steps), allowance, threshold, tuple(fresh_counts), consumed
    )
    embedding = Embedding(
        "weak", "family", tuple(subset(images[e]) for e in range(P.size))
    )
    check_embedding(P, embedding)
    return embedding, trace


def shift_into_interior(fam: SetFamily, k: int) -> SetFamily:
    """Re-embed a family over [n] into [n + 4k - 4] so all sizes land in the
    window [3k-3, n + 3k - 3]: prepend 3k-3 fixed elements and shift the rest.

    Preserves containment exactly and maps interval-chain members to
    interval-chain members over the larger ground set.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    pad = 3 * k - 3
    new_n = fam.n + 4 * k - 4
    head = (1 << pad) - 1
    return SetFamily.from_masks(new_n, (head | (s.mask << pad) for s in fam))


def middle_levels_family(n: int, levels: int) -> SetFamily:
    """All subsets whose sizes fall in a centered window of the given width;
    the window starts at ceil((n - levels + 1) / 2)."""
    if not 0 <= levels <= n + 1:
        raise ValueError(f"levels={levels} outside 0..{n + 1}")
    if levels == 0:
        return SetFamily(n)
    start = (n - levels + 1 + 1) // 2
    return SetFamily.levels(n, range(start, start + levels))


@dataclass(frozen=True)
class SpanCertificate:
    """Witness that an embedded complete multilevel poset spreads across levels.

    unions[i] is the union of the images of layer i+1; consecutive unions are
    nested and each must grow by at least log2(width) elements because the
    next layer's images are distinct sets squeezed between them.
    """

    unions: tuple[Subset, ...]
    spanned_levels: int
    layer_width: int
    height: int


def span_certificate(pattern: Poset, emb: Embedding) -> SpanCertificate:
    """Compute and validate the level-span certificate for an embedding of an
    equal-width complete multilevel poset into a set family."""
    if emb.target_kind != "family":
        raise InvalidEmbedding("span certificates apply to family targets")
    check_embedding(pattern, emb)
    sizes = pattern.complete_layer_sizes()
    if sizes is None:
        raise InvalidEmbedding("pattern is not a complete multilevel poset")
    if len(set(sizes)) != 1:
        raise InvalidEmbedding(f"layers have unequal widths {sizes}")
    a, h = sizes[0], len(sizes)
    decomp = pattern.mirsky_decomposition()

    unions = [
        reduce(Subset.__or__, (emb.images[e] for e in decomp.layers[i])) for i in range(h - 1)
    ]

    sizes = [s.weight for s in emb.images]
    spanned = max(sizes) - min(sizes) + 1

    for i in range(len(unions) - 1):
        if not unions[i].issubset(unions[i + 1]):
            raise InvalidEmbedding("layer unions are not nested")
        growth = unions[i + 1].weight - unions[i].weight
        if (1 << growth) < a:
            raise InvalidEmbedding(
                f"union growth {growth} cannot host {a} distinct sets"
            )
    if h >= 2 and (1 << (spanned - 1)) < a ** (h - 2):
        raise InvalidEmbedding(
            f"spanned {spanned} levels, too few for width {a} and height {h}"
        )
    return SpanCertificate(tuple(unions), spanned, a, h)
