"""Constructive embedding procedures with executable certificates.

greedy_embed turns the antichain-by-antichain embedding argument into code
that re-checks its own arithmetic: each step's removal count is asserted
against the closed-form allowance, and total consumption against the
threshold, so a successful run is a machine-checked instance of the bound
rather than a trusted one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalExhaustion, InvalidEmbedding, PreconditionViolated
from .families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    apply_permutation,
    unrelated_below_count,
    worst_set,
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
    """Full record of a greedy run over the total order it used."""

    total_order: tuple[Subset, ...]
    steps: tuple[GreedyStep, ...]
    allowance: int
    threshold: int

    def new_removals(self) -> tuple[int, ...]:
        """Per step, how many sets were discarded beyond the images themselves
        and everything already discarded."""
        counts = []
        prev_removed: set[int] = set()
        for step in self.steps:
            fresh = {
                s.mask
                for s in step.removed
                if s.mask not in prev_removed
                and s.mask not in {i.mask for i in step.images}
            }
            counts.append(len(fresh))
            prev_removed |= {s.mask for s in step.removed}
        return tuple(counts)

    def total_consumption(self) -> int:
        """Distinct sets either used as images or discarded along the way."""
        seen: set[int] = set()
        for step in self.steps:
            seen |= {s.mask for s in step.images}
            seen |= {s.mask for s in step.removed}
        return len(seen)


def _greedy_order(H: SetFamily, spec: IntervalChainSpec) -> list[Subset]:
    """Decreasing size; within a size the worst set goes last, others by
    indicator order."""
    worst_masks = {
        worst_set(spec, m).mask
        for m in {s.weight for s in H}
        if spec.k <= m <= spec.n - 1
    }

    def key(s: Subset):
        return (-s.weight, 1 if s.mask in worst_masks else 0, s.indicator())

    return sorted(H, key=key)


def greedy_embed(
    H: SetFamily, P: Poset, spec: IntervalChainSpec
) -> tuple[Embedding, GreedyTrace]:
    """Weak-embed P into a large enough subfamily H of the interval chain.

    Antichain layers are placed top-down: each takes the first still-usable
    sets in the greedy order, then everything not properly contained in all
    images so far becomes unusable. The window precondition on member sizes
    is what caps each step's fresh discards at removal_allowance(k); callers
    outside the window should pass H through shift_into_interior first.
    """
    if spec.k < 2:
        raise PreconditionViolated(f"need k >= 2, got {spec.k}")
    if H.n != spec.n:
        raise PreconditionViolated("family and chain live over different ground sets")
    if not spec.is_canonical:
        # Conjugate to the canonical base, embed there, carry images back.
        perm = spec.base_permutation()
        canon = IntervalChainSpec.canonical(spec.n, spec.k)
        emb, trace = greedy_embed(apply_permutation(H, perm), P, canon)
        inverse = [0] * spec.n
        for i, img in enumerate(perm):
            inverse[img - 1] = i + 1
        back = lambda s: s.permuted(inverse)  # noqa: E731
        emb_back = Embedding(emb.mode, emb.target_kind, tuple(back(s) for s in emb.images))
        trace_back = GreedyTrace(
            tuple(back(s) for s in trace.total_order),
            tuple(
                GreedyStep(
                    st.layer,
                    tuple(back(s) for s in st.images),
                    tuple(back(s) for s in st.removed),
                )
                for st in trace.steps
            ),
            trace.allowance,
            trace.threshold,
        )
        return emb_back, trace_back

    lo, hi = spec.embedding_window
    for s in H:
        if not spec.contains(s):
            raise PreconditionViolated(f"{s} is not a member of the chain")
        if not lo <= s.weight <= hi:
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
    h = len(decomp.layers)
    ordered = _greedy_order(H, spec)

    unusable: set[int] = set()
    steps: list[GreedyStep] = []
    images: dict[int, Subset] = {}
    chosen_all: list[Subset] = []

    for i in range(h, 0, -1):
        layer = decomp.layers[i - 1]
        available = [s for s in ordered if s.mask not in unusable]
        if len(available) < len(layer):
            raise InternalExhaustion(
                "ran out of usable sets despite a valid threshold; this is a bug"
            )
        placed = available[: len(layer)]
        for elem, target in zip(sorted(layer), placed):
            images[elem] = target
        chosen_all.extend(placed)
        if i >= 2:
            removed = [
                s
                for s in ordered
                if any(not s.is_proper_subset(t) for t in chosen_all)
            ]
            fresh = [
                s
                for s in removed
                if s.mask not in unusable
                and all(s.mask != t.mask for t in placed)
            ]
            if len(fresh) > allowance:
                raise InternalExhaustion(
                    f"step {i} discarded {len(fresh)} fresh sets, over the "
                    f"allowance {allowance}; this is a bug"
                )
            unusable = {s.mask for s in removed}
            steps.append(GreedyStep(i, tuple(placed), tuple(removed)))
        else:
            steps.append(GreedyStep(i, tuple(placed), ()))

    trace = GreedyTrace(tuple(ordered), tuple(steps), allowance, threshold)
    if trace.total_consumption() > threshold:
        raise InternalExhaustion(
            f"consumed {trace.total_consumption()} sets, over the threshold "
            f"{threshold}; this is a bug"
        )
    embedding = Embedding("weak", "family", tuple(images[e] for e in range(P.size)))
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

    def layer_images(i: int) -> list[Subset]:
        return [emb.images[e] for e in decomp.layers[i]]

    unions = []
    for i in range(h - 1):
        u = layer_images(i)[0]
        for s in layer_images(i)[1:]:
            u = u | s
        unions.append(u)

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
