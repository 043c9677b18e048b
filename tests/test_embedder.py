import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposet_lab import embedder
from subposet_lab.embedder import (
    embedding_threshold,
    greedy_embed,
    middle_levels_family,
    removal_allowance,
    shift_into_interior,
    span_certificate,
)
from subposet_lab.errors import InternalExhaustion, InvalidEmbedding, PreconditionViolated
from subposet_lab.families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    apply_permutation,
    interval_chain,
    worst_set,
)
from subposet_lab.posets import (
    Embedding,
    antichain,
    chain,
    check_embedding,
    complete_multilevel,
    diamond,
    find_subposet,
    iter_subposet_embeddings,
    parse_poset_spec,
)


def window_family(n, k):
    spec = IntervalChainSpec.canonical(n, k)
    return spec, interval_chain(spec).restrict_sizes(3 * k - 3, n - k + 1)


def reference_greedy_embed(H, P, spec):
    """greedy_embed written the direct way, as a reference: a string order
    key per run, membership through spec.contains, the layers placed on
    Subsets, and the certificate counts recounted from the finished steps,
    so comparing whole traces checks the counts greedy_embed stores."""
    if spec.k < 2:
        raise PreconditionViolated(f"need k >= 2, got {spec.k}")
    if H.n != spec.n:
        raise PreconditionViolated("family and chain live over different ground sets")
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
    canonical = IntervalChainSpec.canonical(spec.n, spec.k)
    worst_masks = {
        worst_set(canonical, m).mask
        for m in {s.weight for s in H}
        if spec.k <= m <= spec.n - 1
    }

    def key(s):
        mask = spec.canonical_mask(s.mask)
        return (-s.weight, mask in worst_masks, f"{mask:0{spec.n}b}"[::-1])

    ordered = sorted(H, key=key)
    unusable = set()
    steps = []
    images = {}
    image_masks = set()
    meet = (1 << spec.n) - 1
    for i in range(len(decomp.layers), 0, -1):
        layer = decomp.layers[i - 1]
        available = [s for s in ordered if s.mask not in unusable]
        if len(available) < len(layer):
            raise InternalExhaustion(
                "ran out of usable sets despite a valid threshold; this is a bug"
            )
        placed = available[: len(layer)]
        for elem, target in zip(sorted(layer), placed):
            images[elem] = target
            image_masks.add(target.mask)
            meet &= target.mask
        removed = []
        if i >= 2:
            removed = [s for s in ordered if s.mask & ~meet or s.mask in image_masks]
            unusable = {s.mask for s in removed}
        steps.append(embedder.GreedyStep(i, tuple(placed), tuple(removed)))
    # Recount from the steps: each step's removals beyond its own images and
    # everything removed before, and every set either placed or removed.
    fresh_counts = []
    prev_removed = set()
    for step in steps:
        removed = {s.mask for s in step.removed}
        fresh = len(removed - prev_removed - {s.mask for s in step.images})
        if fresh > allowance:
            raise InternalExhaustion(
                f"step {step.layer} discarded {fresh} fresh sets, over the "
                f"allowance {allowance}; this is a bug"
            )
        fresh_counts.append(fresh)
        prev_removed |= removed
    consumed = len({s.mask for step in steps for s in step.images + step.removed})
    if consumed > threshold:
        raise InternalExhaustion(
            f"consumed {consumed} sets, over the threshold {threshold}; this is a bug"
        )
    trace = embedder.GreedyTrace(
        tuple(ordered), tuple(steps), allowance, threshold, tuple(fresh_counts), consumed
    )
    embedding = Embedding("weak", "family", tuple(images[e] for e in range(P.size)))
    check_embedding(P, embedding)
    return embedding, trace


def outcome(run, *args):
    """A run's result, or the type and message of the error it raised."""
    try:
        return run(*args)
    except Exception as exc:  # deliberate: errors are compared, not raised
        return type(exc), str(exc)


def shuffled_base_spec(rng, n, k):
    order = list(range(n))
    rng.shuffle(order)
    base, mask = [Subset(n, 0)], 0
    for bit in order:
        mask |= 1 << bit
        base.append(Subset(n, mask))
    return IntervalChainSpec(n, k, tuple(base))


# The (k, n, pattern) cells of the certify-batch benchmark's greedy runs.
GREEDY_GRID = (
    (2, 12, "diamond:2"), (2, 16, "K:2,2,2"), (2, 20, "chain:5"),
    (3, 14, "diamond:3"), (3, 18, "K:2,3,2"), (3, 20, "chain:4"),
    (4, 20, "diamond:2"), (4, 20, "K:2,2"), (4, 20, "chain:3"),
)


class TestGreedyMatchesReference:
    @pytest.mark.parametrize("k,n,pattern_spec", GREEDY_GRID)
    def test_benchmark_cells(self, k, n, pattern_spec):
        rng = random.Random(f"{k}-{n}-{pattern_spec}")
        pattern = parse_poset_spec(pattern_spec)
        spec, window = window_family(n, k)
        threshold = embedding_threshold(pattern, k)
        for _ in range(12):
            H = SetFamily(n, rng.sample(window.sets, threshold))
            assert greedy_embed(H, pattern, spec) == reference_greedy_embed(H, pattern, spec)

    def test_random_bases(self):
        rng = random.Random(2024)
        patterns = [chain(2), chain(3), diamond(1), diamond(2), antichain(3),
                    complete_multilevel((1, 2))]
        checked = 0
        for trial in range(400):
            k = rng.randint(2, 4)
            n = rng.randint(4 * k - 4, 16)
            spec = shuffled_base_spec(rng, n, k)
            pattern = patterns[trial % len(patterns)]
            window = interval_chain(spec).restrict_sizes(*spec.embedding_window)
            threshold = embedding_threshold(pattern, k)
            if len(window) < threshold + 3:
                continue
            H = SetFamily(n, rng.sample(window.sets, threshold + rng.randrange(4)))
            assert greedy_embed(H, pattern, spec) == reference_greedy_embed(H, pattern, spec)
            checked += 1
        assert checked >= 150

    def test_fresh_and_warm_spec_objects(self):
        rng = random.Random(5)
        spec = shuffled_base_spec(rng, 14, 3)
        window = interval_chain(spec).restrict_sizes(*spec.embedding_window)
        pattern = diamond(2)
        threshold = embedding_threshold(pattern, 3)
        hosts = [SetFamily(14, rng.sample(window.sets, threshold)) for _ in range(6)]
        want = [reference_greedy_embed(H, pattern, spec) for H in hosts]
        assert [greedy_embed(H, pattern, spec) for H in hosts] == want
        assert [greedy_embed(H, pattern, spec) for H in hosts] == want
        # An equal spec built afresh starts with its own empty memo.
        fresh = IntervalChainSpec(14, 3, spec.base)
        assert fresh._greedy_keys == {}
        assert [greedy_embed(H, pattern, fresh) for H in hosts] == want

    def test_precondition_errors_match(self):
        spec, window = window_family(10, 2)
        sets = list(window)
        member_low = Subset.from_elements(10, [1])
        not_member = Subset.from_elements(10, [4, 5, 6])
        cases = [
            (SetFamily(10, sets[:2]), chain(3), spec),
            (SetFamily(10, [member_low]), chain(2), spec),
            (SetFamily(10, [not_member]), chain(2), spec),
            # The first offending set in canonical order decides the error.
            (SetFamily(10, [member_low, not_member]), chain(2), spec),
            (SetFamily(10, sets[:3] + [not_member, Subset.full(10)]), chain(2), spec),
            (SetFamily(10, sets[:2]), chain(2), IntervalChainSpec.canonical(10, 1)),
            (SetFamily(9, []), chain(2), spec),
        ]
        for H, pattern, chain_spec in cases:
            got = outcome(greedy_embed, H, pattern, chain_spec)
            assert got == outcome(reference_greedy_embed, H, pattern, chain_spec)
            assert got[0] is PreconditionViolated

    def test_memo_holds_only_the_sets_runs_see(self):
        spec = IntervalChainSpec.canonical(64, 16)
        before = dict(spec._greedy_keys)
        lo, hi = spec.embedding_window
        rng = random.Random(64)
        masks = set()
        while len(masks) < 4:
            # A run of `run` ones, a zero, then 15 free bits: on the canonical
            # base nothing lies past position run + k.
            run = rng.randint(lo - 15, hi)
            mask = (1 << run) - 1 | rng.getrandbits(15) << (run + 1)
            if lo <= mask.bit_count() <= hi:
                masks.add(mask)
        H = SetFamily.from_masks(64, masks)
        pattern = antichain(4)
        assert len(H) == embedding_threshold(pattern, 16)
        assert greedy_embed(H, pattern, spec) == reference_greedy_embed(H, pattern, spec)
        assert set(spec._greedy_keys) <= set(before) | masks
        assert len(spec._greedy_keys) - len(before) <= len(H)

    def test_refused_non_member_is_not_stored(self):
        spec = IntervalChainSpec(10, 2, IntervalChainSpec.canonical(10, 2).base)
        window = interval_chain(spec).restrict_sizes(*spec.embedding_window)
        spec.greedy_key(window.sets[0].mask)
        before = dict(spec._greedy_keys)
        not_member = Subset.from_elements(10, [4, 5, 6])
        with pytest.raises(ValueError):
            spec.greedy_key(not_member.mask)
        assert spec._greedy_keys == before
        with pytest.raises(PreconditionViolated, match="is not a member"):
            greedy_embed(SetFamily(10, [not_member]), chain(2), spec)
        assert spec._greedy_keys == before


class TestGreedyEmbed:
    def test_antichain_needs_no_removals(self):
        spec, window = window_family(10, 2)
        H = SetFamily(10, list(window)[:4])
        emb, trace = greedy_embed(H, antichain(4), spec)
        check_embedding(antichain(4), emb)
        assert len(trace.steps) == 1
        assert trace.steps[0].removed == ()
        # the images are the greedy-first sets
        assert set(s.mask for s in emb.images) == set(
            s.mask for s in trace.total_order[:4]
        )

    def test_nested_pair_from_chain(self):
        spec, window = window_family(8, 2)
        H = SetFamily(8, list(window)[:3])
        emb, trace = greedy_embed(H, chain(2), spec)
        check_embedding(chain(2), emb)
        assert max(trace.new_removals()) <= 1

    @pytest.mark.parametrize(
        "pattern",
        [chain(2), chain(3), diamond(1), diamond(2), complete_multilevel((1, 2))],
    )
    def test_exhaustive_minimal_families_n8(self, pattern):
        spec, window = window_family(8, 2)
        threshold = embedding_threshold(pattern, 2)
        sets = list(window)
        for combo in itertools.combinations(range(len(sets)), threshold):
            H = SetFamily(8, [sets[i] for i in combo])
            emb, trace = greedy_embed(H, pattern, spec)
            check_embedding(pattern, emb)
            fresh = trace.new_removals()
            assert all(c <= trace.allowance for c in fresh)
            assert trace.total_consumption() <= trace.threshold

    def test_sampled_families_n10(self):
        spec, window = window_family(10, 2)
        rng = random.Random(42)
        sets = list(window)
        for pattern in (chain(3), diamond(2)):
            threshold = embedding_threshold(pattern, 2)
            for _ in range(300):
                H = SetFamily(10, rng.sample(sets, threshold))
                emb, trace = greedy_embed(H, pattern, spec)
                check_embedding(pattern, emb)

    def test_k3_window(self):
        spec = IntervalChainSpec.canonical(14, 3)
        window = interval_chain(spec).restrict_sizes(6, 12)
        rng = random.Random(7)
        sets = list(window)
        pattern = diamond(2)
        threshold = embedding_threshold(pattern, 3)
        for _ in range(50):
            H = SetFamily(14, rng.sample(sets, threshold))
            emb, trace = greedy_embed(H, pattern, spec)
            check_embedding(pattern, emb)
            assert all(c <= trace.allowance for c in trace.new_removals())

    def test_worst_sets_sort_last_within_size(self):
        spec, window = window_family(10, 2)
        _, trace = greedy_embed(
            SetFamily(10, list(window)), chain(3), spec
        )
        from subposet_lab.families import worst_set

        order = trace.total_order
        for m in {s.weight for s in order}:
            block = [s for s in order if s.weight == m]
            if spec.k <= m <= spec.n - 1:
                assert block[-1] == worst_set(spec, m)

    def test_non_canonical_base_is_conjugated(self):
        n, k = 8, 2
        base = [Subset.empty(n)]
        for e in (3, 1, 4, 2, 5, 8, 6, 7):
            base.append(Subset(n, base[-1].mask | 1 << (e - 1)))
        spec = IntervalChainSpec(n, k, tuple(base))
        chain_fam = interval_chain(spec)
        window = SetFamily(
            n,
            [
                s
                for s in chain_fam
                if 3 * k - 3 <= s.weight <= n - k + 1
            ],
        )
        H = SetFamily(n, list(window)[: embedding_threshold(chain(3), k)])
        emb, trace = greedy_embed(H, chain(3), spec)
        check_embedding(chain(3), emb)
        assert all(s in chain_fam for s in emb.images)

    @pytest.mark.parametrize(
        "k,n,pattern", [(2, 10, diamond(2)), (2, 12, chain(4)), (3, 14, diamond(3))]
    )
    def test_random_base_matches_conjugated_run(self, k, n, pattern):
        # The conjugated run: carry H onto the canonical base, embed there,
        # and map every set of the result back.
        rng = random.Random(n * k)
        threshold = embedding_threshold(pattern, k)
        canonical = IntervalChainSpec.canonical(n, k)
        for _ in range(10):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            base = [Subset.empty(n)]
            for e in order:
                base.append(Subset(n, base[-1].mask | 1 << (e - 1)))
            spec = IntervalChainSpec(n, k, tuple(base))
            window = interval_chain(spec).restrict_sizes(*spec.embedding_window)
            H = SetFamily(n, rng.sample(window.sets, threshold + rng.randrange(4)))
            emb, trace = greedy_embed(H, pattern, spec)

            perm = spec.base_permutation()
            inverse = [0] * n
            for i, img in enumerate(perm):
                inverse[img - 1] = i + 1
            back = lambda sets: tuple(s.permuted(inverse) for s in sets)  # noqa: E731
            c_emb, c_trace = greedy_embed(apply_permutation(H, perm), pattern, canonical)
            assert emb.images == back(c_emb.images)
            assert trace.total_order == back(c_trace.total_order)
            assert [(st.layer, st.images, st.removed) for st in trace.steps] == [
                (st.layer, back(st.images), back(st.removed)) for st in c_trace.steps
            ]
            assert trace.new_removals() == c_trace.new_removals()
            assert trace.total_consumption() == c_trace.total_consumption()

    def test_allowance_breach_raises(self, monkeypatch):
        # With no removals allowed, the first step that discards a fresh set
        # must be reported.
        spec, window = window_family(10, 2)
        monkeypatch.setattr(embedder, "removal_allowance", lambda k: 0)
        with pytest.raises(InternalExhaustion, match="over the allowance 0"):
            greedy_embed(SetFamily(10, list(window)), diamond(2), spec)

    def test_consumption_breach_raises(self, monkeypatch):
        # An antichain consumes exactly its images, so a threshold one below
        # its size must be reported.
        spec, window = window_family(10, 2)
        H = SetFamily(10, list(window)[:4])
        monkeypatch.setattr(embedder, "embedding_threshold", lambda P, k: P.size - 1)
        with pytest.raises(InternalExhaustion, match="consumed 4 sets, over the threshold 3"):
            greedy_embed(H, antichain(4), spec)

    def test_preconditions(self):
        spec, window = window_family(10, 2)
        small = SetFamily(10, list(window)[:2])
        with pytest.raises(PreconditionViolated):
            greedy_embed(small, chain(3), spec)
        outside = SetFamily(10, [Subset.from_elements(10, [1])])
        with pytest.raises(PreconditionViolated):
            greedy_embed(outside, chain(2), spec)
        not_member = SetFamily(10, [Subset.from_elements(10, [4, 5, 6])])
        with pytest.raises(PreconditionViolated):
            greedy_embed(not_member, chain(2), spec)
        with pytest.raises(PreconditionViolated):
            greedy_embed(small, chain(2), IntervalChainSpec.canonical(10, 1))


class TestShiftIntoInterior:
    def test_k_below_two_refused(self):
        with pytest.raises(ValueError, match="need k >= 2, got 1"):
            shift_into_interior(SetFamily.power_set(2), 1)

    def test_empty_set_becomes_pad(self):
        fam = SetFamily(4, [Subset.empty(4)])
        shifted = shift_into_interior(fam, 2)
        assert shifted.n == 8
        assert list(shifted) == [Subset.from_elements(8, [1, 2, 3])]

    def test_full_set(self):
        fam = SetFamily(4, [Subset.full(4)])
        shifted = shift_into_interior(fam, 2)
        assert list(shifted)[0].elements() == tuple(range(1, 8))

    def test_sizes_land_in_window(self):
        rng = random.Random(3)
        for k in (2, 3, 4):
            fam = SetFamily.from_masks(5, rng.sample(range(32), 12))
            shifted = shift_into_interior(fam, k)
            lo, hi = 3 * k - 3, shifted.n - k + 1
            assert all(lo <= s.weight <= hi for s in shifted)

    def test_chain_members_stay_chain_members(self):
        for k in (2, 3):
            fam = interval_chain(IntervalChainSpec.canonical(5, k))
            shifted = shift_into_interior(fam, k)
            big_spec = IntervalChainSpec.canonical(5 + 4 * k - 4, k)
            assert all(big_spec.contains(s) for s in shifted)

    @given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_containment_exact(self, m1, m2, k):
        fam = SetFamily.from_masks(6, [m1, m2])
        shifted = shift_into_interior(fam, k)
        a, b = Subset(6, m1), Subset(6, m2)
        images = {s.mask for s in shifted}
        pad = (1 << (3 * k - 3)) - 1
        img = lambda s: Subset(6 + 4 * k - 4, pad | (s.mask << (3 * k - 3)))
        assert img(a).mask in images and img(b).mask in images
        assert a.issubset(b) == img(a).issubset(img(b))
        assert b.issubset(a) == img(b).issubset(img(a))


class TestMiddleLevels:
    def test_single_middle_level(self):
        fam = middle_levels_family(4, 1)
        assert len(fam) == 6
        assert {s.weight for s in fam} == {2}

    def test_two_middle_levels(self):
        fam = middle_levels_family(5, 2)
        assert len(fam) == 20
        assert {s.weight for s in fam} == {2, 3}

    def test_window_start_formula(self):
        assert {s.weight for s in middle_levels_family(5, 1)} == {3}
        assert {s.weight for s in middle_levels_family(6, 2)} == {3, 4}

    def test_degenerate_widths(self):
        assert len(middle_levels_family(4, 0)) == 0
        assert middle_levels_family(3, 4) == SetFamily.power_set(3)
        with pytest.raises(ValueError):
            middle_levels_family(3, 5)

    @pytest.mark.parametrize("a,n", [(2, 5), (2, 6), (4, 6)])
    def test_witness_avoids_complete_three_level(self, a, n):
        levels = (3 - 2) * (a.bit_length() - 1)  # log2(a) for powers of two
        fam = middle_levels_family(n, levels)
        assert find_subposet(fam, complete_multilevel((a, a, a)), "weak") is None


class TestSpanCertificate:
    def test_vacuous_for_two_levels(self):
        host = SetFamily.power_set(3)
        emb = find_subposet(host, complete_multilevel((2, 2)), "weak")
        cert = span_certificate(complete_multilevel((2, 2)), emb)
        assert cert.spanned_levels >= 1
        assert cert.height == 2

    def test_every_embedding_spans(self):
        pattern = complete_multilevel((2, 2, 2))
        for n in (4, 5):
            host = SetFamily.power_set(n)
            found = 0
            for emb in iter_subposet_embeddings(host, pattern, "weak"):
                cert = span_certificate(pattern, emb)
                assert cert.spanned_levels >= 2
                assert len(cert.unions) == 2
                assert cert.unions[0].issubset(cert.unions[1])
                found += 1
            assert found > 0

    def test_rejects_bad_embedding(self):
        pattern = complete_multilevel((2, 2))
        images = (
            Subset.from_elements(3, [1]),
            Subset.from_elements(3, [2]),
            Subset.from_elements(3, [1, 2]),
            Subset.from_elements(3, [3]),  # not above the bottoms
        )
        with pytest.raises(InvalidEmbedding):
            span_certificate(pattern, Embedding("weak", "family", images))

    def test_rejects_unequal_layers(self):
        pattern = complete_multilevel((1, 2))
        emb = find_subposet(SetFamily.power_set(3), pattern, "weak")
        with pytest.raises(InvalidEmbedding):
            span_certificate(pattern, emb)

    def test_rejects_non_complete_pattern(self):
        # equal layer widths (2, 2) but one cross relation missing
        from subposet_lab.posets import poset_from_relations

        pattern = poset_from_relations([(0, 2), (0, 3), (1, 3)], 4)
        assert pattern.mirsky_decomposition().sizes == (2, 2)
        emb = find_subposet(SetFamily.power_set(4), pattern, "weak")
        with pytest.raises(InvalidEmbedding):
            span_certificate(pattern, emb)

    def test_rejects_poset_targets(self):
        emb = Embedding("weak", "poset", (0, 1))
        with pytest.raises(InvalidEmbedding, match="apply to family targets"):
            span_certificate(chain(2), emb)

    @pytest.mark.parametrize(
        "sizes, layers, message",
        [
            # Layer 0's union {1} does not lie in layer 1's union {2}.
            ((1, 1, 1), [[0b001], [0b010], [0b011]], "layer unions are not nested"),
            # Two sets between {1, 2} and {1, 2} need a growth of one element.
            ((2, 2, 2), [[0b01, 0b10], [0b01, 0b10], [0b11, 0b11]], "union growth 0"),
            # Width 4 at height 3 needs two levels; every image has size 1.
            (
                (4, 4, 4),
                [[0b001] * 4, [0b001, 0b010, 0b100, 0b001], [0b001] * 4],
                "spanned 1 levels",
            ),
        ],
    )
    def test_invariant_refusals(self, monkeypatch, sizes, layers, message):
        # A checked embedding always passes these three tests, so the images
        # are built to break them and check_embedding is switched off.
        monkeypatch.setattr(embedder, "check_embedding", lambda pattern, emb: None)
        images = tuple(Subset(3, m) for layer in layers for m in layer)
        with pytest.raises(InvalidEmbedding, match=message):
            span_certificate(complete_multilevel(sizes), Embedding("weak", "family", images))

    def test_width_one_is_vacuously_fine(self):
        pattern = chain(3)
        emb = find_subposet(SetFamily.power_set(3), pattern, "weak")
        cert = span_certificate(pattern, emb)
        assert cert.layer_width == 1
        assert cert.spanned_levels >= 1


class TestThresholds:
    def test_allowance_values(self):
        assert removal_allowance(2) == 1
        assert removal_allowance(3) == 8
        assert removal_allowance(4) == 28

    def test_threshold_examples(self):
        assert embedding_threshold(chain(3), 2) == 5
        assert embedding_threshold(diamond(2), 2) == 6
        assert embedding_threshold(antichain(5), 2) == 5
        assert embedding_threshold(diamond(2), 3) == 4 + 2 * 8
