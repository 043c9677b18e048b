import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposet_lab.errors import OutOfRange
from subposet_lab.families import (
    _chain_masks,
    IntervalChainSpec,
    SetFamily,
    Subset,
    apply_permutation,
    containment_masks,
    count_trailing_zero_profile,
    family_from_text,
    family_to_text,
    interval_chain,
    level_count,
    lubell,
    min_chain_partition,
    permutation_hit_count,
    permutation_hit_count_exhaustive,
    permutation_image_counts,
    symmetric_chain_partition,
    unrelated_below,
    unrelated_below_count,
    worst_set,
)


def subsets_of(n, *element_lists):
    return [Subset.from_elements(n, elems) for elems in element_lists]


class TestSubset:
    def test_weight_is_popcount(self):
        s = Subset.from_elements(5, [1, 3, 4])
        assert s.weight == 3
        assert s.elements() == (1, 3, 4)
        assert s.indicator() == (1, 0, 1, 1, 0)

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(ValueError):
            Subset.from_elements(3, [4])
        with pytest.raises(ValueError):
            Subset(3, 1 << 3)

    def test_containment(self):
        a = Subset.from_elements(4, [1, 2])
        b = Subset.from_elements(4, [1, 2, 4])
        assert a.is_proper_subset(b)
        assert a.related(b) and b.related(a)
        assert not b.issubset(a)

    @given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
    def test_related_matches_set_semantics(self, m1, m2):
        a, b = Subset(8, m1), Subset(8, m2)
        sa, sb = set(a.elements()), set(b.elements())
        assert a.related(b) == (sa <= sb or sb <= sa)

    def test_sort_key_orders_as_weight_then_indicator(self):
        for n in range(11):
            subsets = [Subset(n, mask) for mask in range(1 << n)]
            by_indicator = sorted(subsets, key=lambda s: (s.weight, s.indicator()))
            keys = [s.sort_key() for s in by_indicator]
            assert keys == sorted(set(keys))  # strictly increasing
            assert keys[0] == (0, 0)


class TestSetFamily:
    def test_canonical_order_and_dedup(self):
        fam = SetFamily(
            3,
            subsets_of(3, [1, 2], [3], [1, 2], [], [1]),
        )
        # weight first, then indicator order within a weight: {3} < {1}
        assert list(fam) == subsets_of(3, [], [3], [1], [1, 2])

    def test_constructors_share_canonical_order(self):
        rng = random.Random(3)
        masks = rng.sample(range(32), 12)
        a = SetFamily.from_masks(5, masks)
        b = SetFamily.from_masks(5, reversed(masks))
        assert a.sets == b.sets

    def test_mixed_ground_sets_rejected(self):
        with pytest.raises(ValueError):
            SetFamily(3, [Subset.empty(4)])

    def test_negative_ground_set_rejected(self):
        # The same refusal as Subset(-1, 0), even for a family with no sets.
        with pytest.raises(ValueError, match="ground set size must be >= 0, got -1"):
            SetFamily(-1)
        assert len(SetFamily(0, [Subset.empty(0)])) == 1

    def test_power_set_and_levels(self):
        assert len(SetFamily.power_set(4)) == 16
        assert len(SetFamily.levels(4, [2])) == 6

    def test_file_round_trip(self, tmp_path):
        fam = SetFamily(4, subsets_of(4, [], [2], [1, 3], [1, 2, 3, 4]))
        text = family_to_text(fam)
        assert text.splitlines()[0] == "n=4"
        assert "{}" in text
        assert family_from_text(text) == fam

    def test_file_rejects_missing_header(self):
        with pytest.raises(ValueError):
            family_from_text("1,2\n")

    def test_file_ground_set_cap(self):
        assert family_from_text("n=4\n1,2\n", max_n=4).n == 4
        with pytest.raises(ValueError, match="above 4"):
            family_from_text("n=5\n1,2\n", max_n=4)


class TestLubell:
    def test_full_middle_level_is_one(self):
        assert lubell(SetFamily.levels(4, [2])) == 1

    def test_empty_and_full(self):
        fam = SetFamily(6, [Subset.empty(6), Subset.full(6)])
        assert lubell(fam) == 2

    def test_direct_sum(self):
        fam = SetFamily(2, subsets_of(2, [], [1], [1, 2]))
        assert lubell(fam) == Fraction(5, 2)

    @given(st.sets(st.integers(0, 2**6 - 1), max_size=20), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, masks, rnd):
        fam = SetFamily.from_masks(6, masks)
        perm = list(range(1, 7))
        rnd.shuffle(perm)
        assert lubell(apply_permutation(fam, perm)) == lubell(fam)


class TestApplyPermutation:
    def test_identity(self):
        fam = SetFamily.power_set(3)
        assert apply_permutation(fam, [1, 2, 3]) == fam

    def test_swap(self):
        fam = SetFamily(2, subsets_of(2, [1], [1, 2]))
        swapped = apply_permutation(fam, [2, 1])
        assert swapped == SetFamily(2, subsets_of(2, [2], [1, 2]))

    def test_preserves_size_and_weights(self):
        rng = random.Random(5)
        fam = SetFamily.from_masks(5, rng.sample(range(32), 10))
        perm = [3, 5, 1, 2, 4]
        image = apply_permutation(fam, perm)
        assert len(image) == len(fam)
        assert sorted(s.weight for s in image) == sorted(s.weight for s in fam)

    def test_preserves_inclusion_order(self):
        from conftest import are_isomorphic
        from subposet_lab.posets import inclusion_poset

        rng = random.Random(11)
        fam = SetFamily.from_masks(4, rng.sample(range(16), 7))
        image = apply_permutation(fam, [2, 4, 1, 3])
        assert are_isomorphic(inclusion_poset(fam), inclusion_poset(image))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            apply_permutation(SetFamily.power_set(2), [1, 1])


class TestIntervalChain:
    def test_k1_is_the_base_chain(self):
        spec = IntervalChainSpec.canonical(5, 1)
        fam = interval_chain(spec)
        assert len(fam) == 6
        assert all(s.mask == (1 << s.weight) - 1 for s in fam)

    def test_k2_n4_membership(self):
        fam = interval_chain(IntervalChainSpec.canonical(4, 2))
        expected = SetFamily(
            4,
            subsets_of(4, [], [1], [2], [1, 2], [1, 3], [1, 2, 3], [1, 2, 4], [1, 2, 3, 4]),
        )
        assert fam == expected

    def test_k_equals_n_gives_power_set(self):
        assert interval_chain(IntervalChainSpec.canonical(4, 4)) == SetFamily.power_set(4)

    def test_membership_rule_matches_enumeration(self):
        for n, k in [(6, 2), (7, 3), (8, 4)]:
            spec = IntervalChainSpec.canonical(n, k)
            fam = interval_chain(spec)
            for mask in range(1 << n):
                assert spec.contains(Subset(n, mask)) == (Subset(n, mask) in fam)

    def test_membership_rule_matches_enumeration_on_random_bases(self):
        rng = random.Random(11)
        checked = 0
        for n, k in [(5, 1), (6, 2), (7, 3), (8, 4), (9, 2), (9, 9)]:
            for _ in range(4):
                spec = random_spec(rng, n, k)
                if spec.is_canonical:
                    continue
                fam = interval_chain(spec)
                for mask in range(1 << n):
                    assert spec.contains(Subset(n, mask)) == (Subset(n, mask) in fam)
                checked += 1
        assert checked >= 20

    def test_canonical_mask_reads_the_base_steps(self):
        spec = random_spec(random.Random(4), 9, 3)
        perm = spec.base_permutation()
        for mask in range(1 << 9):
            s = Subset(9, mask)
            assert spec.canonical_mask(mask) == s.permuted(perm).mask
        for i, a in enumerate(spec.base):
            assert spec.canonical_mask(a.mask) == (1 << i) - 1

    def test_non_canonical_base(self):
        base = [Subset.empty(3)]
        for e in (2, 3, 1):
            base.append(Subset(3, base[-1].mask | 1 << (e - 1)))
        spec = IntervalChainSpec(3, 2, tuple(base))
        assert not spec.is_canonical
        fam = interval_chain(spec)
        perm = spec.base_permutation()
        canonical = interval_chain(IntervalChainSpec.canonical(3, 2))
        assert apply_permutation(fam, perm) == canonical

    def test_chain_masks_list_each_member_once(self):
        # Against the union of the n - k + 1 intervals [A_i, A_{i+k}].
        rng = random.Random(17)
        specs = [IntervalChainSpec.canonical(n, k) for n in range(1, 9) for k in range(1, n + 1)]
        specs += [random_spec(rng, n, k) for n, k in [(5, 2), (7, 3), (9, 4), (10, 1), (6, 6)]]
        for spec in specs:
            masks = list(_chain_masks(spec))
            union = {
                mask
                for i in range(spec.n - spec.k + 1)
                for mask in range(1 << spec.n)
                if spec.base[i].mask & ~mask == 0 and mask & ~spec.base[i + spec.k].mask == 0
            }
            assert len(masks) == len(union) == (1 << spec.k) + (spec.n - spec.k) * (1 << (spec.k - 1))
            assert set(masks) == union
            assert interval_chain(spec).masks() == SetFamily.from_masks(spec.n, union).masks()

    def test_greedy_key_sorts_as_weight_worst_indicator(self):
        # Larger sets first; within a size the worst set last, the others by
        # the indicator b_1 ... b_n, all read on the canonical base.
        rng = random.Random(23)
        specs = [IntervalChainSpec.canonical(n, k) for n in range(2, 10) for k in range(2, n + 1)]
        specs += [random_spec(rng, n, k) for n, k in [(6, 2), (8, 3), (10, 4), (11, 2)]]
        for spec in specs:
            canonical = IntervalChainSpec.canonical(spec.n, spec.k)

            def want(s):
                c = Subset(spec.n, spec.canonical_mask(s.mask))
                worst = spec.k <= c.weight <= spec.n - 1 and worst_set(canonical, c.weight) == c
                return (-c.weight, worst, "".join(map(str, c.indicator())))

            members = list(interval_chain(spec))
            keys = [spec.greedy_key(s.mask) for s in members]
            assert len(set(keys)) == len(members)
            by_key = [s for _, s in sorted(zip(keys, members), key=lambda pair: pair[0])]
            assert by_key == sorted(members, key=want)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            IntervalChainSpec(3, 2, (Subset.empty(3),) * 4)
        with pytest.raises(ValueError):
            IntervalChainSpec.canonical(3, 4)

    def test_rejects_short_or_unnested_base(self):
        base = IntervalChainSpec.canonical(3, 2).base
        with pytest.raises(ValueError, match="maximal chain with n\\+1 sets"):
            IntervalChainSpec(3, 2, base[:3])
        unnested = (base[0], Subset(3, 0b001), Subset(3, 0b110), base[3])
        with pytest.raises(ValueError, match="base chain is not nested"):
            IntervalChainSpec(3, 2, unnested)


class TestLevelCount:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_formula_matches_enumeration_in_window(self, k):
        for n in range(2 * k, 13):
            fam = interval_chain(IntervalChainSpec.canonical(n, k))
            spec = IntervalChainSpec.canonical(n, k)
            for m in range(k, n - k + 1):
                assert level_count(spec, m) == 1 << (k - 1)
                assert fam.count_of_size(m) == 1 << (k - 1)

    def test_named_values(self):
        assert level_count(IntervalChainSpec.canonical(10, 3), 5) == 4
        assert level_count(IntervalChainSpec.canonical(4, 2), 0) == 1
        # below the window the count falls back to enumeration
        assert level_count(IntervalChainSpec.canonical(12, 4), 2) == 7

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            level_count(IntervalChainSpec.canonical(4, 2), 9)


class TestTrailingZeroProfile:
    def _enumerated(self, spec, m, j):
        count = 0
        for s in interval_chain(spec):
            if s.weight != m:
                continue
            bits = s.indicator()
            last_one = max(i for i, b in enumerate(bits) if b)
            zeros = sum(1 for i in range(last_one) if not bits[i])
            if zeros >= j:
                count += 1
        return count

    @pytest.mark.parametrize("k,n", [(2, 7), (3, 9), (4, 10)])
    def test_matches_enumeration(self, k, n):
        spec = IntervalChainSpec.canonical(n, k)
        for m in range(k, n - k + 1):
            for j in range(k):
                assert count_trailing_zero_profile(spec, m, j) == self._enumerated(
                    spec, m, j
                )

    def test_named_values(self):
        spec = IntervalChainSpec.canonical(10, 3)
        assert count_trailing_zero_profile(spec, 5, 0) == 4
        assert count_trailing_zero_profile(spec, 5, 1) == 3
        spec4 = IntervalChainSpec.canonical(12, 4)
        assert count_trailing_zero_profile(spec4, 6, 2) == 4

    def test_window_enforced(self):
        spec = IntervalChainSpec.canonical(10, 3)
        with pytest.raises(OutOfRange):
            count_trailing_zero_profile(spec, 2, 0)
        with pytest.raises(OutOfRange):
            count_trailing_zero_profile(spec, 5, 3)


class TestUnrelatedBelow:
    def test_smallest_case(self):
        spec = IntervalChainSpec.canonical(4, 2)
        fam = unrelated_below(spec, 3)
        assert fam == SetFamily(4, subsets_of(4, [1, 3]))

    @pytest.mark.parametrize("k,expected", [(2, 1), (3, 8), (4, 28)])
    def test_cardinality_formula(self, k, expected):
        assert unrelated_below_count(k) == expected
        n = 4 * k - 2
        spec = IntervalChainSpec.canonical(n, k)
        for m in range(3 * k - 3, n - k + 2):
            assert len(unrelated_below(spec, m)) == expected

    def test_members_are_genuinely_unrelated(self):
        spec = IntervalChainSpec.canonical(9, 3)
        m = 6
        fam = unrelated_below(spec, m)
        big = [s for s in interval_chain(spec) if s.weight >= m]
        for s in fam:
            assert s.weight <= m - 1
            assert any(not s.related(b) for b in big)

    def test_matches_the_related_definition(self):
        rng = random.Random(16)
        specs = [IntervalChainSpec.canonical(n, k) for n, k in [(6, 2), (9, 3), (13, 4), (17, 5)]]
        specs += [
            random_spec(rng, n, k)
            for n, k in [(6, 2), (8, 2), (9, 3), (11, 3), (13, 4), (16, 5)]
        ]
        for spec in specs:
            chain_fam = interval_chain(spec)
            lo, hi = spec.embedding_window
            for m in range(lo, hi + 1):
                big = [b for b in chain_fam if b.weight >= m]
                want = SetFamily(
                    spec.n,
                    (
                        s
                        for s in chain_fam
                        if s.weight <= m - 1 and any(not s.related(b) for b in big)
                    ),
                )
                assert unrelated_below(spec, m) == want
                assert len(want) == unrelated_below_count(spec.k)

    def test_window_enforced(self):
        spec = IntervalChainSpec.canonical(10, 3)
        assert spec.embedding_window == (6, 8)
        with pytest.raises(OutOfRange):
            unrelated_below(spec, 5)  # below 3k-3
        with pytest.raises(OutOfRange):
            unrelated_below(spec, 9)  # above n-k+1

    def test_proof_identity(self):
        # (k-2) 2^(k-1) + (k-1) 2^(k-2) == (3k-5) 2^(k-2), checked exactly
        for k in range(2, 65):
            lhs = (k - 2) * 2 ** (k - 1) + (k - 1) * 2 ** (k - 2)
            assert lhs == (3 * k - 5) * 2 ** (k - 2)
            # second form: the double sum over binomials collapses the same way
            double = sum(
                comb(k - 1, h) for i in range(k - 1, 2 * k - 2) for h in range(i - k + 2, k)
            )
            assert (k - 2) * 2 ** (k - 1) + double == (3 * k - 5) * 2 ** (k - 2)


class TestWorstSet:
    def test_indicator_layout(self):
        spec = IntervalChainSpec.canonical(4, 2)
        assert worst_set(spec, 3) == Subset.from_elements(4, [1, 2, 4])

    def test_k1_returns_base_member(self):
        spec = IntervalChainSpec.canonical(6, 1)
        for m in range(1, 6):
            assert worst_set(spec, m).mask == (1 << m) - 1

    def test_weight_and_membership(self):
        spec = IntervalChainSpec.canonical(10, 3)
        s = worst_set(spec, 5)
        assert s == Subset.from_elements(10, [1, 2, 3, 5, 6])
        assert s.weight == 5
        assert spec.contains(s)

    def test_uniqueness_of_partner(self):
        # qualifying sets: unrelated to something at level m, related to all
        # of level m+1; their only level-m non-relative is the worst set
        for k, n in [(2, 8), (3, 9)]:
            spec = IntervalChainSpec.canonical(n, k)
            fam = interval_chain(spec)
            for m in range(k, n - k + 2):
                blocker = worst_set(spec, m)
                level_m = [s for s in fam if s.weight == m]
                level_up = [s for s in fam if s.weight == m + 1]
                for a in fam:
                    if a.weight >= m:
                        continue
                    partners = [s for s in level_m if not a.related(s)]
                    if not partners or any(not a.related(s) for s in level_up):
                        continue
                    assert partners == [blocker]

    def test_window_enforced(self):
        spec = IntervalChainSpec.canonical(6, 2)
        with pytest.raises(OutOfRange):
            worst_set(spec, 1)
        with pytest.raises(OutOfRange):
            worst_set(spec, 6)


class TestPermutationHitCount:
    def test_chain_host(self):
        fam = SetFamily(3, [Subset(3, (1 << i) - 1) for i in range(4)])
        a = Subset.from_elements(3, [2])
        assert permutation_hit_count(fam, a) == 2
        assert permutation_hit_count_exhaustive(fam, a) == 2

    def test_no_sets_of_that_size(self):
        fam = SetFamily(4, subsets_of(4, [1, 2]))
        assert permutation_hit_count(fam, Subset.from_elements(4, [3])) == 0

    def test_power_set_hits_everything(self):
        from math import factorial

        fam = SetFamily.power_set(4)
        for mask in (0, 3, 9, 15):
            assert permutation_hit_count(fam, Subset(4, mask)) == factorial(4)

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_matches_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        fam = SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(3, 8)))
        a = Subset(n, rng.randrange(1 << n))
        assert permutation_hit_count(fam, a) == permutation_hit_count_exhaustive(fam, a)

    @pytest.mark.parametrize("n", range(7))
    def test_image_counts_follow_apply_permutation(self, n):
        rng = random.Random(n)
        fams = [SetFamily(n), SetFamily.power_set(n)]
        fams += [
            SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))
            for _ in range(3)
        ]
        for fam in fams:
            want: dict[int, int] = {}
            for perm in itertools.permutations(range(1, n + 1)):
                for mask in apply_permutation(fam, perm).masks():
                    want[mask] = want.get(mask, 0) + 1
            assert dict(permutation_image_counts(fam)) == want

    def test_image_counts_are_read_only_and_shared(self):
        fam = SetFamily.from_masks(4, [1, 6, 7])
        counts = permutation_image_counts(fam)
        with pytest.raises(TypeError):
            counts[1] = 0  # type: ignore[index]
        assert permutation_image_counts(SetFamily.from_masks(4, [7, 6, 1])) is counts

    @pytest.mark.parametrize("n", range(7))
    def test_exhaustive_counts_equal_the_closed_form(self, n):
        rng = random.Random(100 + n)
        for size in (0, 1, rng.randint(1, 1 << n), 1 << n):
            fam = SetFamily.from_masks(n, rng.sample(range(1 << n), size))
            for mask in range(1 << n):
                a = Subset(n, mask)
                assert permutation_hit_count_exhaustive(fam, a) == permutation_hit_count(fam, a)

    def test_exhaustive_count_refuses_large_n(self):
        with pytest.raises(ValueError):
            permutation_hit_count_exhaustive(SetFamily(9), Subset(9, 0))


class TestSymmetricChainPartition:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_cube_gives_saturated_symmetric_chains(self, n):
        chains = symmetric_chain_partition(SetFamily.power_set(n))
        assert len(chains) == comb(n, n // 2)
        assert sum(len(c) for c in chains) == 1 << n
        for c in chains:
            assert c[0].weight + c[-1].weight == n
            for lo, hi in zip(c, c[1:]):
                assert lo.is_proper_subset(hi) and hi.weight == lo.weight + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_partitions_any_family_into_chains(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        fam = SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(0, 1 << n)))
        chains = symmetric_chain_partition(fam)
        members = [s for c in chains for s in c]
        assert sorted(s.mask for s in members) == sorted(fam.masks())
        order = {s.mask: i for i, s in enumerate(fam)}
        for c in chains:
            assert [order[s.mask] for s in c] == sorted(order[s.mask] for s in c)
            for lo, hi in zip(c, c[1:]):
                assert lo.is_proper_subset(hi)

    def test_restriction_keeps_cube_chains(self):
        cube = symmetric_chain_partition(SetFamily.power_set(5))
        chain_of = {s.mask: i for i, c in enumerate(cube) for s in c}
        fam = SetFamily.levels(5, [1, 3, 4])
        for c in symmetric_chain_partition(fam):
            assert len({chain_of[s.mask] for s in c}) == 1
        assert len(symmetric_chain_partition(fam)) == len(
            {chain_of[s.mask] for s in fam}
        )


def brute_width(fam):
    """The largest antichain, by trying every subfamily."""
    masks = fam.masks()
    return max(
        (
            len(pick)
            for r in range(len(masks) + 1)
            for pick in itertools.combinations(masks, r)
            if all(a & b not in (a, b) for a, b in itertools.combinations(pick, 2))
        ),
        default=0,
    )


def random_spec(rng, n, k):
    """A k-interval chain over [n] on a uniformly random base chain."""
    order = list(range(n))
    rng.shuffle(order)
    base, mask = [Subset(n, 0)], 0
    for bit in order:
        mask |= 1 << bit
        base.append(Subset(n, mask))
    return IntervalChainSpec(n, k, tuple(base))


def random_chain_family(rng, n, k):
    return interval_chain(random_spec(rng, n, k))


class TestContainmentMasks:
    @staticmethod
    def pairwise(fam):
        """above / below by testing every ordered pair of sets."""
        masks = fam.masks()
        above = [
            sum(1 << j for j, b in enumerate(masks) if a != b and a & b == a)
            for a in masks
        ]
        below = [
            sum(1 << j for j, b in enumerate(masks) if a != b and a & b == b)
            for a in masks
        ]
        return above, below

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_pairwise_definition(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 8)
        fam = SetFamily.from_masks(
            n, rng.sample(range(1 << n), rng.randint(0, min(60, 1 << n)))
        )
        if seed % 3 == 0:
            # Both extremes, which every other set lies between.
            fam = fam.union(SetFamily.from_masks(n, [0, (1 << n) - 1]))
        assert containment_masks(fam) == self.pairwise(fam)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_power_sets(self, n):
        fam = SetFamily.power_set(n)
        above, below = containment_masks(fam)
        assert (above, below) == self.pairwise(fam)
        # The empty set lies below every other set, and [n] above them.
        full = (1 << len(fam)) - 1
        assert above[0] == full ^ 1
        assert below[-1] == full ^ 1 << (len(fam) - 1)

    def test_empty_family_and_single_sets(self):
        assert containment_masks(SetFamily(4)) == ([], [])
        for n, mask in [(0, 0), (3, 0), (3, 0b101), (3, 0b111)]:
            assert containment_masks(SetFamily.from_masks(n, [mask])) == ([0], [0])


class TestMinChainPartition:
    def check_partition(self, fam, chains):
        members = [s for c in chains for s in c]
        assert sorted(s.mask for s in members) == sorted(fam.masks())
        for c in chains:
            for lo, hi in zip(c, c[1:]):
                assert lo.is_proper_subset(hi)
        firsts = [fam.sets.index(c[0]) for c in chains]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("seed", range(40))
    def test_chain_count_is_the_width(self, seed):
        rng = random.Random(seed)
        if seed % 2:
            fam = random_chain_family(rng, rng.randint(3, 6), rng.randint(1, 3))
            fam = SetFamily(fam.n, rng.sample(fam.sets, min(len(fam), 12)))
        else:
            n = rng.randint(1, 5)
            fam = SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(0, min(12, 1 << n))))
        chains = min_chain_partition(fam)
        self.check_partition(fam, chains)
        assert len(chains) == brute_width(fam)

    def test_interval_chain_needs_fewer_chains_than_the_cut(self):
        fam = interval_chain(IntervalChainSpec.canonical(12, 3))
        assert len(symmetric_chain_partition(fam)) == 12
        chains = min_chain_partition(fam)
        self.check_partition(fam, chains)
        assert len(chains) == max(fam.count_of_size(w) for w in range(13)) == 4

    def test_least_index_superset_first(self):
        # Augmenting paths link each set to its least-index free superset
        # first; that rule fixes which minimum partition comes out.
        fam = SetFamily.from_masks(5, random.Random(5).sample(range(32), 14))
        chains = min_chain_partition(fam)
        self.check_partition(fam, chains)
        assert [[s.mask for s in c] for c in chains] == [
            [0, 1, 5, 7, 23], [16, 20, 22], [26, 30], [14, 31], [25], [11]
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_full_levels_keep_the_cut(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 7)
        levels = [w for w in range(n + 1) if rng.random() < 0.5]
        fam = SetFamily.levels(n, levels)
        assert min_chain_partition(fam) == symmetric_chain_partition(fam)
