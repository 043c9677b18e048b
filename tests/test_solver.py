import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from subposet_lab import solver
from subposet_lab.errors import GuardRefused, PFreenessViolated, PreconditionViolated
from subposet_lab.families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    apply_permutation,
    interval_chain,
    lubell,
    min_chain_partition,
)
from subposet_lab.posets import (
    Poset,
    antichain,
    chain,
    diamond,
    find_subposet,
    parse_poset_spec,
)
from subposet_lab.solver import (
    MAX_HOST_SETS,
    alpha,
    double_count_rows,
    la_exact,
    lubell_max,
    verify_double_counting,
)

from conftest import brute_alpha, brute_contains, random_family, random_poset


def first_optimum(H, P, mode, objective):
    """Brute force: the optimum reached first by an include-first walk in
    canonical order, i.e. the best value with the lexicographically largest
    include vector over canonical indices."""
    members = H.sets
    best = None
    for picks in range(1 << len(members)):
        chosen = SetFamily(H.n, (members[i] for i in range(len(members)) if picks >> i & 1))
        if brute_contains(chosen, P, mode):
            continue
        value = len(chosen) if objective == "cardinality" else lubell(chosen)
        key = (value, tuple(picks >> i & 1 for i in range(len(members))))
        if best is None or key > best[0]:
            best = (key, chosen)
    return best[0][0], best[1]


def maximal_chain_family(n):
    return SetFamily(n, [Subset(n, (1 << i) - 1) for i in range(n + 1)])


class TestAlpha:
    def test_chain_host_collapses(self):
        r = alpha(maximal_chain_family(5), chain(2))
        assert r.value == 1 and r.exhaustive

    def test_refuses_empty_pattern_and_unknown_objective(self):
        host = SetFamily.power_set(2)
        with pytest.raises(ValueError, match="pattern must have at least one element"):
            alpha(host, Poset([]))
        with pytest.raises(ValueError, match="unknown objective 'mass'"):
            alpha(host, chain(2), "weak", "mass")

    def test_sperner_on_small_cube(self):
        r = alpha(SetFamily.power_set(3), chain(2))
        assert r.value == 3
        assert [s.weight for s in r.witness] == [1, 1, 1]

    def test_interval_chain_diamond(self):
        fam = interval_chain(IntervalChainSpec.canonical(6, 2))
        r = alpha(fam, diamond(2))
        assert r.value == 5  # frozen from exhaustive enumeration; cap is 4+2*1-1

    def test_witness_is_pattern_free_and_attains_value(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(3, 4)
            H = random_family(rng, n, rng.randint(4, 10))
            P = random_poset(rng, rng.randint(2, 4))
            mode = rng.choice(["weak", "induced"])
            r = alpha(H, P, mode)
            assert find_subposet(r.witness, P, mode) is None
            assert len(r.witness) == r.value
            assert all(s in H for s in r.witness)

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    def test_matches_exhaustive_enumeration(self, objective):
        rng = random.Random(10)
        for _ in range(12):
            n = rng.randint(3, 4)
            H = random_family(rng, n, rng.randint(3, 9))
            P = random_poset(rng, rng.randint(2, 4))
            mode = rng.choice(["weak", "induced"])
            fast = alpha(H, P, mode, objective)
            slow = brute_alpha(H, P, mode, objective)
            assert fast.value == slow

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_value_and_witness_match_include_first_brute_force(self, objective, mode):
        rng = random.Random(14)
        for _ in range(10):
            n = rng.randint(2, 4)
            H = random_family(rng, n, rng.randint(3, 9))
            P = chain(rng.randint(2, 3)) if rng.random() < 0.5 else random_poset(
                rng, rng.randint(2, 4)
            )
            fast = alpha(H, P, mode, objective)
            value, witness = first_optimum(H, P, mode, objective)
            assert fast.exhaustive
            assert fast.value == value == brute_alpha(H, P, mode, objective)
            assert fast.witness == witness

    def test_lubell_value_is_exact_fraction(self):
        H = SetFamily.levels(4, [1, 2])
        r = alpha(H, chain(2), "weak", "lubell")
        assert isinstance(r.value, Fraction) and r.value == 1

    def test_refuses_hosts_above_cap(self):
        with pytest.raises(PreconditionViolated):
            alpha(SetFamily.power_set(10), chain(2), node_budget=10)
        assert len(SetFamily.power_set(9)) == MAX_HOST_SETS
        # The double-count rows settle Sperner on the largest accepted cube.
        r = alpha(SetFamily.power_set(9), chain(2), node_budget=2000)
        assert r.exhaustive and r.value == comb(9, 4)
        assert find_subposet(r.witness, chain(2)) is None
        capped = alpha(SetFamily.power_set(9), chain(2), node_budget=1000)
        assert not capped.exhaustive and find_subposet(capped.witness, chain(2)) is None

    @staticmethod
    def _within_100_frames(call):
        """call() under a recursion limit of 100 frames above the caller's."""
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            return call()
        finally:
            sys.setrecursionlimit(limit)

    def test_search_depth_does_not_grow_with_the_host(self):
        # 252 sets, no more than 100 frames: the search keeps its pending
        # branches in a list, not in one Python frame per set.
        H = SetFamily.levels(9, [4, 5])
        r = self._within_100_frames(lambda: alpha(H, chain(2), node_budget=3000))
        assert (r.value, r.exhaustive, r.nodes_explored) == (126, True, 379)

    def test_chain_partition_depth_does_not_grow_with_the_host(self):
        # A random 446-set host, whose augmenting paths in min_chain_partition
        # run to about 150 links: the paths are kept in lists, not in one
        # Python frame per link.
        rng = random.Random(10)
        H = SetFamily.from_masks(9, rng.sample(range(512), rng.randint(300, 512)))
        assert len(H) == 446
        r = self._within_100_frames(lambda: alpha(H, chain(2), node_budget=1000))
        assert (r.value, r.exhaustive, r.nodes_explored) == (8, False, 1001)
        chains = self._within_100_frames(lambda: min_chain_partition(H))
        assert len(chains) == 110
        assert sorted(s.mask for c in chains for s in c) == sorted(H.masks())
        assert all(a.issubset(b) and a != b for c in chains for a, b in zip(c, c[1:]))

    def test_value_invariant_under_permutation(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(3, 5)
            H = random_family(rng, n, rng.randint(4, 10))
            P = random_poset(rng, rng.randint(2, 4))
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert alpha(H, P).value == alpha(apply_permutation(H, perm), P).value

    def test_weak_at_most_induced(self):
        rng = random.Random(12)
        for _ in range(15):
            n = rng.randint(3, 4)
            H = random_family(rng, n, rng.randint(4, 10))
            P = random_poset(rng, rng.randint(2, 4))
            assert alpha(H, P, "weak").value <= alpha(H, P, "induced").value

    def test_budget_yields_lower_bound(self):
        H = SetFamily.power_set(4)
        full = alpha(H, chain(2))
        capped = alpha(H, chain(2), node_budget=20)
        assert not capped.exhaustive
        assert capped.value <= full.value
        assert find_subposet(capped.witness, chain(2)) is None

    def test_deterministic_witness(self):
        H = SetFamily.power_set(3)
        first = alpha(H, chain(2))
        second = alpha(H, chain(2))
        assert first.witness == second.witness
        assert first.nodes_explored == second.nodes_explored


def random_level_union(rng, max_sets):
    """A random union of full levels of 2^[n], 2 <= n <= 5, of at most max_sets sets."""
    while True:
        n = rng.randint(2, 5)
        levels = [w for w in range(n + 1) if rng.random() < 0.5]
        if levels and sum(comb(n, w) for w in levels) <= max_sets:
            return SetFamily.levels(n, levels)


def random_interval_chain(rng, n, k):
    """A k-interval chain over a uniformly random maximal chain of 2^[n]."""
    order = list(range(n))
    rng.shuffle(order)
    base, mask = [Subset(n, 0)], 0
    for bit in order:
        mask |= 1 << bit
        base.append(Subset(n, mask))
    return interval_chain(IntervalChainSpec(n, k, tuple(base)))


def row_load(row, fam):
    """The double count's left side for one row: sum of N_|A| / C(n, |A|)."""
    _, counts, _ = row
    return sum((Fraction(counts[s.weight], comb(fam.n, s.weight)) for s in fam), Fraction(0))


class TestDoubleCountRows:
    def test_cube_rows(self):
        rows = double_count_rows(SetFamily.power_set(5), chain(3), "weak")
        assert [(k, capacity) for k, _, capacity in rows] == [(1, 2), (2, 4), (3, 8)]
        # A size-w set lies in 2^(k-1) of the chain's sets inside [k, n - k].
        assert rows[2][1] == {0: 1, 1: 3, 2: 4, 3: 4, 4: 3, 5: 1}

    @pytest.mark.parametrize(
        "k, mode, rows",
        [
            (2, "weak", [(1, 3), (2, 5), (3, 10)]),
            (3, "weak", [(1, 4), (2, 6)]),
            (2, "induced", [(1, 8), (2, 8), (3, 13)]),
        ],
    )
    def test_diamond_rows_at_seven(self, k, mode, rows):
        # Each capacity is an exact search whose checks take a diamond kernel.
        got = double_count_rows(SetFamily.power_set(7), diamond(k), mode)
        assert [(j, capacity) for j, _, capacity in got] == rows

    def test_no_rows_without_full_levels(self):
        rng = random.Random(21)
        chain_host = interval_chain(IntervalChainSpec.canonical(5, 2))
        assert double_count_rows(chain_host, chain(2), "weak") == ()
        level = SetFamily.levels(5, [2])
        assert double_count_rows(level, chain(2), "weak")
        assert double_count_rows(level.without(level.sets[3:4]), chain(2), "weak") == ()
        for _ in range(30):
            n = rng.randint(2, 5)
            H = random_family(rng, n, rng.randint(1, 1 << n))
            full = all(H.count_of_size(s.weight) == comb(n, s.weight) for s in H)
            assert bool(double_count_rows(H, chain(2), "weak")) == full

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_value_and_witness_match_include_first_brute_force(self, objective, mode):
        rng = random.Random(22)
        for _ in range(8):
            H = random_level_union(rng, 8)
            P = chain(rng.randint(2, 3)) if rng.random() < 0.5 else random_poset(
                rng, rng.randint(2, 3)
            )
            rows = double_count_rows(H, P, mode)
            assert rows
            fast = alpha(H, P, mode, objective)
            value, witness = first_optimum(H, P, mode, objective)
            assert fast.exhaustive
            assert fast.value == value == brute_alpha(H, P, mode, objective)
            assert fast.witness == witness
            assert all(row_load(row, fast.witness) <= row[2] for row in rows)

    def test_rows_hold_on_cube_witnesses(self):
        for n, P, mode in [(5, chain(3), "weak"), (4, diamond(2), "weak"), (4, diamond(2), "induced")]:
            r = la_exact(n, P, mode)
            rows = double_count_rows(SetFamily.power_set(n), P, mode)
            assert len(rows) == 3
            assert all(row_load(row, r.witness) <= row[2] for row in rows)

    def test_capacity_searches_are_not_counted(self, monkeypatch):
        monkeypatch.setattr(solver, "_ROW_CACHE", {})
        cold = la_exact(5, chain(3))
        warm = la_exact(5, chain(3))
        assert cold.nodes_explored == warm.nodes_explored
        assert cold.witness == warm.witness
        monkeypatch.setattr(solver, "_ROW_CACHE", {})
        budgeted = la_exact(5, chain(3), node_budget=cold.nodes_explored)
        assert budgeted.exhaustive and budgeted.nodes_explored == cold.nodes_explored

    def test_unfinished_capacity_search_drops_its_row(self, monkeypatch):
        monkeypatch.setattr(solver, "_ROW_CACHE", {})
        monkeypatch.setattr(solver, "CAPACITY_NODE_CAP", 5)
        assert double_count_rows(SetFamily.power_set(5), chain(3), "weak") == ()
        r = la_exact(4, chain(3))
        assert r.value == 10 and r.exhaustive

    def test_budget_stops_in_either_pass(self):
        full = la_exact(5, chain(3))
        # The first pass reaches its first leaf after 33 nodes.
        for budget in (10, 40, full.nodes_explored - 1):
            r = la_exact(5, chain(3), node_budget=budget)
            assert not r.exhaustive and r.value <= full.value
            assert len(r.witness) == r.value
            assert find_subposet(r.witness, chain(3)) is None
        # A stop in the include-first pass keeps the proven value.
        assert r.value == full.value

    def test_whole_cubes_at_six_and_seven(self):
        assert la_exact(6, chain(3)).value == 35
        r = la_exact(7, chain(2))
        assert r.exhaustive and r.value == 35


    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_rows_hold_on_any_host(self, mode):
        # The averaging argument needs no full levels: with G the canonical
        # k-interval chain restricted to H's sizes, every P-free F within H
        # has sum N_|A|(G) / C(n, |A|) <= alpha(G, P). Rows are withheld off
        # full-level hosts for cost alone.
        rng = random.Random(23)
        for trial in range(24):
            n = rng.randint(3, 5)
            if trial % 2:
                H = random_interval_chain(rng, n, rng.randint(1, 3))
            else:
                H = random_family(rng, n, rng.randint(1, 12))
            P = chain(rng.randint(2, 3)) if trial % 3 else random_poset(rng, 3)
            sizes = {s.weight for s in H}
            F = alpha(H, P, mode).witness
            for k in range(1, min(3, n - 1) + 1):
                G = SetFamily(
                    n,
                    (s for s in interval_chain(IntervalChainSpec.canonical(n, k)) if s.weight in sizes),
                )
                row = (k, {w: G.count_of_size(w) for w in sizes}, alpha(G, P, mode).value)
                assert row_load(row, F) <= row[2]


class TestAgainstBruteForce:
    """alpha off full-level hosts, where min_chain_partition shapes the bound."""

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_interval_chains_and_random_hosts(self, objective, mode):
        rng = random.Random(24)
        for trial in range(20):
            if trial % 2:
                n = rng.randint(3, 5)
                H = random_interval_chain(rng, n, 1 if n == 5 else rng.randint(1, 2))
            else:
                H = random_family(rng, 4, rng.randint(4, 10))
            P = chain(rng.randint(2, 3)) if trial % 3 else random_poset(rng, 3)
            fast = alpha(H, P, mode, objective)
            value, witness = first_optimum(H, P, mode, objective)
            assert fast.exhaustive
            assert fast.value == value == brute_alpha(H, P, mode, objective)
            assert fast.witness == witness

    def test_interval_chain_bound_uses_a_minimum_partition(self):
        # C_3[12] has width 4; its symmetric chain cut has 12 chains, which
        # put the chain:3 root bound at 24 and took 567,444 nodes.
        r = alpha(interval_chain(IntervalChainSpec.canonical(12, 3)), chain(3))
        assert (r.value, r.exhaustive, r.nodes_explored) == (8, True, 95_323)

    @pytest.mark.parametrize(
        "host, spec, mode, objective, nodes",
        [
            ((5, None), "chain:3", "weak", "cardinality", 92),
            ((4, None), "diamond:2", "weak", "cardinality", 2182),
            ((4, None), "K:2,2", "induced", "cardinality", 144),
            ((4, None), "K:1,2", "induced", "cardinality", 2481),
            ((4, None), "diamond:1", "induced", "lubell", 36),
            ((5, None), "chain:2", "induced", "lubell", 67),
            ((6, (2, 4)), "chain:3", "weak", "cardinality", 61),
            ((5, (0, 2, 3)), "diamond:2", "weak", "lubell", 8607),
        ],
    )
    def test_full_level_node_counts_are_pinned(self, host, spec, mode, objective, nodes):
        # The symmetric chain cut is already minimum on full levels, so these
        # searches branch and prune exactly as before min_chain_partition.
        n, levels = host
        H = SetFamily.power_set(n) if levels is None else SetFamily.levels(n, levels)
        assert alpha(H, parse_poset_spec(spec), mode, objective).nodes_explored == nodes

    @pytest.mark.parametrize(
        "host, spec, mode, objective, budget, outcome",
        [
            # Hosts without double-count rows.
            ("C_2[10]", "K:2,2", "induced", "lubell", None, (Fraction(151, 63), True, 16_550)),
            ("random", "diamond:2", "weak", "cardinality", None, (18, True, 63_365)),
            # Budget stops in the value pass, below the optimum 7/3, and in
            # the include-first witness pass, after the value pass's 2,220 nodes.
            (
                "2^[4]", "diamond:2", "weak", "lubell", 100,
                (Fraction(9, 4), False, 101, (0, 8, 15)),
            ),
            (
                "2^[4]", "diamond:2", "weak", "lubell", 2300,
                (Fraction(7, 3), False, 2301, (0, 8, 4, 10, 6, 9, 5, 3)),
            ),
            # Runs whose freeness checks go through the diamond kernels.
            (
                "C_2[10]", "diamond:2", "weak", "cardinality", None,
                (5, True, 11_346, (2, 1, 5, 3, 11)),
            ),
            (
                "C_2[14]", "diamond:2", "induced", "cardinality", 150_000,
                (
                    15, False, 150_001,
                    (0, 2, 3, 11, 15, 47, 63, 191, 255, 767, 1023, 3071, 6143, 4095, 12287),
                ),
            ),
            # Whole-cube search whose budget runs out in the canonical witness pass.
            ("2^[5]", "diamond:2", "weak", "cardinality", 300_000, (20, False, 300_001)),
        ],
    )
    def test_search_outcomes_are_pinned(self, host, spec, mode, objective, budget, outcome):
        H = {
            "C_2[10]": lambda: interval_chain(IntervalChainSpec.canonical(10, 2)),
            "C_2[14]": lambda: interval_chain(IntervalChainSpec.canonical(14, 2)),
            "random": lambda: random_family(random.Random(32), 6, 24),
            "2^[4]": lambda: SetFamily.power_set(4),
            "2^[5]": lambda: SetFamily.power_set(5),
        }[host]()
        r = alpha(H, parse_poset_spec(spec), mode, objective, budget)
        # Budgeted outcomes also pin the witness masks.
        got = (r.value, r.exhaustive, r.nodes_explored, r.witness.masks())
        assert got[: len(outcome)] == outcome


class TestLaExact:
    def test_sperner_n3(self):
        assert la_exact(3, chain(2)).value == 3

    def test_two_middle_levels_n3(self):
        r = la_exact(3, chain(3))
        assert r.value == 6

    def test_diamond_on_two_elements(self):
        assert la_exact(2, diamond(1)).value == 3

    def test_largest_binomial_sums(self):
        # longest-chain-free optimum is the sum of the k largest binomials
        for n in range(1, 5):
            binomials = sorted((comb(n, j) for j in range(n + 1)), reverse=True)
            for k in range(1, n + 1):
                assert la_exact(n, chain(k + 1)).value == sum(binomials[:k])

    def test_chain_capacity_prunes_two_largest_levels(self, la5_chain3):
        r = la5_chain3
        assert r.value == 20 and r.exhaustive
        assert r.nodes_explored <= 200_000
        assert sorted(s.weight for s in r.witness) == [2] * 10 + [3] * 10

    def test_guard(self):
        with pytest.raises(GuardRefused):
            la_exact(8, chain(2))

    def test_diamond_free_family_of_36_at_six(self):
        # La(6, D_2) >= 36: level 2 without the perfect matching {16, 25, 34},
        # twelve 3-sets, and the complements of the twelve 2-sets.
        def mask(digits):
            return sum(1 << (int(d) - 1) for d in digits)

        pairs = [
            a * 10 + b
            for a, b in itertools.combinations(range(1, 7), 2)
            if a * 10 + b not in (16, 25, 34)
        ]
        triples = "125 126 134 136 146 156 234 235 245 256 345 346".split()
        masks = [mask(str(p)) for p in pairs] + [mask(t) for t in triples]
        masks += [0b111111 ^ mask(str(p)) for p in pairs]
        assert len(set(masks)) == 36

        def has_weak_diamond(family):
            # Some A below D with two members strictly between them.
            return any(
                a & d == a != d
                and sum(a & b == a != b and b & d == b != d for b in family) >= 2
                for a in family
                for d in family
            )

        assert not has_weak_diamond(masks)
        fam = SetFamily.from_masks(6, masks)
        assert find_subposet(fam, diamond(2)) is None
        # Maximal: every other set of 2^[6] completes a diamond.
        for extra in set(range(64)) - set(masks):
            assert has_weak_diamond(masks + [extra]), extra

    def test_guard_override_allows(self):
        # budget keeps the override run small; value is a valid lower bound
        r = la_exact(8, chain(2), override=True, node_budget=50)
        assert not r.exhaustive
        assert r.value >= 0

    @pytest.mark.parametrize("search", [la_exact, lubell_max])
    def test_cube_above_host_cap_refused_before_it_is_built(self, search, monkeypatch):
        build = SetFamily.power_set

        def guarded_power_set(n):
            assert n <= 9, f"built 2^[{n}]"
            return build(n)

        monkeypatch.setattr(SetFamily, "power_set", staticmethod(guarded_power_set))
        with pytest.raises(PreconditionViolated, match=r"^host has 2\^16 sets; .* at most 512$"):
            search(16, chain(2), override=True)
        assert search(9, chain(2), override=True, node_budget=5).value >= 0

    def test_negative_n_refused(self):
        with pytest.raises(PreconditionViolated, match=r"^need n >= 0, got -1$"):
            la_exact(-1, chain(2))


class TestLubellMax:
    def test_two_element_ground_set(self):
        assert lubell_max(2, chain(2)).value == 1

    def test_single_element_pattern(self):
        r = lubell_max(2, chain(1))
        assert r.value == 0 and len(r.witness) == 0

    def test_induced_diamond_n3(self):
        r = lubell_max(3, diamond(2))
        assert r.value == Fraction(8, 3)  # frozen from exhaustive enumeration

    def test_value_bounds_cardinality_ratio(self):
        r = la_exact(3, diamond(2))
        lu = lubell_max(3, diamond(2), mode="weak")
        assert lu.value >= Fraction(r.value, comb(3, 1))


class TestVerifyDoubleCounting:
    def test_full_level_against_chain(self):
        H = maximal_chain_family(3)
        report = verify_double_counting(H, chain(2), SetFamily.levels(3, [1]))
        assert report.holds
        assert report.lhs == 1
        assert report.alpha_value == 1
        assert report.exhaustive and report.identity_holds

    def test_interval_chain_against_diamond(self):
        H = interval_chain(IntervalChainSpec.canonical(4, 2))
        fam = SetFamily.levels(4, [1, 2]).without([Subset.from_elements(4, [1, 2])])
        report = verify_double_counting(H, diamond(2), fam)
        assert report.holds and report.identity_holds

    def test_rejects_mismatched_ground_sets(self):
        with pytest.raises(ValueError, match="different ground sets"):
            verify_double_counting(SetFamily.power_set(2), chain(2), SetFamily(3))

    def test_rejects_family_containing_pattern(self):
        H = SetFamily.power_set(3)
        with pytest.raises(PFreenessViolated):
            verify_double_counting(H, chain(2), maximal_chain_family(3))

    def test_pair_counts_match(self):
        rng = random.Random(13)
        for _ in range(5):
            n = rng.randint(3, 5)
            H = random_family(rng, n, rng.randint(4, 9))
            fam = SetFamily.levels(n, [n // 2])
            report = verify_double_counting(H, chain(2), fam)
            assert report.identity_holds
            assert report.holds
