import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import comb, floor

import pytest

from subposet_lab import solver
from subposet_lab.embedder import middle_levels_family
from subposet_lab.errors import GuardRefused, PFreenessViolated, PreconditionViolated
from subposet_lab.families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    apply_permutation,
    interval_chain,
    lubell,
    min_chain_partition,
    symmetric_chain_partition,
)
from subposet_lab.posets import (
    EmbeddingSearch,
    Poset,
    antichain,
    chain,
    diamond,
    find_subposet,
    parse_poset_spec,
    poset_from_relations,
)
from subposet_lab.solver import (
    MAX_HOST_SETS,
    alpha,
    double_count_rows,
    la_exact,
    lubell_max,
    verify_double_counting,
)

from conftest import (
    brute_alpha,
    brute_contains,
    copy_edges,
    hypergraph_alpha,
    hypergraph_first_optimum,
    random_family,
    random_poset,
)


def level_masks(n, *sizes):
    """The masks of the given full levels of 2^[n], in SetFamily order."""
    return SetFamily.levels(n, sizes).masks()


MIDDLE_6 = level_masks(6, 2, 3)


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
        assert (r.value, r.exhaustive, r.nodes_explored) == (9, False, 1001)
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
            # The k = 3 capacity search takes 23,620 nodes with the copy
            # bounds (232,351 without, past CAPACITY_NODE_CAP); its value 12
            # is checked against hypergraph_alpha in TestHypergraphOracle.
            (3, "weak", [(1, 4), (2, 6), (3, 12)]),
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
        assert double_count_rows(SetFamily.levels(5, [0, 5]), chain(2), "weak") == ()
        for _ in range(30):
            n = rng.randint(2, 5)
            H = random_family(rng, n, rng.randint(1, 1 << n))
            full = all(H.count_of_size(s.weight) == comb(n, s.weight) for s in H)
            inner = any(0 < s.weight < n for s in H)
            assert bool(double_count_rows(H, chain(2), "weak")) == (full and inner)

    @pytest.mark.parametrize(
        "P, nodes_both", [(chain(2), 4), (chain(3), 5), (diamond(2), 5)]
    )
    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_no_rows_within_bottom_and_top(self, P, nodes_both, objective, mode):
        # Levels 0 and n form one chain, whose capacity gives what rows would;
        # the node counts are those the search took when it still had rows.
        for n in range(2, 6):
            for levels, nodes in [([0], 3), ([n], 3), ([0, n], nodes_both)]:
                H = SetFamily.levels(n, levels)
                assert double_count_rows(H, P, mode) == ()
                r = alpha(H, P, mode, objective)
                assert r.exhaustive and r.nodes_explored == nodes
                assert r.value == brute_alpha(H, P, mode, objective)

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
            assert bool(rows) == any(0 < s.weight < H.n for s in H)
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
        # Capacities are cached per cap, so a cap no other call uses makes
        # the first call here run its capacity searches.
        monkeypatch.setattr(solver, "CAPACITY_NODE_CAP", solver.CAPACITY_NODE_CAP + 1)
        cold = la_exact(5, chain(3))
        warm = la_exact(5, chain(3))
        assert cold.nodes_explored == warm.nodes_explored
        assert cold.witness == warm.witness
        monkeypatch.setattr(solver, "CAPACITY_NODE_CAP", solver.CAPACITY_NODE_CAP + 1)
        budgeted = la_exact(5, chain(3), node_budget=cold.nodes_explored)
        assert budgeted.exhaustive and budgeted.nodes_explored == cold.nodes_explored

    def test_unfinished_capacity_search_drops_its_row(self, monkeypatch):
        monkeypatch.setattr(solver, "CAPACITY_NODE_CAP", 5)
        assert double_count_rows(SetFamily.power_set(5), chain(3), "weak") == ()
        r = la_exact(4, chain(3))
        assert r.value == 10 and r.exhaustive

    def test_rows_come_back_when_the_cap_is_restored(self, monkeypatch):
        # A capacity search cut short at a lower cap is not reused at a higher one.
        H = SetFamily.power_set(6)
        monkeypatch.setattr(solver, "CAPACITY_NODE_CAP", 5)
        assert double_count_rows(H, chain(3), "weak") == ()
        monkeypatch.undo()
        rows = double_count_rows(H, chain(3), "weak")
        assert [(k, capacity) for k, _, capacity in rows] == [(1, 2), (2, 4), (3, 8)]

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

    def test_interval_chain_bound_uses_a_minimum_partition(self, monkeypatch):
        # C_3[12] has width 4; its symmetric chain cut has 12 chains, which
        # put the chain:3 root bound at 24. Before dead sets the two took
        # 95,323 and 567,444 nodes.
        H = interval_chain(IntervalChainSpec.canonical(12, 3))
        r = alpha(H, chain(3))
        assert (r.value, r.exhaustive, r.nodes_explored) == (8, True, 4_355)
        monkeypatch.setattr(solver, "min_chain_partition", symmetric_chain_partition)
        assert len(symmetric_chain_partition(H)) == 12
        cut = alpha(H, chain(3))
        assert (cut.value, cut.exhaustive, cut.nodes_explored) == (8, True, 25_567)
        assert cut.witness == r.witness

    @pytest.mark.parametrize(
        "host, spec, mode, objective, nodes",
        [
            ((5, None), "chain:3", "weak", "cardinality", 88),
            ((4, None), "diamond:2", "weak", "cardinality", 230),
            ((4, None), "K:2,2", "induced", "cardinality", 90),
            ((4, None), "K:1,2", "induced", "cardinality", 649),
            ((4, None), "diamond:1", "induced", "lubell", 36),
            ((5, None), "chain:2", "induced", "lubell", 67),
            ((6, (2, 4)), "chain:3", "weak", "cardinality", 61),
            ((5, (0, 2, 3)), "diamond:2", "weak", "lubell", 169),
        ],
    )
    def test_full_level_node_counts_are_pinned(self, host, spec, mode, objective, nodes):
        # The symmetric chain cut is already minimum on full levels; these
        # counts include the subtrees that orbital branching cuts.
        n, levels = host
        H = SetFamily.power_set(n) if levels is None else SetFamily.levels(n, levels)
        assert alpha(H, parse_poset_spec(spec), mode, objective).nodes_explored == nodes

    @pytest.mark.parametrize(
        "host, spec, mode, objective, budget, outcome",
        [
            # Hosts without double-count rows.
            ("C_2[10]", "K:2,2", "induced", "lubell", None, (Fraction(151, 63), True, 13_753)),
            ("random", "diamond:2", "weak", "cardinality", None, (18, True, 3_006)),
            # Budget stops in the value pass, below the optimum 7/3, and in
            # the include-first witness pass, after the value pass's 265 nodes
            # (285 in all).
            (
                "2^[4]", "diamond:2", "weak", "lubell", 40,
                (Fraction(9, 4), False, 41, (0, 8, 15)),
            ),
            (
                "2^[4]", "diamond:2", "weak", "lubell", 275,
                (Fraction(7, 3), False, 276, (0, 8, 4, 10, 6, 9, 5, 3)),
            ),
            # A run whose freeness answers all come from completers' mask rule.
            (
                "C_2[10]", "diamond:2", "weak", "cardinality", None,
                (5, True, 3_019, (2, 1, 5, 3, 11)),
            ),
            # The chain-alpha benchmark ops on hosts without rows that stopped
            # at their budgets before the copy bounds (this one and the two
            # after the next): each finishes within its budget, on the value
            # hypergraph_alpha gives (TestHypergraphOracle).
            (
                "C_2[14]", "diamond:2", "induced", "cardinality", 150_000,
                (
                    15, True, 51_225,
                    (0, 2, 3, 11, 15, 47, 63, 191, 255, 767, 1023, 3071, 6143, 4095, 12287),
                ),
            ),
            # Whole-cube search whose budget runs out in the canonical witness
            # pass, after the value pass's 825 nodes (2,656 in all): the
            # value pass's optimum and witness, flagged non-exhaustive.
            (
                "2^[5]", "diamond:2", "weak", "cardinality", 1_000,
                (20, False, 1_001, level_masks(5, 2, 3)),
            ),
            (
                "C_4[14]", "chain:3", "weak", "lubell", 400_000,
                (2, True, 292, (0, 16383)),
            ),
            (
                "C_2[14]", "K:2,2", "induced", "cardinality", 150_000,
                (
                    17, True, 108_561,
                    (0, 2, 1, 5, 3, 11, 15, 47, 63, 191, 255, 767, 1023, 3071, 4095,
                     12287, 16383),
                ),
            ),
            ("C_3[14]", "chain:3", "weak", "lubell", None, (2, True, 157, (0, 16383))),
            # Levels 2..4 of 2^[6], and la_exact(6, diamond:2) stopped in its
            # value pass: both return levels 2 and 3.
            ("middle 6/3", "K:2,2", "weak", "cardinality", 300_000, (35, True, 137, MIDDLE_6)),
            ("2^[6]", "diamond:2", "weak", "cardinality", 200_000, (35, False, 200_001, MIDDLE_6)),
            # The cube-exact benchmark's ops (bench/expected.json), with the
            # patterns as parsed rather than relabelled: every witness is a
            # union of full levels.
            ("2^[5]", "chain:3", "weak", "cardinality", None, (20, True, 88, level_masks(5, 2, 3))),
            ("2^[5]", "chain:2", "weak", "cardinality", None, (10, True, 78, level_masks(5, 2))),
            (
                "2^[4]", "diamond:2", "weak", "cardinality", None,
                (10, True, 230, level_masks(4, 1, 2)),
            ),
            ("2^[4]", "K:2,2", "weak", "cardinality", None, (10, True, 45, level_masks(4, 1, 2))),
            (
                "2^[4]", "diamond:1", "induced", "cardinality", None,
                (10, True, 45, level_masks(4, 1, 2)),
            ),
            ("2^[4]", "diamond:1", "induced", "lubell", None, (2, True, 36, level_masks(4, 0, 1))),
            ("2^[5]", "chain:2", "induced", "lubell", None, (1, True, 67, level_masks(5, 0))),
            (
                "2^[5]", "diamond:2", "weak", "cardinality", 300_000,
                (20, True, 2_656, level_masks(5, 2, 3)),
            ),
            (
                "2^[5]", "K:2,2", "weak", "cardinality", 300_000,
                (20, True, 88, level_masks(5, 2, 3)),
            ),
            (
                "2^[6]", "chain:2", "weak", "cardinality", 300_000,
                (20, True, 153, level_masks(6, 3)),
            ),
        ],
    )
    def test_search_outcomes_are_pinned(self, host, spec, mode, objective, budget, outcome):
        H = {
            "C_2[10]": lambda: interval_chain(IntervalChainSpec.canonical(10, 2)),
            "C_2[14]": lambda: interval_chain(IntervalChainSpec.canonical(14, 2)),
            "C_3[14]": lambda: interval_chain(IntervalChainSpec.canonical(14, 3)),
            "C_4[14]": lambda: interval_chain(IntervalChainSpec.canonical(14, 4)),
            "random": lambda: random_family(random.Random(32), 6, 24),
            "middle 6/3": lambda: middle_levels_family(6, 3),
            "2^[4]": lambda: SetFamily.power_set(4),
            "2^[5]": lambda: SetFamily.power_set(5),
            "2^[6]": lambda: SetFamily.power_set(6),
        }[host]()
        r = alpha(H, parse_poset_spec(spec), mode, objective, budget)
        # Budgeted outcomes also pin the witness masks.
        got = (r.value, r.exhaustive, r.nodes_explored, r.witness.masks())
        assert got[: len(outcome)] == outcome

    def test_only_uncapped_walks_pack_copies(self, monkeypatch):
        # The copy packing is built in every walk without a chain cap, on any
        # host, where its copies become parts of the capacity partition. The
        # capped walks below take their freeness answers from completers'
        # mask rules, so they ask embeds_using nothing; induced K:2,2 packs,
        # one call per set from last to first before the walk, which a
        # budget of 0 nodes leaves alone. On the whole cube, the rows are
        # built first, so that their capacity searches' own packing calls
        # are not counted.
        calls = []
        asked = EmbeddingSearch.embeds_using

        def counted(search, allowed, z):
            calls.append(z)
            return asked(search, allowed, z)

        monkeypatch.setattr(EmbeddingSearch, "embeds_using", counted)
        for n, k, spec in [(12, 3, "chain:3"), (10, 2, "diamond:2")]:
            H = interval_chain(IntervalChainSpec.canonical(n, k))
            assert alpha(H, parse_poset_spec(spec)).exhaustive
            assert calls == []
        H = interval_chain(IntervalChainSpec.canonical(14, 2))
        K22 = parse_poset_spec("K:2,2")
        assert alpha(H, K22, "induced", "cardinality", 0).nodes_explored == 1
        assert calls == list(reversed(range(len(H))))
        got = alpha(H, K22, "induced", "cardinality", 150_000)
        assert (got.value, got.exhaustive, got.nodes_explored) == (17, True, 108_561)
        cube = SetFamily.power_set(4)
        double_count_rows(cube, K22, "induced")
        calls.clear()
        assert alpha(cube, K22, "induced", "cardinality", 0).nodes_explored == 1
        assert calls == list(reversed(range(len(cube))))

    def test_a_packed_copy_refuses_its_last_set(self, monkeypatch):
        # {1}, {2}, {1,2,3}, {1,2,4} are one induced copy of K:2,2, packed
        # as one part with cap |P| - 1 = 3: once the first three sets are
        # taken, the part is full and refuses the last set without asking
        # embeds_using whether the whole host holds a copy through it.
        calls = []
        asked = EmbeddingSearch.embeds_using

        def counted(search, allowed, z):
            calls.append((allowed, z))
            return asked(search, allowed, z)

        monkeypatch.setattr(EmbeddingSearch, "embeds_using", counted)
        H = SetFamily.from_masks(4, [0b0001, 0b0010, 0b0111, 0b1011])
        got = alpha(H, parse_poset_spec("K:2,2"), "induced")
        assert (got.value, got.exhaustive, got.nodes_explored) == (3, True, 8)
        assert len(calls) == 7
        assert (0b1111, 3) not in calls

    @pytest.mark.parametrize(
        "host, spec, objective, step, full, digest",
        [
            # Two passes, rows, orbits and dead sets in both.
            (
                SetFamily.power_set(4), "diamond:2", "lubell", 1, 285,
                "f041062bf9c8658c99b99631f100ef458936d053a3e71d141f8652cf7d54be95",
            ),
            # One include-first pass with dead sets, through the diamond kernels.
            (
                interval_chain(IntervalChainSpec.canonical(10, 2)), "diamond:2",
                "cardinality", 29, 3_019,
                "b54b4ec35c49347a33377eb93bda37b7b70d74b126c3eb0fe41ca21fd31b25fb",
            ),
        ],
        ids=["2^[4]-lubell", "C_2[10]-cardinality"],
    )
    def test_every_budget_stops_on_the_same_node(self, host, spec, objective, step, full, digest):
        # A budget of b nodes stops at node b + 1 wherever it falls, also in
        # a run of exclude branches taken in place; the digest pins the
        # (value, witness) seen at each budget.
        P = parse_poset_spec(spec)
        assert alpha(host, P, "weak", objective).nodes_explored == full
        budgets = sorted({*range(1, full + 1, step), full})
        seen = []
        last = 0
        for b in budgets:
            r = alpha(host, P, "weak", objective, b)
            assert r.nodes_explored == min(b + 1, full)
            assert r.exhaustive == (b >= full)
            assert find_subposet(r.witness, P, "weak") is None
            worth = len(r.witness) if objective == "cardinality" else lubell(r.witness)
            assert worth == r.value >= last
            last = r.value
            seen.append((r.value, r.witness.masks()))
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


def first_optimum_by_copies(H, P, mode, objective):
    """first_optimum, with freeness read off the copies of P in H: a family
    is P-free when it holds no copy's sets. Fast enough for 10-set hosts."""
    m = len(H)
    copies = copy_edges(H, P, mode)
    worth = [1 if objective == "cardinality" else Fraction(1, comb(H.n, s.weight)) for s in H]
    best = None
    for picks in range(1 << m):
        if any(picks & c == c for c in copies):
            continue
        value = sum((worth[i] for i in range(m) if picks >> i & 1), 0)
        key = (value, tuple(picks >> i & 1 for i in range(m)))
        if best is None or key > best[0]:
            best = (key, picks)
    return best[0][0], SetFamily(H.n, (H.sets[i] for i in range(m) if best[1] >> i & 1))


def permute_mask(mask, perm):
    return sum(1 << perm[j] for j in range(len(perm)) if mask >> j & 1)


def chain_tables_by_suffix_sorts(order, chains, values, cap):
    """_chain_tables by its definition: top(p, k) read off a sort of every
    suffix of every chain."""
    position = [0] * len(order)
    for p, i in enumerate(order):
        position[i] = p
    chain_of = [0] * len(order)
    inc = [[]] * len(order)
    exc = [[]] * len(order)
    root_bound = 0
    for c, members in enumerate(chains):
        ps = sorted(position[i] for i in members)
        top = []
        for j in range(len(ps) + 1):
            ahead = sorted((values[order[p]] for p in ps[j:]), reverse=True)
            top.append([sum(ahead[: cap - k]) for k in range(cap + 1)])
        root_bound += top[0][0]
        for j, p in enumerate(ps):
            chain_of[p] = c
            inc[p] = [
                values[order[p]] + top[j + 1][k + 1] - top[j][k]
                for k in range(min(cap - 1, j) + 1)
            ]
            exc[p] = [top[j + 1][k] - top[j][k] for k in range(min(cap, j) + 1)]
    return chain_of, inc, exc, root_bound


def fractional_knapsack(weights, values, p, r):
    """The floor of the fractional knapsack optimum over items p, p+1, ...
    with capacity r, item by item in Fraction arithmetic; weightless items are
    taken whole."""
    got = Fraction(sum(v for w, v in zip(weights[p:], values[p:]) if not w))
    room = Fraction(r)
    items = [(w, v) for w, v in zip(weights[p:], values[p:]) if w]
    for w, v in sorted(items, key=lambda item: Fraction(item[1], item[0]), reverse=True):
        part = min(Fraction(1), room / w)
        got += part * v
        room -= part * w
    return floor(got)


class TestSearchTables:
    """The tables alpha builds per call, against their definitions."""

    def test_chain_tables_match_suffix_sorts(self):
        rng = random.Random(25)
        for _ in range(300):
            m = rng.randint(0, 14)
            order = list(range(m))
            rng.shuffle(order)
            chain_of = [rng.randrange(max(1, m // 2)) for _ in range(m)]
            chains = [[i for i in range(m) if chain_of[i] == c] for c in sorted(set(chain_of))]
            values = [rng.randint(1, 9) if rng.random() < 0.7 else 1 for _ in range(m)]
            cap = rng.randint(0, 5)
            assert solver._chain_tables(order, chains, values, cap) == (
                chain_tables_by_suffix_sorts(order, chains, values, cap)
            )

    def test_knapsack_bound_matches_fractional_knapsack(self):
        rng = random.Random(26)
        for _ in range(200):
            # Runs of equal items, as the levels of a host give, some with
            # no weight, and equal runs that are not adjacent.
            kinds = [(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
            weights, values = [], []
            for _ in range(rng.randint(0, 6)):
                w, v = rng.choice(kinds)
                count = rng.randint(1, 4)
                weights += [w] * count
                values += [v] * count
            bound = solver._knapsack_bound(weights, values)
            # Up to p past every run, and r from 0 to past every weight.
            total = sum(weights)
            for p in range(len(weights) + 2):
                for r in {0, 1, 2, rng.randint(0, total), rng.randint(0, total), total, total + 1}:
                    assert bound(p, r) == fractional_knapsack(weights, values, p, r)

    def test_zero_weight_runs_are_free(self):
        # Items p.. with weights 0 0 2 2 and values 1 1 3 3: the weightless
        # pair at any capacity, then 3 per 2 capacity.
        bound = solver._knapsack_bound([0, 0, 2, 2], [1, 1, 3, 3])
        assert [bound(0, r) for r in range(6)] == [2, 3, 5, 6, 8, 8]
        assert [bound(1, 0), bound(2, 0), bound(2, 3), bound(4, 9)] == [1, 0, 4, 0]
        # A weightless run between two weighted ones, at capacity 0.
        assert solver._knapsack_bound([2, 0, 2], [3, 1, 3])(0, 0) == 1


class TestOrbitalBranching:
    """On unions of full levels the search forces a set's orbit out with it."""

    def test_orbits_match_brute_force_over_all_permutations(self):
        rng = random.Random(20)
        for _ in range(60):
            n = rng.randint(1, 5)
            # All of 2^[n] in mask order, so a set's position is its mask.
            masks = list(range(1 << n))
            chosen = rng.sample(masks, rng.randint(0, min(3, len(masks))))
            blocks = ((1 << n) - 1,) if n >= 2 else None
            for a in chosen:
                blocks = blocks and solver._split_blocks(blocks, a)
            if blocks is None:
                # Every block has at most one element: the group is trivial.
                orbits = [1 << i for i in range(len(masks))]
            else:
                assert sum(blocks) == (1 << n) - 1
                assert all(b & c == 0 for b, c in itertools.combinations(blocks, 2))
                orbits = solver._orbits(tuple(masks), blocks)
            fixing = [
                perm
                for perm in itertools.permutations(range(n))
                if all(permute_mask(a, perm) == a for a in chosen)
            ]
            assert (len(fixing) == 1) == (blocks is None)
            for a in masks:
                images = {permute_mask(a, perm) for perm in fixing}
                assert orbits[a] == sum(1 << image for image in images)

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_value_and_witness_match_include_first_brute_force(self, objective, mode):
        rng = random.Random(21)
        hosts = [
            SetFamily.power_set(3),
            SetFamily.levels(4, [1, 2]),
            SetFamily.levels(4, [0, 2, 4]),
            SetFamily.levels(4, [1, 3]),
            SetFamily.levels(5, [1, 4]),
        ]
        for H in hosts:
            for _ in range(4):
                P = random_poset(rng, rng.randint(3, 4))
                fast = alpha(H, P, mode, objective)
                value, witness = first_optimum_by_copies(H, P, mode, objective)
                assert fast.exhaustive
                assert fast.value == value
                assert fast.witness == witness


class TestHypergraphOracle:
    """The solver against hypergraph_alpha, which shares none of its pruning,
    on hosts too large for brute_alpha."""

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize(
        "spec", ["chain:3", "diamond:2", "K:2,2,2", "antichain:4", "product:(diamond:1,diamond:2)"]
    )
    def test_whole_cube_of_four_for_the_readme_patterns(self, spec, mode):
        P = parse_poset_spec(spec)
        H = SetFamily.power_set(4)
        assert la_exact(4, P, mode).value == hypergraph_alpha(H, P, mode)
        assert lubell_max(4, P, mode).value == hypergraph_alpha(H, P, mode, "lubell")

    @pytest.mark.parametrize("spec, value", [("diamond:2", 20), ("K:2,2", 20), ("K:1,2", 13)])
    def test_whole_cube_of_five(self, spec, value):
        P = parse_poset_spec(spec)
        assert la_exact(5, P).value == value == hypergraph_alpha(SetFamily.power_set(5), P)

    def test_random_hosts_of_five(self):
        rng = random.Random(7)
        patterns = ["chain:3", "diamond:1", "diamond:2", "K:1,2", "K:2,2", "antichain:3"]
        for _ in range(6):
            H = random_family(rng, 5, rng.randint(16, 24))
            P = parse_poset_spec(rng.choice(patterns))
            for mode in ("weak", "induced"):
                for objective in ("cardinality", "lubell"):
                    got = alpha(H, P, mode, objective)
                    assert got.exhaustive
                    assert got.value == hypergraph_alpha(H, P, mode, objective)

    def test_random_host_of_23_sets(self):
        # The fourth draw above: 750,295 nodes with the chain bound alone.
        rng = random.Random(7)
        for _ in range(4):
            H = random_family(rng, 5, rng.randint(16, 24))
            spec = rng.choice(["chain:3", "diamond:1", "diamond:2", "K:1,2", "K:2,2", "antichain:3"])
        assert (len(H), spec) == (23, "K:2,2")
        got = alpha(H, parse_poset_spec(spec), "weak", "lubell")
        assert (got.value, got.exhaustive, got.nodes_explored) == (Fraction(11, 5), True, 107_876)
        assert got.value == hypergraph_alpha(H, parse_poset_spec(spec), "weak", "lubell")

    @pytest.mark.parametrize(
        "n, k, spec, mode, objective, value",
        [
            (14, 2, "K:2,2", "induced", "cardinality", 17),
            (14, 2, "diamond:2", "induced", "cardinality", 15),
            (14, 4, "chain:3", "weak", "lubell", 2),
            # The k = 3 capacity search of double_count_rows(2^[7], diamond:3).
            (7, 3, "diamond:3", "weak", "cardinality", 12),
        ],
    )
    def test_interval_chains_the_chain_bound_left_open(self, n, k, spec, mode, objective, value):
        H = interval_chain(IntervalChainSpec.canonical(n, k))
        P = parse_poset_spec(spec)
        got = alpha(H, P, mode, objective)
        assert got.exhaustive
        assert got.value == value == hypergraph_alpha(H, P, mode, objective)

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("spec", ["chain:3", "diamond:2", "K:2,2", "K:1,2", "K:2,2,2"])
    def test_copy_bounds_keep_value_and_witness(self, spec, mode, objective):
        # Hosts of at most 12 sets that are not unions of full levels, so
        # they get the copy bounds: dead sets for chain:3 and diamond:2, and
        # for K:2,2 and K:1,2 in weak mode; packed copies as parts of the
        # capacity partition for the induced patterns other than chain:3,
        # diamond:2 among them; neither for K:2,2,2 in weak mode. The brute force also checks
        # hypergraph_first_optimum.
        rng = random.Random(f"{spec}-{mode}-{objective}")
        P = parse_poset_spec(spec)
        for _ in range(4):
            H = random_family(rng, rng.randint(4, 5), rng.randint(6, 12))
            while solver._complete_levels(H):
                H = random_family(rng, H.n, len(H))
            got = alpha(H, P, mode, objective)
            value, witness = first_optimum_by_copies(H, P, mode, objective)
            assert got.exhaustive
            assert got.value == value == hypergraph_alpha(H, P, mode, objective)
            assert got.witness == witness
            assert hypergraph_first_optimum(H, P, mode, objective) == (value, witness)

    # Induced D_2 on hosts without rows takes dead sets through the mask rule
    # of EmbeddingSearch.completers. These hosts are too large for
    # first_optimum_by_copies (2^|H| families), so the witness is checked
    # against hypergraph_first_optimum, which the test above checks against
    # it on small hosts.

    def test_induced_diamond_on_a_three_interval_chain(self):
        # Without dead sets this search stopped at 13 after 300,000 nodes.
        H = interval_chain(IntervalChainSpec.canonical(10, 3))
        P = parse_poset_spec("diamond:2")
        got = alpha(H, P, "induced", "cardinality", 300_000)
        # One oracle call, about 3 s: the value is hypergraph_alpha's search
        # under weights that also break ties.
        value, witness = hypergraph_first_optimum(H, P, "induced")
        assert (got.value, got.exhaustive, got.nodes_explored) == (15, True, 263_465)
        assert got.value == value and got.witness == witness

    @pytest.mark.parametrize("objective", ["cardinality", "lubell"])
    def test_induced_diamond_on_random_hosts_of_26_sets(self, objective):
        # Without dead sets these searches took 1.4 * 10^5 to 8.7 * 10^6 nodes.
        P = parse_poset_spec("diamond:2")
        for seed in range(4):
            rng = random.Random(f"induced-diamond:{seed}")
            H = SetFamily.from_masks(6, rng.sample(range(64), 26))
            got = alpha(H, P, "induced", objective)
            value, witness = hypergraph_first_optimum(H, P, "induced", objective)
            assert got.exhaustive
            assert got.value == value == hypergraph_alpha(H, P, "induced", objective)
            assert got.witness == witness



def level_windows(n):
    """Every run of consecutive levels of 2^[n] with a level strictly inside."""
    for low in range(n):
        for high in range(max(low, 1), n + 1):
            yield SetFamily.levels(n, range(low, high + 1))


class TestLevelWindows:
    """Unions of full levels: rows and orbits in both passes, dead sets in
    the canonical witness pass, against the copy-hypergraph oracles, which
    share none of that pruning."""

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    @pytest.mark.parametrize("spec", ["chain:2", "chain:3", "diamond:2", "K:2,2", "K:1,2", "K:1,3"])
    def test_value_and_witness_match_the_copy_hypergraph(self, spec, mode):
        P = parse_poset_spec(spec)
        windows = [*level_windows(4), *level_windows(5)]
        assert len(windows) == 13 + 19
        for H in windows:
            for objective in ("cardinality", "lubell"):
                got = alpha(H, P, mode, objective)
                value, witness = hypergraph_first_optimum(H, P, mode, objective)
                assert got.exhaustive
                assert (got.value, got.witness) == (value, witness)
                # hypergraph_first_optimum's value is hypergraph_alpha's
                # search under weights that also break ties; on 2^[5] the
                # second search would double the cost of this test.
                if H.n == 4:
                    assert value == hypergraph_alpha(H, P, mode, objective)

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_relabelled_pattern(self, mode):
        # The benchmark relabels its patterns through poset_from_relations,
        # which moves EmbeddingSearch's element order and kernel inputs.
        P = poset_from_relations([(2, 0), (2, 3), (2, 1), (0, 1), (3, 1)], 4)
        assert P.diamond_width() == 2
        H = SetFamily.levels(5, range(1, 5))
        for objective in ("cardinality", "lubell"):
            got = alpha(H, P, mode, objective)
            assert got == alpha(H, diamond(2), mode, objective)
            value, witness = hypergraph_first_optimum(H, P, mode, objective)
            assert (got.value, got.witness) == (value, witness)


class TestIncludeRules:
    """The walk's two include rules: completers' dead sets in every pass, or
    the include test as each set comes."""

    def test_dead_sets_match_the_include_test(self, monkeypatch):
        # Patterns and modes with a mask rule of completers; C_3[9] takes
        # only the cheap ones, since its include-test walks for diamond:2
        # take up to 2 * 10^6 nodes.
        rule_specs = [
            ("chain:2", "weak"), ("chain:3", "weak"), ("diamond:2", "weak"),
            ("K:1,2", "weak"), ("K:2,1", "weak"), ("K:2,2", "weak"),
            ("chain:2", "induced"), ("chain:3", "induced"), ("diamond:2", "induced"),
        ]
        rng = random.Random(33)
        hosts = [
            (SetFamily.power_set(3), rule_specs),
            (SetFamily.power_set(4), rule_specs),
            (SetFamily.levels(4, [0, 2, 3]), rule_specs),
            (SetFamily.levels(5, [1, 2]), rule_specs),
            (SetFamily.levels(5, [2, 3, 4]), rule_specs),
            (interval_chain(IntervalChainSpec.canonical(8, 2)), rule_specs),
            (
                interval_chain(IntervalChainSpec.canonical(9, 3)),
                [("chain:2", "weak"), ("chain:3", "weak"), ("K:1,2", "weak")],
            ),
        ]
        for _ in range(4):
            n = rng.randint(3, 5)
            masks = rng.sample(range(1 << n), rng.randint(6, min(14, 1 << n)))
            hosts.append((SetFamily.from_masks(n, masks), rule_specs))

        def run():
            return [
                alpha(H, parse_poset_spec(spec), mode, objective)
                for H, specs in hosts
                for spec, mode in specs
                for objective in ("cardinality", "lubell")
            ]

        eager = run()
        monkeypatch.setattr(EmbeddingSearch, "completers_by_masks", False)
        monkeypatch.setattr(EmbeddingSearch, "embeds_by_kernel", False)
        lazy = run()
        for e, z in zip(eager, lazy):
            assert (e.value, e.witness, e.exhaustive) == (z.value, z.witness, z.exhaustive)
            assert e.nodes_explored <= z.nodes_explored
        assert sum(e.nodes_explored for e in eager) < sum(z.nodes_explored for z in lazy)


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

    def test_induced_claw_and_its_dual_agree_at_five(self):
        # Complementing every set maps induced K:3,1-free families of 2^[5]
        # onto induced K:1,3-free ones. Packed copies of K:3,1 as parts of
        # the capacity partition prove 19 in 1,285,445 nodes.
        got = la_exact(5, parse_poset_spec("K:3,1"), "induced", node_budget=1_500_000)
        assert (got.value, got.exhaustive) == (19, True)
        assert la_exact(5, parse_poset_spec("K:1,3"), "induced").value == 19
        complements = SetFamily.from_masks(5, [0b11111 ^ mask for mask in got.witness.masks()])
        assert not brute_contains(complements, parse_poset_spec("K:1,3"), "induced")

    @pytest.mark.parametrize(
        "spec, dual, nodes", [("K:1,2", "K:2,1", 5_041_907), ("K:2,1", "K:1,2", 3_871_184)]
    )
    def test_v_free_values_at_six(self, spec, dual, nodes):
        # La(6, V) for the V-free families of Katona and Tarjan (1983) and
        # their duals, proved unseeded by the value pass's dead sets.
        # Complementing every set maps a family free of one onto a family
        # free of the other.
        P = parse_poset_spec(spec)
        got = la_exact(6, P)
        assert (got.value, got.exhaustive, got.nodes_explored) == (24, True, nodes)
        assert find_subposet(got.witness, P) is None
        complements = SetFamily.from_masks(6, [0b111111 ^ mask for mask in got.witness.masks()])
        assert find_subposet(complements, parse_poset_spec(dual)) is None

    @pytest.mark.parametrize("spec, mode", [("K:2,2", "induced"), ("diamond:2", "weak")])
    def test_repeated_searches_take_the_same_nodes(self, spec, mode):
        # Calls share 2^[n] and its tables, but each builds its own
        # EmbeddingSearch, whose kept copies choose the induced packing.
        first = la_exact(4, parse_poset_spec(spec), mode)
        assert la_exact(4, parse_poset_spec(spec), mode) == first

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

    def test_pair_counts_stop_above_six(self):
        # At n = 7 the pairs are not counted, so the identity holds vacuously.
        report = verify_double_counting(maximal_chain_family(7), chain(2), SetFamily.levels(7, [1]))
        assert report.holds and report.lhs == 1 and report.alpha_value == 1
        assert not report.exhaustive and report.identity_holds
        assert report.pairs_by_sets is None and report.pairs_by_permutations is None

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
