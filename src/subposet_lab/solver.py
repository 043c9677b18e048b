"""Exact extremal computations over set families at desk scale.

alpha() maximizes cardinality or Lubell mass over pattern-free subfamilies of
a fixed family by depth-first branch and bound; it is the brute-force oracle
against which every closed-form bound is checked. On unions of full levels it
also prunes with the paper's double count over interval chains. The n-guard
on whole-cube searches reflects that 2^(2^n) subfamily spaces are only
reachable through pruning.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Union

from .errors import (
    GuardRefused,
    InvariantViolated,
    PFreenessViolated,
    PreconditionViolated,
)
from .families import (
    IntervalChainSpec,
    SetFamily,
    interval_chain,
    min_chain_partition,
    permutation_hit_count,
    permutation_images,
)
from .posets import EmbeddingSearch, Poset, find_subposet

N_GUARD = 7
MAX_HOST_SETS = 512
# Double-count rows use the k-interval chains for k <= ROW_MAX_K, and a row's
# capacity search is dropped, with its row, after CAPACITY_NODE_CAP nodes.
ROW_MAX_K = 3
CAPACITY_NODE_CAP = 200_000
_ROW_CACHE: dict[tuple, tuple[int, dict[int, int], int] | None] = {}


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an exact search: the optimum, a witness family attaining it,
    whether the search ran to completion, and the nodes of all its passes."""

    value: Union[int, Fraction]
    witness: SetFamily
    mode: str
    objective: str
    exhaustive: bool
    nodes_explored: int

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "value": str(self.value) if isinstance(self.value, Fraction) else self.value,
            "objective": self.objective,
            "mode": self.mode,
            "exhaustive": self.exhaustive,
            "witness": [list(s.elements()) for s in self.witness],
            "nodes_explored": self.nodes_explored,
        }


def _complete_levels(H: SetFamily) -> tuple[int, ...]:
    """H's set sizes if H is a union of full levels of 2^[n], else ()."""
    sizes = Counter(s.weight for s in H)
    if any(count != comb(H.n, w) for w, count in sizes.items()):
        return ()
    return tuple(sorted(sizes))


def double_count_rows(
    H: SetFamily, P: Poset, mode: str
) -> tuple[tuple[int, dict[int, int], int], ...]:
    """The paper's double count over k-interval chains, as knapsack rows.

    Let G be the canonical k-interval chain restricted to the set sizes
    occurring in H. Every permuted copy of G meets a P-free F within H in at
    most alpha(G, P, mode) sets, and a size-w set lies in N_w(G) w! (n-w)! of
    the n! copies, so averaging over the permutations gives
    sum over A in F of N_|A|(G) / C(n, |A|) <= alpha(G, P, mode).
    This holds for every host H within 2^[n].

    Returns one (k, {w: N_w(G)}, alpha(G, P, mode)) row per
    1 <= k <= min(ROW_MAX_K, n - 1) whose capacity search finished within
    CAPACITY_NODE_CAP nodes when H is a union of full levels of 2^[n], and no
    rows for any other host. The rows are withheld there for cost, not
    validity: on a sparse host they bind little, and their capacity searches
    can cost more than the search they prune. Capacities are cached per
    (n, k, levels, P, mode).
    """
    levels = _complete_levels(H)
    if not levels:
        return ()
    rows = []
    for k in range(1, min(ROW_MAX_K, H.n - 1) + 1):
        key = (H.n, k, levels, P.rows, mode)
        if key not in _ROW_CACHE:
            chain_sets = interval_chain(IntervalChainSpec.canonical(H.n, k))
            G = SetFamily(H.n, (s for s in chain_sets if s.weight in levels))
            # No rows for G: it can be a union of full levels itself (H holds
            # levels 0 and n only), and building its rows would recurse.
            found = _search(G, P, mode, "cardinality", CAPACITY_NODE_CAP, ())
            counts = dict(Counter(s.weight for s in G))
            _ROW_CACHE[key] = (k, counts, found.value) if found.exhaustive else None
        if _ROW_CACHE[key] is not None:
            rows.append(_ROW_CACHE[key])
    return tuple(rows)


def _chain_tables(order: list[int], chains: list[list[int]], values: list[int], cap: int):
    """Chain-capacity increments for branching through H in `order`.

    For the set at position p of its chain with k of the chain's earlier sets
    chosen, the bound moves by inc[p][k] on include and exc[p][k] on exclude,
    where a chain's share is top(p, k) = the cap - k largest values among its
    members from position p on. Tables are indexed by branching position.
    """
    position = [0] * len(order)
    for p, i in enumerate(order):
        position[i] = p
    chain_of = [0] * len(order)
    inc: list[list[int]] = [[]] * len(order)
    exc: list[list[int]] = [[]] * len(order)
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


def _knapsack_bound(weights: list[int], values: list[int]):
    """bound(p, r): the floor of the fractional knapsack optimum over items
    p, p+1, ... with capacity r.

    Runs of equal (weight, value) items, such as the sets of one level, are
    filled greedily by value per weight; a run is cut short at the capacity.
    """
    runs: list[list[int]] = []  # [start, end, weight, value]
    for p, item in enumerate(zip(weights, values)):
        if runs and runs[-1][2:] == list(item):
            runs[-1][1] = p + 1
        else:
            runs.append([p, p + 1, *item])
    runs.sort(key=lambda run: Fraction(run[3], run[2]), reverse=True)
    ahead = [
        [(end - max(start, p), w, v) for start, end, w, v in runs if end > p]
        for p in range(len(weights) + 1)
    ]

    def bound(p: int, r: int) -> int:
        got = 0
        for count, w, v in ahead[p]:
            if count * w > r:
                return got + r * v // w
            got += count * v
            r -= count * w
        return got

    return bound


def _row_step(knapsacks: list, weights: tuple[int, ...], p: int, left: tuple[int, ...]):
    """The rows at branching position p with unused capacities `left`: the
    least knapsack bound of the sets from p on, and the capacities left after
    taking set p (None when it overflows a row)."""
    after = tuple(r - w for r, w in zip(left, weights))
    return (
        min(knapsack(p, r) for knapsack, r in zip(knapsacks, left)),
        after if min(after) >= 0 else None,
    )


def alpha(
    H: SetFamily,
    P: Poset,
    mode: str = "weak",
    objective: str = "cardinality",
    node_budget: int | None = None,
) -> ExtremalResult:
    """Exact optimum over P-free subfamilies of H.

    Branches include-first through H. Adding a set that completes a copy of
    P kills the include branch (freeness is closed under removal). A node is
    pruned when its chain-capacity bound cannot beat the incumbent: H is cut
    into as few chains as its width (min_chain_partition: the symmetric chain
    decomposition's cut, made minimum by matching), and any |P| sets on one
    chain hold a weak copy of P (an induced one when P is a chain), so a
    P-free family takes at most cap = |P| - 1 sets of each chain. The bound
    is the value so far plus, per chain, the cap - chosen largest values
    among its undecided members; with no cap (induced mode, P not a chain) it
    is the value so far plus everything still ahead. A chain already holding
    cap sets refuses further sets without a freeness check. Lubell values are
    scaled to integers by the lcm of the binomials involved, so no node does
    Fraction arithmetic.

    When H is a union of full levels of 2^[n] (the power set, a middle-levels
    window), the knapsack rows of double_count_rows prune too: a node is cut
    when the value so far plus the floor of the fractional knapsack optimum
    of the undecided sets under one row's remaining capacity cannot beat the
    incumbent, and a set that overflows a row is refused without a freeness
    check. Such hosts are searched twice (once when the first order below is
    the canonical one):

    1. to exhaustion for the optimum v, in the order where good families
       come early: middle-out (by |2|A| - n|, then canonically) for
       cardinality, from the outer levels inward for Lubell mass;
    2. include-first in canonical order with the incumbent at v - 1,
       stopping at the first family of value v.

    Other hosts (interval chains, arbitrary families) get no rows, for cost
    (see double_count_rows), and only the include-first pass. Either way
    include-first order with strict improvement makes the witness the
    lexicographically least optimum over canonical indices, and
    nodes_explored counts the nodes of both passes (not those of the
    capacity searches behind the rows). Both passes run one iterative loop
    over a list of pending branches, so the search's depth in Python frames
    does not grow with the host.

    Hitting the node budget returns a valid lower bound flagged
    non-exhaustive: a stop in the first pass returns its incumbent, which
    need not be the include-first witness; a stop in the second pass returns
    the proven value v with the first pass's witness. Hosts above
    MAX_HOST_SETS sets are refused before any work. The comparability masks
    cost |H| * n mask operations (containment_masks); the cap bounds what
    still grows faster with the host, the chain partition's matching on
    hosts that are not unions of full levels, the chain tables and the
    |H|-bit masks the search carries, to the size of 2^[9], the largest
    whole cube it accepts.
    """
    if P.size < 1:
        raise ValueError("pattern must have at least one element")
    if objective not in ("cardinality", "lubell"):
        raise ValueError(f"unknown objective {objective!r}")
    if len(H) > MAX_HOST_SETS:
        raise PreconditionViolated(
            f"host has {len(H)} sets; the exact search handles at most {MAX_HOST_SETS}"
        )
    return _search(H, P, mode, objective, node_budget, double_count_rows(H, P, mode))


def _search(
    H: SetFamily,
    P: Poset,
    mode: str,
    objective: str,
    node_budget: int | None,
    rows: tuple[tuple[int, dict[int, int], int], ...],
) -> ExtremalResult:
    """alpha's branch and bound, pruning with the given double-count rows."""
    search = EmbeddingSearch(H, P, mode)
    members = H.sets
    m = len(members)

    # Lubell values and row weights are scaled to integers by the lcm of the binomials.
    unit = lcm(*(comb(H.n, s.weight) for s in members))
    if objective == "cardinality":
        scale = 1
        values = [1] * m
    else:
        scale = unit
        values = [unit // comb(H.n, s.weight) for s in members]
    if mode == "weak" or P.height() == P.size:
        index = {s.mask: i for i, s in enumerate(members)}
        chains = [[index[s.mask] for s in c] for c in min_chain_partition(H)]
        cap = P.size - 1
    else:
        # No cap: every set is a chain of its own that may hold it.
        chains = [[i] for i in range(m)]
        cap = 1
    # Row weights N_w / C(n, w) and capacities, scaled by the same unit.
    row_weights = [
        [counts[s.weight] * (unit // comb(H.n, s.weight)) for s in members]
        for _, counts, _ in rows
    ]
    row_caps = tuple(capacity * unit for _, _, capacity in rows)
    chain_bits = [sum(1 << i for i in c) for c in chains]
    embeds_using = search.embeds_using

    best_value = -1
    best_mask = 0
    nodes = 0

    def walk(order: list[int], stop_at_first: bool) -> bool:
        """Branch through H in `order`, include first, improving the incumbent;
        with stop_at_first the first improving leaf ends the walk. Returns
        False when the node budget runs out."""
        nonlocal best_value, best_mask, nodes
        chain_of, inc, exc, root_bound = _chain_tables(order, chains, values, cap)
        # Per branching position: (set index, its bit, its chain's bits,
        # include and exclude increments, the set's value).
        steps = [
            (i, 1 << i, chain_bits[chain_of[p]], inc[p], exc[p], values[i])
            for p, i in enumerate(order)
        ]
        if rows:
            weights = [tuple(w[i] for w in row_weights) for i in order]
            knapsacks = [
                _knapsack_bound([w[i] for i in order], [values[i] for i in order])
                for w in row_weights
            ]
            # _row_step's answer per (p, unused capacity per row).
            memo: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...] | None]] = {}
        # A stack of exclude branches: (branching position, mask of the chosen
        # sets' canonical indices, value so far, bound, unused capacity per
        # row). The include branch is taken in place, so each include subtree
        # is finished before the exclude branch under it is popped. A chain's
        # chosen count is read off the mask.
        pending = [(0, 0, 0, root_bound, row_caps)]
        while pending:
            p, mask, value, bound, left = pending.pop()
            while True:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return False
                if p == m:
                    # At a leaf every chain is decided and bound is the family's value.
                    if bound > best_value:
                        best_value = bound
                        best_mask = mask
                        if stop_at_first:
                            return True
                    break
                if bound <= best_value:
                    break
                taken = left
                if rows:
                    got = memo.get((p, left))
                    if got is None:
                        got = memo[p, left] = _row_step(knapsacks, weights[p], p, left)
                    room, taken = got
                    if value + room <= best_value:
                        break
                i, bit, bits, inc_p, exc_p, worth = steps[p]
                k = (mask & bits).bit_count()
                pending.append((p + 1, mask, value, bound + exc_p[k], left))
                if taken is None or k >= cap or embeds_using(mask | bit, i):
                    break
                p, mask, value, bound, left = (
                    p + 1, mask | bit, value + worth, bound + inc_p[k], taken
                )
        return True

    canonical = list(range(m))
    first = canonical
    if rows:
        # Look first where the optimum usually lies: the middle levels hold
        # the most sets, the outer ones weigh most in Lubell mass.
        outward = 1 if objective == "cardinality" else -1
        distance = [outward * abs(2 * s.weight - H.n) for s in members]
        first = sorted(canonical, key=lambda i: (distance[i], i))
    # When the value pass branches in canonical order anyway, it finds both
    # the value and the canonical witness.
    exhaustive = walk(first, False)
    if exhaustive and first != canonical:
        best_value -= 1
        exhaustive = walk(canonical, True)
        if not exhaustive:
            # No second-pass leaf was reached (the first one ends the pass):
            # the incumbent is still the first pass's optimum and witness.
            best_value += 1

    if best_value < 0:
        # Budget died before reaching any leaf; the empty family is always valid.
        best_value = 0
    value = best_value if objective == "cardinality" else Fraction(best_value, scale)
    witness = SetFamily(H.n, (members[i] for i in range(m) if best_mask >> i & 1))
    return ExtremalResult(value, witness, mode, objective, exhaustive, nodes)


def _guard(n: int, override: bool) -> None:
    """Refuse a whole-cube search before 2^[n] is built."""
    if n < 0:
        raise PreconditionViolated(f"need n >= 0, got {n}")
    if n > N_GUARD and not override:
        raise GuardRefused(
            f"n={n} exceeds the exhaustive-search guard ({N_GUARD}); "
            "pass override=True (CLI: --override-guard) to search anyway"
        )
    # 2^n > MAX_HOST_SETS exactly when n reaches its bit length; no 2^n is built.
    if n >= MAX_HOST_SETS.bit_length():
        raise PreconditionViolated(
            f"host has 2^{n} sets; the exact search handles at most {MAX_HOST_SETS}"
        )


def la_exact(
    n: int,
    P: Poset,
    mode: str = "weak",
    override: bool = False,
    node_budget: int | None = None,
) -> ExtremalResult:
    """Largest P-free family in 2^[n], exactly."""
    _guard(n, override)
    return alpha(SetFamily.power_set(n), P, mode, "cardinality", node_budget)


def lubell_max(
    n: int,
    P: Poset,
    mode: str = "induced",
    override: bool = False,
    node_budget: int | None = None,
) -> ExtremalResult:
    """Maximum Lubell mass of a P-free family in 2^[n], exactly."""
    _guard(n, override)
    return alpha(SetFamily.power_set(n), P, mode, "lubell", node_budget)


@dataclass(frozen=True)
class DoubleCountingReport:
    """Both sides of the permutation double count for a P-free family.

    lhs is sum over the family of N_|A| / binom(n, |A|); it can never exceed
    alpha(H, P) because each of the n! permuted copies of H meets a P-free
    family in at most alpha(H, P) sets. In exhaustive mode the pair count
    (A, pi) with A in H^pi is computed both per-set (closed form) and
    per-permutation, and the two must agree.
    """

    lhs: Fraction
    alpha_value: int
    holds: bool
    mode: str
    exhaustive: bool
    pairs_by_sets: int | None = None
    pairs_by_permutations: int | None = None

    @property
    def identity_holds(self) -> bool:
        if not self.exhaustive:
            return True
        return self.pairs_by_sets == self.pairs_by_permutations


def verify_double_counting(
    H: SetFamily,
    P: Poset,
    A_family: SetFamily,
    mode: str = "weak",
) -> DoubleCountingReport:
    """Check the double-counting inequality for a concrete P-free family.

    The pair count is taken both ways (exhaustive mode) exactly when n <= 6.
    """
    if H.n != A_family.n:
        raise ValueError("H and the family live over different ground sets")
    if find_subposet(A_family, P, mode) is not None:
        raise PFreenessViolated("the candidate family contains the pattern")
    n = H.n
    lhs = Fraction(0)
    for a in A_family:
        lhs += Fraction(H.count_of_size(a.weight), comb(n, a.weight))
    alpha_res = alpha(H, P, mode)
    exhaustive = n <= 6
    pairs_by_sets = pairs_by_perms = None
    if exhaustive:
        pairs_by_sets = sum(permutation_hit_count(H, a) for a in A_family)
        fam_masks = frozenset(A_family.masks())
        pairs_by_perms = sum(len(fam_masks & moved) for moved in permutation_images(H))
        if pairs_by_sets > alpha_res.value * factorial(n):
            raise InvariantViolated(
                f"{pairs_by_sets} pairs exceed alpha * n! = {alpha_res.value * factorial(n)}"
            )
    return DoubleCountingReport(
        lhs=lhs,
        alpha_value=alpha_res.value,
        holds=lhs <= alpha_res.value,
        mode=mode,
        exhaustive=exhaustive,
        pairs_by_sets=pairs_by_sets,
        pairs_by_permutations=pairs_by_perms,
    )
