"""Exact extremal computations over set families at desk scale.

alpha() maximizes cardinality or Lubell mass over pattern-free subfamilies of
a fixed family by depth-first branch and bound in canonical order; it is the
brute-force oracle against which every closed-form bound is checked. The
n-guard on whole-cube searches reflects that 2^(2^n) subfamily spaces are only
reachable through pruning.
"""

from __future__ import annotations

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
    SetFamily,
    permutation_hit_count,
    permutation_images,
    symmetric_chain_partition,
)
from .posets import EmbeddingSearch, Poset, find_subposet

N_GUARD = 7
MAX_HOST_SETS = 512


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an exact search: the optimum, a witness family attaining it,
    and whether the search ran to completion."""

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


class _BudgetExhausted(Exception):
    pass


def alpha(
    H: SetFamily,
    P: Poset,
    mode: str = "weak",
    objective: str = "cardinality",
    node_budget: int | None = None,
) -> ExtremalResult:
    """Exact optimum over P-free subfamilies of H.

    Branches include-first through H in canonical order. Adding a set that
    completes a copy of P kills the include branch (freeness is closed under
    removal). A node is pruned when its chain-capacity bound cannot beat the
    incumbent: H is cut into chains by the symmetric chain decomposition, and
    any |P| sets on one chain hold a weak copy of P (an induced one when P is
    a chain), so a P-free family takes at most cap = |P| - 1 sets of each
    chain. The bound is the value so far plus, per chain, the cap - chosen
    largest values among its undecided members; with no cap (induced mode,
    P not a chain) it is the value so far plus everything still ahead. A
    chain already holding cap sets refuses further sets without a freeness
    check. Lubell values are scaled to integers by the lcm of the binomials
    involved, so no node does Fraction arithmetic.

    Include-first order with strict improvement makes the witness the
    lexicographically least optimum over canonical indices. Hitting the node
    budget returns the incumbent flagged non-exhaustive (a valid lower bound).
    Hosts above MAX_HOST_SETS sets are refused: the search recurses once per
    set.
    """
    if P.size < 1:
        raise ValueError("pattern must have at least one element")
    if objective not in ("cardinality", "lubell"):
        raise ValueError(f"unknown objective {objective!r}")
    if len(H) > MAX_HOST_SETS:
        raise PreconditionViolated(
            f"host has {len(H)} sets; the exact search handles at most {MAX_HOST_SETS}"
        )
    search = EmbeddingSearch(H, P, mode)
    members = H.sets
    m = len(members)

    if objective == "cardinality":
        scale = 1
        values = [1] * m
    else:
        scale = lcm(*(comb(H.n, s.weight) for s in members))
        values = [scale // comb(H.n, s.weight) for s in members]

    # For the set at position p of its chain with k of the chain's earlier
    # sets chosen, the bound moves by inc[idx][k] on include and exc[idx][k]
    # on exclude, where a chain's share is top(p, k) = the cap - k largest
    # values among its members from position p on.
    index = {s.mask: i for i, s in enumerate(members)}
    chain_of = [0] * m
    inc: list[list[int]] = [[]] * m
    exc: list[list[int]] = [[]] * m
    chains = symmetric_chain_partition(H)
    if mode == "weak" or P.height() == P.size:
        cap = P.size - 1
    else:
        cap = max(map(len, chains), default=0)  # never binds
    root_bound = 0
    for c, chain_sets in enumerate(chains):
        idxs = [index[s.mask] for s in chain_sets]
        top = []
        for p in range(len(idxs) + 1):
            ahead = sorted((values[i] for i in idxs[p:]), reverse=True)
            top.append([sum(ahead[: cap - k]) for k in range(cap + 1)])
        root_bound += top[0][0]
        for p, idx in enumerate(idxs):
            chain_of[idx] = c
            inc[idx] = [
                values[idx] + top[p + 1][k + 1] - top[p][k]
                for k in range(min(cap - 1, p) + 1)
            ]
            exc[idx] = [top[p + 1][k] - top[p][k] for k in range(min(cap, p) + 1)]
    chosen = [0] * len(chains)
    embeds_using = search.embeds_using

    best_value = -1
    best_mask = 0
    nodes = 0

    def dfs(idx: int, cur_mask: int, bound: int) -> None:
        # At a leaf every chain is decided and bound is the family's value.
        nonlocal best_value, best_mask, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _BudgetExhausted
        if idx == m:
            if bound > best_value:
                best_value = bound
                best_mask = cur_mask
            return
        if bound <= best_value:
            return
        c = chain_of[idx]
        k = chosen[c]
        if k < cap and not embeds_using(cur_mask | (1 << idx), idx):
            chosen[c] = k + 1
            dfs(idx + 1, cur_mask | (1 << idx), bound + inc[idx][k])
            chosen[c] = k
        dfs(idx + 1, cur_mask, bound + exc[idx][k])

    exhaustive = True
    try:
        dfs(0, 0, root_bound)
    except _BudgetExhausted:
        exhaustive = False

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
