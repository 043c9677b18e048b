"""Exact extremal computations over set families at desk scale.

alpha() maximizes cardinality or Lubell mass over pattern-free subfamilies of
a fixed family by depth-first branch and bound; it is the brute-force oracle
against which every closed-form bound is checked. On unions of full levels it
also prunes with the paper's double count over interval chains and branches
on S_n orbits. The n-guard on whole-cube searches reflects that 2^(2^n)
subfamily spaces are only reachable through pruning.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import accumulate, groupby
from math import comb, factorial, inf, lcm
from typing import Iterator, Union

from .errors import (
    GuardRefused,
    InvariantViolated,
    PFreenessViolated,
    PreconditionViolated,
)
from .families import (
    IntervalChainSpec,
    SetFamily,
    chain_masks,
    min_chain_partition,
    permutation_hit_count,
    permutation_image_counts,
)
from .posets import EmbeddingSearch, Poset, find_subposet

N_GUARD = 7
MAX_HOST_SETS = 512
# Double-count rows use the k-interval chains for k <= ROW_MAX_K, and a row's
# capacity search is dropped, with its row, after CAPACITY_NODE_CAP nodes.
ROW_MAX_K = 3
CAPACITY_NODE_CAP = 200_000


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an exact search: the optimum, a witness family attaining it,
    whether the search ran to completion, and the nodes of all its passes."""

    value: Union[int, Fraction]
    witness: SetFamily
    exhaustive: bool
    nodes_explored: int


def _complete_levels(H: SetFamily) -> tuple[int, ...]:
    """H's set sizes if H is a union of full levels of 2^[n], else ()."""
    sizes = Counter(mask.bit_count() for mask in H.masks())
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
    CAPACITY_NODE_CAP nodes when H is a union of full levels of 2^[n] with a
    level strictly between 0 and n, and no rows for any other host. Hosts
    within {empty set, [n]} are one chain, whose chain capacity already gives
    the bound its rows would. On every other host the rows are withheld for
    cost, not validity: there they bind little, and their capacity searches
    can cost more than the search they prune. Each capacity is an alpha call
    on G, cached per (n, k, levels, P, mode, cap); G always has a level
    strictly between 0 and n and is never a union of full levels, so it gets
    no rows and the recursion stops there.
    """
    return _rows(H.n, _complete_levels(H), P, mode)


def _rows(
    n: int, levels: tuple[int, ...], P: Poset, mode: str
) -> tuple[tuple[int, dict[int, int], int], ...]:
    """double_count_rows for a host over [n] with the given _complete_levels."""
    # Levels 0 and n alone are one chain, whose capacity gives what rows would.
    if not set(levels) - {0, n}:
        return ()
    ks = range(1, min(ROW_MAX_K, n - 1) + 1)
    rows = (_row(n, k, levels, P, mode, CAPACITY_NODE_CAP) for k in ks)
    return tuple(row for row in rows if row is not None)


@cache
def _row(
    n: int, k: int, levels: tuple[int, ...], P: Poset, mode: str, cap: int
) -> tuple[int, dict[int, int], int] | None:
    """The row of the canonical k-interval chain G on the given levels, or
    None when alpha(G, P, mode) does not finish within cap nodes."""
    chain = chain_masks(IntervalChainSpec.canonical(n, k))
    G = SetFamily.from_masks(n, (mask for mask in chain if mask.bit_count() in levels))
    found = alpha(G, P, mode, "cardinality", cap)
    if not found.exhaustive:
        return None
    return k, dict(Counter(mask.bit_count() for mask in G.masks())), found.value


def _chain_tables(order: list[int], parts: list[list[int]], values: list[int], cap: int):
    """Capacity increments for branching through H in `order`, over a
    partition of H into parts of which a P-free family takes at most cap
    sets each (chains, or copies of P and single sets).

    For the set at position p of its part with k of the part's earlier sets
    chosen, the bound moves by inc[p][k] on include and exc[p][k] on exclude,
    where a part's share is top(p, k) = the cap - k largest values among its
    members from position p on. Tables are indexed by branching position.

    Each part is walked once from its last member back. As values are
    positive, top(q, .) at the member q after p holds the cap largest values
    from q on as its differences, so top(p, .) and p's increments follow from
    it and p's value in O(cap). They are worked out once per (value,
    top(q, .), earlier members up to cap) and shared by the sets that match.
    """
    position = [0] * len(order)
    for p, i in enumerate(order):
        position[i] = p
    part_of = [0] * len(order)
    inc: list[list[int]] = [[]] * len(order)
    exc: list[list[int]] = [[]] * len(order)
    root_bound = 0
    steps: dict[tuple, tuple[list[int], list[int], tuple[int, ...]]] = {}
    for c, members in enumerate(parts):
        after = (0,) * (cap + 1)  # top(q, k) for k = 0..cap
        j = len(members)
        for p in sorted([position[i] for i in members], reverse=True):
            j -= 1  # the part's members before p
            worth = values[order[p]]
            key = (worth, after, min(j, cap))
            got = steps.get(key)
            if got is None:
                # The cap largest values from q on, ascending (0 for none), and p's.
                kept = [after[k] - after[k + 1] for k in range(cap)]
                insort(kept, worth)
                del kept[0]
                now = (*accumulate(reversed(kept), initial=0),)[::-1]
                got = steps[key] = (
                    [worth + after[k + 1] - now[k] for k in range(min(cap - 1, j) + 1)],
                    [after[k] - now[k] for k in range(min(cap, j) + 1)],
                    now,
                )
            part_of[p] = c
            inc[p], exc[p], after = got
        root_bound += after[0]
    return part_of, inc, exc, root_bound


def _knapsack_bound(weights: list[int], values: list[int]):
    """bound(p, r): the floor of the fractional knapsack optimum over items
    p, p+1, ... with capacity r >= 0, for positive values.

    Runs of equal (weight, value) items, such as the sets of one level, are
    sorted once, best value per weight first (compared by cross-multiplying,
    so a zero-weight run comes first), and filled greedily; a run is cut
    short at the capacity, and its items before p are skipped. A zero-weight
    run uses no capacity and is taken whole.
    """
    runs: list[tuple[int, int, int, int]] = []  # (start, end, weight, value)
    end = 0
    for (w, v), run in groupby(zip(weights, values)):
        start, end = end, end + len(list(run))
        runs.append((start, end, w, v))
    runs.sort(key=cmp_to_key(lambda a, b: b[3] * a[2] - a[3] * b[2]))

    def bound(p: int, r: int) -> int:
        got = 0
        for start, end, w, v in runs:
            if end > p:
                count = end - max(start, p)
                if count * w > r:
                    return got + r * v // w
                got += count * v
                r -= count * w
        return got

    return bound


def _split_blocks(blocks: tuple[int, ...], a: int) -> tuple[int, ...] | None:
    """The blocks of a partition of [n] (ground-set masks) cut by the set a,
    sorted; None once every block has at most one element."""
    parts = sorted(part for b in blocks for part in (b & a, b & ~a) if part)
    return tuple(parts) if any(part & (part - 1) for part in parts) else None


def _orbits(masks: tuple[int, ...], blocks: tuple[int, ...]) -> list[int]:
    """Each set's orbit, as bits over positions in masks, under the
    permutations of [n] that map each block to itself, in one pass over the
    sets. That group moves A onto B exactly when |A & b| = |B & b| for every
    block b."""
    signatures = list(zip(*([(s & b).bit_count() for s in masks] for b in blocks)))
    orbit: dict[tuple[int, ...], int] = {}
    for j, signature in enumerate(signatures):
        orbit[signature] = orbit.get(signature, 0) | 1 << j
    return [orbit[signature] for signature in signatures]


def _bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_step(knapsacks: list, weights: tuple[int, ...], p: int, left: tuple[int, ...]):
    """The rows at branching position p with unused capacities `left`: the
    least knapsack bound of the sets from p on, and the capacities left after
    taking set p (None when it overflows a row)."""
    room = inf
    after = []
    fits = True
    for knapsack, r, w in zip(knapsacks, left, weights):
        got = knapsack(p, r)
        if got < room:
            room = got
        if r < w:
            fits = False
        after.append(r - w)
    return room, tuple(after) if fits else None


def alpha(
    H: SetFamily,
    P: Poset,
    mode: str = "weak",
    objective: str = "cardinality",
    node_budget: int | None = None,
) -> ExtremalResult:
    """Exact optimum over P-free subfamilies of H.

    Branches include-first through H, in one iterative loop over a list of
    pending exclude branches, so the search's depth in Python frames does
    not grow with the host. Adding a set that completes a copy of P kills
    the include branch (freeness is closed under removal); when an include
    branch dies, the loop goes on with the exclude branch in place. Lubell
    values are scaled to integers by the lcm of the binomials involved, so
    no node does Fraction arithmetic.

    Capacity bound. H is cut into parts in which any |P| sets hold a copy
    of P, so a P-free family takes at most cap = |P| - 1 sets of each part.
    Any |P| sets on one chain hold a weak copy of P (an induced one when P
    is a chain), so in weak mode or for P a chain the parts are as few
    chains as H's width (min_chain_partition). Otherwise (induced mode, P
    not a chain) they are disjoint copies of P and single sets (packing
    bounds for hitting set, Niedermeier and Rossmanith 2003): the sets q go
    from last to first, and each makes one embeds_using call for a copy
    through set q among the sets from q on that no copy taken so far holds,
    and takes it if there is one. So the kind of part depends on the mode
    and the pattern alone, on any host. A node is cut when the value so far
    plus, per part, the cap - chosen largest undecided values cannot beat
    the incumbent, and a part holding cap sets refuses further sets without
    a freeness check.

    Rows and passes. When H is a union of full levels of 2^[n] with a level
    strictly between 0 and n, the knapsack rows of double_count_rows prune
    too: a node is cut when the value so far plus the floor of the
    fractional knapsack optimum of the undecided sets under one row's
    remaining capacity cannot beat the incumbent, and a set that overflows
    a row is refused. Such hosts are searched twice (once when the first
    order is the canonical one):

    1. to exhaustion for the optimum v, in the order where good families
       come early: middle-out (by |2|A| - n|, then canonically) for
       cardinality, from the outer levels inward for Lubell mass;
    2. include-first in canonical order with the incumbent at v - 1,
       stopping at the first family of value v.

    Other hosts take the canonical pass alone. With strict improvement the
    witness is the lexicographically least optimum over canonical indices.
    nodes_explored counts the nodes of both passes, not those of the
    capacity searches behind the rows.

    Node state. Every node carries (dead, ub, blocks). dead is the mask of
    the sets that take only their exclude branch, still counted as a node,
    with no freeness check. ub is the value so far plus the live undecided
    values: a set's death takes its value off ub, and a node is cut when ub
    cannot beat the incumbent. blocks is the partition of [n] that the
    chosen sets cut out, None once the group below is trivial or where there
    are no orbits. The chosen sets only grow, so a dead set stays dead. In
    every walk an excluded set's orbit dies (Orbits). Where completers
    applies (Dead sets), an include also kills the later members of its
    part once the part holds cap sets and the later sets that now complete
    a copy, so every live set can be taken; elsewhere each include is
    tested as it comes.

    - Orbits (Margot 2002; Ostrowski et al. 2011), in both passes on every
      union of full levels. Every permutation of [n] maps H onto itself and
      keeps each set's level, so it maps a P-free family to one of the same
      value. The permutations fixing each chosen set are those keeping each
      block; they move set A onto every B in H with |A & b| = |B & b| for
      each block b. Excluding A, for whatever reason, forces its orbit out.
      For any threshold u, let F* be the first P-free family of value above
      u in the pass's include-first order. If F* lay below that exclude
      branch and held some B of A's orbit, a permutation s of the group with
      s(B) = A would give s(F*): P-free, of the same value, holding every
      chosen set and A, and so earlier than F* in that order, against the
      choice of F*.
    - Dead sets, in every pass where completers has a mask rule for P (its
      rules hold in any order) and, off full levels, where only the
      canonical pass runs, also where the parts are chains and P takes a
      kernel of EmbeddingSearch (embeds_by_kernel: a diamond or two
      complete layers). After set p is included, EmbeddingSearch.completers
      names the later live sets that complete a copy, in one call. Its
      precondition holds in every walk: a later live set completed no copy
      with the sets chosen before p, or it would have died then (one set
      alone holds no copy of a pattern with a kernel).

    Every cut and every dead set leaves F* in the walk for the incumbent u
    at the time: a dead set lies in no P-free family holding the chosen
    sets or is forced out by an orbit, and ub, the rows and the part
    capacities bound every P-free family below the node that leaves out its
    dead sets. Each
    improving leaf is such an F*, so each pass meets the same improving
    leaves as a walk without these bounds, in a subset of its nodes: a
    search that finishes keeps its value, witness and exhaustive flag, and
    one that finishes within a budget without them does so with them.

    Hitting the node budget returns a valid lower bound flagged
    non-exhaustive: a stop in the first pass returns its incumbent, which
    need not be the include-first witness; a stop in the second pass returns
    the proven value v with the first pass's witness.

    Hosts above MAX_HOST_SETS sets are refused before any work. README "The
    exact search" gives what each part costs and where it pays.
    """
    if P.size < 1:
        raise ValueError("pattern must have at least one element")
    if objective not in ("cardinality", "lubell"):
        raise ValueError(f"unknown objective {objective!r}")
    if len(H) > MAX_HOST_SETS:
        raise PreconditionViolated(
            f"host has {len(H)} sets; the exact search handles at most {MAX_HOST_SETS}"
        )
    levels = _complete_levels(H)
    rows = _rows(H.n, levels, P, mode)
    search = EmbeddingSearch(H, P, mode)
    members = H.sets
    m = len(members)
    set_masks = H.masks()
    sizes = [mask.bit_count() for mask in set_masks]

    # Lubell values and row weights are scaled to integers by the lcm of the binomials.
    binomials = [comb(H.n, w) for w in range(H.n + 1)]
    unit = lcm(*(binomials[w] for w in set(sizes)))
    share = [unit // binomials[w] for w in sizes]
    values = [1] * m if objective == "cardinality" else share
    embeds_using = search.embeds_using
    # completers' rule, called with the search as its first argument.
    grow = search.completers_rule
    # The last copy of P found through each set: a mask holding it has a copy,
    # so the walk reads it before asking embeds_using (whose first test it is).
    copies = search.copies
    cap = P.size - 1
    capped = mode == "weak" or P.height() == P.size
    if capped:
        index = {mask: i for i, mask in enumerate(set_masks)}
        parts = [[index[s.mask] for s in c] for c in min_chain_partition(H)]
    else:
        # Disjoint copies of P: sets q from last to first each take a copy
        # through q among the later sets no copy taken yet holds, if there is
        # one. Every other set is a part of its own.
        parts = []
        owned = 0
        for q in reversed(range(m)):
            if embeds_using(((1 << m) - 1) >> q << q & ~owned, q):
                owned |= copies[q]
                parts.append(list(_bits(copies[q])))
        parts += [[i] for i in range(m) if not owned >> i & 1]
    part_bits = [sum(1 << i for i in c) for c in parts]
    # Row weights N_w / C(n, w) and capacities, scaled by the same unit.
    row_weights = [[counts[w] * s for w, s in zip(sizes, share)] for _, counts, _ in rows]
    row_caps = tuple(capacity * unit for _, _, capacity in rows)

    # Orbits where every permutation of [n] maps H onto itself and keeps each
    # set's level: at the root the one block is [n].
    root_blocks = ((1 << H.n) - 1,) if H.n >= 2 and levels else None
    # branchings[i]: blocks -> (set i's orbit, the blocks once set i is chosen),
    # kept only where there are orbits; orbits: blocks -> every set's orbit.
    branchings: list[dict[tuple[int, ...], tuple[int, tuple[int, ...] | None]]] = (
        [{} for _ in range(m)] if root_blocks else []
    )
    orbits: dict[tuple[int, ...], list[int]] = {}

    def branching(blocks: tuple[int, ...], i: int) -> tuple[int, tuple[int, ...] | None]:
        of = orbits.get(blocks)
        if of is None:
            of = orbits[blocks] = _orbits(set_masks, blocks)
        got = branchings[i][blocks] = (of[i], _split_blocks(blocks, set_masks[i]))
        return got

    # Where completers applies, every include kills the later sets it dooms;
    # elsewhere each include is tested as it comes. completers needs a mask
    # rule or, off full levels, chains as parts and a kernel of
    # EmbeddingSearch for P.
    eager = search.completers_by_masks or (capped and search.embeds_by_kernel and not levels)

    if objective == "cardinality":
        worth_of = int.bit_count
    else:
        def worth_of(mask: int) -> int:
            """The sum of the values of the sets in mask."""
            return sum(values[j] for j in _bits(mask))

    limit = inf if node_budget is None else node_budget
    best_value = -1
    best_mask = 0
    nodes = 0

    def walk(order: list[int], stop_at_first: bool) -> bool:
        """Branch through H in `order`, include first, improving the incumbent;
        with stop_at_first the first improving leaf ends the walk. Returns
        False when the node budget runs out."""
        nonlocal best_value, best_mask, nodes
        part_of, inc, exc, root_bound = _chain_tables(order, parts, values, cap)
        # Per branching position: (set index, its bit, its part's bits,
        # include and exclude increments, the set's value, the sets after it).
        ahead = [0] * m
        for p in range(m - 1, 0, -1):
            ahead[p - 1] = ahead[p] | 1 << order[p]
        steps = [
            (i, 1 << i, part_bits[part_of[p]], inc[p], exc[p], values[i], ahead[p])
            for p, i in enumerate(order)
        ]
        if rows:
            ordered = [[w[i] for i in order] for w in row_weights]
            weights = list(zip(*ordered))
            worths = [values[i] for i in order]
            knapsacks = [_knapsack_bound(w, worths) for w in ordered]
            # memo[p]: unused capacity per row -> _row_step's answer at p.
            memo: list[dict[tuple[int, ...], tuple[int, tuple[int, ...] | None]]] = [
                {} for _ in range(m)
            ]
        # A stack of exclude branches: (branching position, mask of the chosen
        # sets' canonical indices, value so far, bound, unused capacity per
        # row, dead mask, ub, blocks). A living include branch is taken in
        # place and its exclude branch pushed, so each include subtree is
        # finished before the exclude branch under it is popped. When the
        # include branch dies, the exclude branch, which would be popped
        # next, is taken in place. A part's chosen count is read off the mask.
        pending = [(0, 0, 0, root_bound, row_caps, 0, sum(values), root_blocks)]
        while pending:
            p, mask, value, bound, left, dead, ub, blocks = pending.pop()
            while True:
                nodes += 1
                if nodes > limit:
                    return False
                if p == m:
                    # At a leaf every part is decided and bound is the family's value.
                    if bound > best_value:
                        best_value = bound
                        best_mask = mask
                        if stop_at_first:
                            return True
                    break
                if bound <= best_value or ub <= best_value:
                    break
                taken = left
                if rows:
                    got = memo[p].get(left)
                    if got is None:
                        got = memo[p][left] = _row_step(knapsacks, weights[p], p, left)
                    room, taken = got
                    if value + room <= best_value:
                        break
                i, bit, bits, inc_p, exc_p, worth, later = steps[p]
                k = (mask & bits).bit_count()
                # The exclude branch's dead sets and ub: set i's value leaves
                # ub unless it is dead already, and its whole orbit dies.
                out_dead = dead
                if dead >> i & 1:
                    taken = None
                    out_ub = ub
                else:
                    out_ub = ub - worth
                # Including set i splits the blocks.
                split = blocks
                if blocks:
                    orbit, split = branchings[i].get(blocks) or branching(blocks, i)
                    new = orbit & later & ~dead
                    if new:
                        out_dead, out_ub = dead | new, out_ub - worth_of(new)
                grown = mask | bit
                if taken is None or not eager and (
                    k >= cap or not copies[i] & ~grown or embeds_using(grown, i)
                ):
                    # A dead set, or where includes are tested a full part or
                    # a copy of P through set i, kills the include branch: go
                    # on with the exclude branch.
                    p, bound, dead, ub = p + 1, bound + exc_p[k], out_dead, out_ub
                    continue
                pending.append(
                    (p + 1, mask, value, bound + exc_p[k], left, out_dead, out_ub, blocks)
                )
                if eager:
                    # A later set dies when its part now holds cap sets or
                    # it completes a copy of P with the chosen sets.
                    live = later & ~dead
                    new = bits & live if k + 1 == cap else 0
                    new |= grow(search, grown, i, live ^ new)
                    if new:
                        dead, ub = dead | new, ub - worth_of(new)
                p, mask, value, bound, left, blocks = (
                    p + 1, grown, value + worth, bound + inc_p[k], taken, split
                )
        return True

    canonical = list(range(m))
    first = canonical
    if rows:
        # Look first where the optimum usually lies: the middle levels hold
        # the most sets, the outer ones weigh most in Lubell mass.
        outward = 1 if objective == "cardinality" else -1
        distance = [outward * abs(2 * w - H.n) for w in sizes]
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
    value = best_value if objective == "cardinality" else Fraction(best_value, unit)
    witness = SetFamily(H.n, (members[i] for i in range(m) if best_mask >> i & 1))
    return ExtremalResult(value, witness, exhaustive, nodes)


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


def induced_constant_from_width(P: Poset, width: int) -> Fraction:
    """Exact constant C with La-induced(width, P) = C * binom(width, width//2),
    computed by exhaustive search at the given small width."""
    return Fraction(la_exact(width, P, mode="induced").value, comb(width, width // 2))


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
        counts = permutation_image_counts(H)
        pairs_by_perms = sum(counts.get(m, 0) for m in A_family.masks())
        if pairs_by_sets > alpha_res.value * factorial(n):
            raise InvariantViolated(
                f"{pairs_by_sets} pairs exceed alpha * n! = {alpha_res.value * factorial(n)}"
            )
    return DoubleCountingReport(
        lhs=lhs,
        alpha_value=alpha_res.value,
        holds=lhs <= alpha_res.value,
        exhaustive=exhaustive,
        pairs_by_sets=pairs_by_sets,
        pairs_by_permutations=pairs_by_perms,
    )
