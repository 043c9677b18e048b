"""Shared fixtures, independent oracles, and the package source for the
static tests.

The oracles here deliberately avoid the package's search machinery: weak and
induced containment are decided by looping over raw injections, and optima by
enumerating every subfamily or by branching on the hypergraph of the
pattern's copies. Slow, obviously correct, and used to certify the fast paths.
"""

from __future__ import annotations

import ast
import itertools
import random
from fractions import Fraction
from functools import cache
from math import comb, lcm
from pathlib import Path

import pytest

import subposet_lab
from subposet_lab.families import SetFamily, Subset
from subposet_lab.posets import Poset, chain, diamond
from subposet_lab.solver import la_exact

SRC = Path(subposet_lab.__file__).parent


@cache
def source_trees() -> tuple[tuple[Path, ast.Module], ...]:
    """(path relative to src/subposet_lab, parsed tree) for each package
    module, in path order, parsed once per test session."""
    return tuple(
        (path.relative_to(SRC), ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.rglob("*.py"))
    )


def is_copy(images: tuple[int, ...], pattern: Poset, mode: str) -> bool:
    """Do these set masks, indexed by pattern id, form a copy of the pattern?
    Fewer masks than the pattern has elements are checked as a copy of the
    pattern's first len(images) ids."""
    q = len(images)
    for a in range(q):
        for b in range(q):
            if a == b:
                continue
            ma, mb = images[a], images[b]
            img_less = ma != mb and ma & mb == ma
            if pattern.less(a, b) and not img_less:
                return False
            if mode == "induced" and not pattern.less(a, b) and img_less:
                return False
    return True


def brute_contains(fam: SetFamily, pattern: Poset, mode: str) -> bool:
    """Pattern containment by trying every injection of pattern ids into sets."""
    masks = fam.masks()
    return any(
        is_copy(images, pattern, mode)
        for images in itertools.permutations(masks, pattern.size)
    )


def brute_contains_through(
    fam: SetFamily, pattern: Poset, mode: str, allowed: int, z: int
) -> bool:
    """A copy among the sets whose canonical index is in `allowed`, using set z?"""
    masks = fam.masks()
    pool = [m for i, m in enumerate(masks) if allowed >> i & 1]
    return any(
        masks[z] in images and is_copy(images, pattern, mode)
        for images in itertools.permutations(pool, pattern.size)
    )


def brute_poset_contains(host: Poset, pattern: Poset, mode: str) -> bool:
    for injection in itertools.permutations(range(host.size), pattern.size):
        ok = True
        for a in range(pattern.size):
            for b in range(pattern.size):
                if a == b:
                    continue
                img_less = host.less(injection[a], injection[b])
                if pattern.less(a, b) and not img_less:
                    ok = False
                    break
                if mode == "induced" and not pattern.less(a, b) and img_less:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_alpha(
    H: SetFamily, pattern: Poset, mode: str = "weak", objective: str = "cardinality"
):
    """Exact optimum by enumerating all 2^|H| subfamilies."""
    members = H.sets
    best = Fraction(-1) if objective == "lubell" else -1
    for picks in range(1 << len(members)):
        chosen = [members[i] for i in range(len(members)) if picks >> i & 1]
        if brute_contains(SetFamily(H.n, chosen), pattern, mode):
            continue
        if objective == "cardinality":
            value = len(chosen)
        else:
            value = sum(
                (Fraction(1, comb(H.n, s.weight)) for s in chosen), Fraction(0)
            )
        if value > best:
            best = value
    return best


def copy_edges(H: SetFamily, pattern: Poset, mode: str) -> set[int]:
    """The copies of the pattern in H, each as the bits of its sets' canonical
    indices: a subfamily is pattern-free exactly when it holds none of them.
    Copies are injective, so every edge has pattern.size bits and none lies
    inside another: all of them are minimal. Images are assigned in pattern-id
    order, and a prefix that is no copy of its ids is not extended."""
    masks = H.masks()
    edges = set()
    pending = [()]
    while pending:
        picked = pending.pop()
        if len(picked) == pattern.size:
            edges.add(sum(1 << i for i in picked))
            continue
        for i in range(len(masks)):
            if i not in picked and is_copy(
                tuple(masks[j] for j in picked) + (masks[i],), pattern, mode
            ):
                pending.append(picked + (i,))
    return edges


def hypergraph_alpha(
    H: SetFamily, pattern: Poset, mode: str = "weak", objective: str = "cardinality"
):
    """Exact optimum as the heaviest independent set of the copy hypergraph
    (heaviest_independent). Lubell weights 1 / C(n, |A|) are scaled to
    integers by the lcm of the binomials."""
    unit, worth = _scaled_worths(H, objective)
    best = heaviest_independent(worth, copy_edges(H, pattern, mode))
    return best if objective == "cardinality" else Fraction(best, unit)


def hypergraph_first_optimum(
    H: SetFamily, pattern: Poset, mode: str = "weak", objective: str = "cardinality"
):
    """(value, witness) of the optimum an include-first walk in canonical
    order reaches first: the best value with the lexicographically largest
    include vector over canonical indices, as test_solver's first_optimum
    finds by brute force. Set i weighs its value times 2^|H| plus
    2^(|H| - 1 - i): the tie-break bits of two families differ, sum to less
    than 2^|H|, and order them as their include vectors, so the heaviest
    independent set under these weights is that optimum, read off the
    weight's two parts."""
    m = len(H)
    unit, worth = _scaled_worths(H, objective)
    best = heaviest_independent(
        [w << m | 1 << (m - 1 - i) for i, w in enumerate(worth)], copy_edges(H, pattern, mode)
    )
    value = best >> m if objective == "cardinality" else Fraction(best >> m, unit)
    picks = (H.sets[i] for i in range(m) if best >> (m - 1 - i) & 1)
    return value, SetFamily(H.n, picks)


def _scaled_worths(H: SetFamily, objective: str) -> tuple[int, list[int]]:
    unit = lcm(*(comb(H.n, s.weight) for s in H)) if objective == "lubell" else 1
    return unit, [unit // comb(H.n, s.weight) if objective == "lubell" else 1 for s in H]


def heaviest_independent(weight: list[int], edges) -> int:
    """The heaviest weight of a set of indices that holds no edge whole.

    Shares no pruning with the solver: no chain partition, no double-count
    rows, no EmbeddingSearch. Branches include-first on the undecided index
    that lies in the most of the live edges with fewest undecided indices; an
    edge is live while none of its indices is excluded, and including all of
    one kills the branch. A node is cut when the weight so far plus every
    undecided index, minus the lightest undecided index of each edge in a
    greedy packing of live edges disjoint on their undecided indices, cannot
    beat the incumbent: an independent set leaves out an index of each live
    edge.
    """
    m = len(weight)

    def members(bits):
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    best = 0
    # (weight so far, weight of the undecided indices, undecided parts of live edges)
    pending = [(0, sum(weight), frozenset(edges))]
    while pending:
        value, rest, live = pending.pop()
        if value + rest <= best:
            continue
        if not live:
            best = value + rest
            continue
        packed = 0
        bound = value + rest
        for part in sorted(live, key=int.bit_count):
            if not part & packed:
                packed |= part
                bound -= min(weight[i] for i in members(part))
        if bound <= best:
            continue
        fewest = min(part.bit_count() for part in live)
        hits = [0] * m
        for part in live:
            if part.bit_count() == fewest:
                for i in members(part):
                    hits[i] += 1
        v = max(range(m), key=hits.__getitem__)
        bit = 1 << v
        pending.append((value, rest - weight[v], frozenset(part for part in live if not part & bit)))
        shrunk = frozenset(part & ~bit for part in live)
        if 0 not in shrunk:
            pending.append((value + weight[v], rest - weight[v], shrunk))
    return best


def are_isomorphic(p: Poset, q: Poset) -> bool:
    """Brute-force isomorphism over all permutations; test-scale sizes only."""
    if p.size != q.size:
        return False
    if p.size > 8:
        raise ValueError("brute-force isomorphism is limited to size <= 8")
    if sorted(p.degree(i) for i in range(p.size)) != sorted(
        q.degree(i) for i in range(q.size)
    ):
        return False
    n = p.size
    for perm in itertools.permutations(range(n)):
        if all(p.less(i, j) == q.less(perm[i], perm[j]) for i in range(n) for j in range(n)):
            return True
    return False


def random_poset(rng: random.Random, size: int) -> Poset:
    """Random DAG closure: orient random pairs upward under a random relabeling."""
    from subposet_lab.posets import poset_from_relations

    pairs = []
    labels = list(range(size))
    rng.shuffle(labels)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                pairs.append((labels[i], labels[j]))
    return poset_from_relations(pairs, size)


def random_family(rng: random.Random, n: int, count: int) -> SetFamily:
    return SetFamily.from_masks(n, rng.sample(range(1 << n), min(count, 1 << n)))


@pytest.fixture(scope="session")
def la5_chain3():
    return la_exact(5, chain(3))


@pytest.fixture(scope="session")
def la5_diamond1():
    return la_exact(5, diamond(1))
