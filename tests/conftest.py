"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's search machinery: weak and
induced containment are decided by looping over raw injections, and optima by
enumerating every subfamily. Slow, obviously correct, and used to certify the
fast paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from subposet_lab.families import SetFamily, Subset
from subposet_lab.posets import Poset, chain, diamond
from subposet_lab.solver import la_exact


def is_copy(images: tuple[int, ...], pattern: Poset, mode: str) -> bool:
    """Do these set masks, indexed by pattern id, form a copy of the pattern?"""
    q = pattern.size
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
