"""Subsets of [n], set families, interval chains, and their counting functions.

Sets are subsets of the ground set [n] = {1, ..., n} stored as bitmasks:
bit i-1 of the mask is element i, matching the indicator-vector convention
b_1 b_2 ... b_n read left to right in element order. All counts and Lubell
values are exact (ints and Fractions); this module never touches floats.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import OutOfRange, PreconditionViolated


@dataclass(frozen=True)
class Subset:
    """A subset of [n] with indicator-vector semantics."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"ground set size must be >= 0, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask:#b} does not fit in [{self.n}]")

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "Subset":
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside [{n}]")
            mask |= 1 << (e - 1)
        return cls(n, mask)

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def indicator(self) -> tuple[int, ...]:
        return tuple(self.mask >> i & 1 for i in range(self.n))

    def issubset(self, other: "Subset") -> bool:
        return self.mask & other.mask == self.mask

    def is_proper_subset(self, other: "Subset") -> bool:
        return self.mask != other.mask and self.issubset(other)

    def related(self, other: "Subset") -> bool:
        """True if one of the two sets contains the other (including equality)."""
        return self.issubset(other) or other.issubset(self)

    def permuted(self, perm: Sequence[int]) -> "Subset":
        """Image under a permutation of [n] given as perm[i-1] = pi(i)."""
        mask = 0
        for i in range(self.n):
            if self.mask >> i & 1:
                mask |= 1 << (perm[i] - 1)
        return Subset(self.n, mask)

    def __or__(self, other: "Subset") -> "Subset":
        if self.n != other.n:
            raise ValueError("ground sets differ")
        return Subset(self.n, self.mask | other.mask)

    def sort_key(self) -> tuple[int, int]:
        """Canonical order: by weight, then lexicographically by indicator vector.

        The indicator b_1..b_n read as a binary number is the mask with its n
        bits reversed, so that number orders the sets of one weight the same
        way. The sentinel bit n keeps the binary string non-empty when n = 0;
        reversed it comes last, and the shift drops it.
        """
        mask = self.mask
        return (mask.bit_count(), int(bin(mask | 1 << self.n)[:1:-1], 2) >> 1)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"

    def __repr__(self) -> str:
        return f"Subset({self.n}, {self.elements()})"


class SetFamily:
    """A duplicate-free collection of subsets of [n] in canonical order.

    Canonical order sorts by weight, then by indicator vector; every
    constructor (and every operation returning a family) maintains it.
    """

    __slots__ = ("n", "sets", "_mask_set")

    def __init__(self, n: int, sets: Iterable[Subset] = ()):
        if n < 0:
            raise ValueError(f"ground set size must be >= 0, got {n}")
        unique: dict[int, Subset] = {}
        for s in sets:
            if s.n != n:
                raise ValueError(f"set over [{s.n}] mixed into family over [{n}]")
            unique[s.mask] = s
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "sets", tuple(sorted(unique.values(), key=Subset.sort_key))
        )
        object.__setattr__(self, "_mask_set", frozenset(unique))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SetFamily is immutable")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        return cls(n, (Subset(n, m) for m in masks))

    @classmethod
    @lru_cache(maxsize=16)
    def power_set(cls, n: int) -> "SetFamily":
        """2^[n], one shared family per n (families are immutable)."""
        return cls.from_masks(n, range(1 << n))

    @classmethod
    def levels(cls, n: int, sizes: Iterable[int]) -> "SetFamily":
        """All subsets of [n] whose size lies in `sizes`."""
        wanted = set(sizes)
        return cls.from_masks(
            n, (m for m in range(1 << n) if m.bit_count() in wanted)
        )

    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sets)

    def __contains__(self, s: Subset) -> bool:
        return s.mask in self._mask_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.n == other.n and self._mask_set == other._mask_set

    def __hash__(self) -> int:
        return hash((self.n, self._mask_set))

    def count_of_size(self, m: int) -> int:
        return sum(1 for mask in self._mask_set if mask.bit_count() == m)

    def restrict_sizes(self, lo: int, hi: int) -> "SetFamily":
        return SetFamily(self.n, (s for s in self.sets if lo <= s.weight <= hi))

    def union(self, other: "SetFamily") -> "SetFamily":
        if self.n != other.n:
            raise ValueError("ground sets differ")
        return SetFamily(self.n, itertools.chain(self.sets, other.sets))

    def without(self, drop: Iterable[Subset]) -> "SetFamily":
        gone = {s.mask for s in drop}
        return SetFamily(self.n, (s for s in self.sets if s.mask not in gone))

    def __repr__(self) -> str:
        inner = ", ".join(str(s) for s in self.sets)
        return f"SetFamily(n={self.n}, [{inner}])"


def lubell(fam: SetFamily) -> Fraction:
    """Sum of 1/binom(n, |A|) over the family: the fraction of each level used."""
    total = Fraction(0)
    for s in fam:
        total += Fraction(1, comb(fam.n, s.weight))
    return total


def _bracket_key(mask: int, n: int) -> tuple[int, int]:
    """Matched positions of the bracket matching on the indicator b_1..b_n
    (a 0 opens a bracket, a later 1 closes it) and the mask's bits there."""
    opened: list[int] = []
    matched = 0
    for i in range(n):
        if not mask >> i & 1:
            opened.append(i)
        elif opened:
            matched |= 1 << opened.pop() | 1 << i
    return matched, mask & matched


def symmetric_chain_partition(fam: SetFamily) -> tuple[tuple[Subset, ...], ...]:
    """The family cut along the symmetric chain decomposition of 2^[n].

    De Bruijn, van Ebbenhorst Tengbergen and Kruyswijk (1951): two subsets
    lie on the same chain exactly when bracket matching leaves them the same
    matched brackets; the unmatched positions read 1...10...0 and moving one
    boundary step walks up the chain. Parts of chains are chains, so this
    partitions any family into chains. Each chain is in canonical order and
    chains are ordered by their first member.
    """
    chains: dict[tuple[int, int], list[Subset]] = {}
    for s in fam:
        chains.setdefault(_bracket_key(s.mask, fam.n), []).append(s)
    return tuple(tuple(c) for c in chains.values())


@lru_cache(maxsize=32)
def containment_masks(fam: SetFamily) -> tuple[list[int], list[int]]:
    """For each canonical index i, the index masks of the strict supersets
    (above[i]) and the strict subsets (below[i]) of set i. Memoised per
    family, so the lists are shared: no caller may change them.

    holds[e] is the mask of the indices whose set contains element e. A set
    contains A_i exactly when it holds every element of A_i, and lies inside
    A_i exactly when it holds none of the others, so above[i] is the AND of
    holds[e] over A_i and below[i] the AND of their complements over the
    rest, each without i: |H| * n mask operations, not |H|^2 pair tests.
    """
    masks = fam.masks()
    full = (1 << len(masks)) - 1
    holds = [0] * fam.n
    for i, a in enumerate(masks):
        while a:
            low = a & -a
            holds[low.bit_length() - 1] |= 1 << i
            a ^= low
    # Per element of [n] in bit order: (holds[e], the indices lacking e).
    columns = [(h, full ^ h) for h in holds]
    above = []
    below = []
    for i, a in enumerate(masks):
        up = down = full ^ 1 << i
        for holding, lacking in columns:
            if a & 1:
                up &= holding
            else:
                down &= lacking
            a >>= 1
        above.append(up)
        below.append(down)
    return above, below


@lru_cache(maxsize=32)
def min_chain_partition(fam: SetFamily) -> tuple[tuple[Subset, ...], ...]:
    """A partition of the family into as few chains as its width (Dilworth),
    memoised per family.

    Starts from the symmetric chain cut, which is already minimum when it has
    as many chains as the family's largest level (an antichain), as on any
    union of full levels; it is then returned unchanged. Otherwise linking
    each set to its successor on its chain is a matching from sets to strict
    supersets, and augmenting paths (Kuhn; the least-index superset first)
    grow it to a maximum matching, whose chains number len(fam) minus its
    size, which is the width. Chains are listed and ordered as in
    symmetric_chain_partition.
    """
    scd = symmetric_chain_partition(fam)
    if len(scd) == max(Counter(s.weight for s in fam).values(), default=0):
        return scd
    masks = fam.masks()
    index = {m: i for i, m in enumerate(masks)}
    up = containment_masks(fam)[0]
    succ = [-1] * len(masks)
    pred = [-1] * len(masks)
    for c in scd:
        for a, b in zip(c, c[1:]):
            succ[index[a.mask]] = index[b.mask]
            pred[index[b.mask]] = index[a.mask]
    seen = 0

    def augment(i: int) -> bool:
        # Link i to a superset, freeing one from its predecessor if need be:
        # a depth-first search over alternating paths on an explicit stack.
        # path[t] tries its unseen supersets, least index first; via[t] is
        # the one it is trying, whose predecessor is path[t + 1].
        nonlocal seen
        path, via = [i], []
        while path:
            free = up[path[-1]] & ~seen
            if not free:
                path.pop()
                if via:
                    via.pop()
                continue
            j = (free & -free).bit_length() - 1
            seen |= 1 << j
            via.append(j)
            if pred[j] < 0:
                for a, b in zip(path, via):
                    succ[a], pred[b] = b, a
                return True
            path.append(pred[j])
        return False

    for i in range(len(masks)):
        # A search that fails leaves `seen` as it was useful: the sets it
        # marked cannot be freed until some augmentation succeeds.
        if succ[i] < 0 and augment(i):
            seen = 0
    chains = []
    for i in range(len(masks)):
        if pred[i] < 0:
            chain = []
            while i >= 0:
                chain.append(fam.sets[i])
                i = succ[i]
            chains.append(tuple(chain))
    return tuple(chains)


def apply_permutation(fam: SetFamily, perm: Sequence[int]) -> SetFamily:
    """Pointwise image family {A^pi : A in fam} for pi given as perm[i-1] = pi(i)."""
    if len(perm) != fam.n or sorted(perm) != list(range(1, fam.n + 1)):
        raise ValueError(f"not a permutation of [{fam.n}]: {perm!r}")
    return SetFamily(fam.n, (s.permuted(perm) for s in fam))


@dataclass(frozen=True)
class IntervalChainSpec:
    """Parameters of a k-interval chain: the union of intervals [A_i, A_{i+k}]
    along a maximal chain A_0 c A_1 c ... c A_n with |A_i| = i.

    The canonical base A_i = [i] gives the chain whose members are exactly the
    masks of the form (initial 1-run, then k free bits, then zeros).
    """

    n: int
    k: int
    base: tuple[Subset, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.base) != self.n + 1:
            raise ValueError("base must be a maximal chain with n+1 sets")
        for i, s in enumerate(self.base):
            if s.n != self.n or s.weight != i:
                raise ValueError(f"base set {i} must have size {i} over [{self.n}]")
            if i and not self.base[i - 1].is_proper_subset(s):
                raise ValueError("base chain is not nested")

    # One certify-batch pass of the benchmark asks for 108 distinct (n, k)
    # pairs; 64 entries missed 119-130 of its 253 calls, 256 miss none.
    @classmethod
    @lru_cache(maxsize=256)
    def canonical(cls, n: int, k: int) -> "IntervalChainSpec":
        base = tuple(Subset(n, (1 << i) - 1) for i in range(n + 1))
        return cls(n, k, base)

    @property
    def embedding_window(self) -> tuple[int, int]:
        """Sizes [3k-3, n-k+1] within which a greedy embedding step discards
        at most (3k-5) 2^(k-2) sets."""
        return 3 * self.k - 3, self.n - self.k + 1

    @cached_property
    def is_canonical(self) -> bool:
        return all(s.mask == (1 << i) - 1 for i, s in enumerate(self.base))

    def base_permutation(self) -> tuple[int, ...]:
        """The permutation carrying this base onto the canonical one.

        pi maps the element added at base step i to i, so A_i^pi = [i].
        """
        perm = [0] * self.n
        for i in range(1, self.n + 1):
            added = self.base[i].mask & ~self.base[i - 1].mask
            perm[added.bit_length() - 1] = i
        return tuple(perm)

    @cached_property
    def _byte_tables(self) -> tuple[tuple[int, ...], ...]:
        # Per byte of a mask, the canonical bits of each of its values: bit b
        # moves to bit i-1 when the base adds element b+1 at step i.
        steps = [1 << (i - 1) for i in self.base_permutation()]
        tables = []
        for lo in range(0, self.n, 8):
            table = [0]
            for bit in steps[lo : lo + 8]:
                table += [t | bit for t in table]
            tables.append(tuple(table))
        return tuple(tables)

    def canonical_mask(self, mask: int) -> int:
        """A mask read on the canonical base: bit i-1 of the result is set when
        the set holds the element this base adds at step i."""
        out = 0
        for table in self._byte_tables:
            out |= table[mask & 0xFF]
            mask >>= 8
        return out

    def _holds_canonical(self, mask: int) -> bool:
        # contains' rule, on a mask already read on the canonical base.
        run = (~mask & (mask + 1)).bit_length() - 1
        return mask >> (run + self.k) == 0

    def contains(self, s: Subset) -> bool:
        """Membership test: read on the canonical base, a member is an initial
        1-run of some length r with nothing past position r + k."""
        return s.n == self.n and self._holds_canonical(self.canonical_mask(s.mask))

    @cached_property
    def _greedy_keys(self) -> dict[int, int]:
        # Member mask -> greedy order key, filled by greedy_key one set at a
        # time: only the sets some run has looked at are ever stored.
        return {}

    def greedy_key(self, mask: int) -> int:
        """The greedy embedding's order key of a member, memoised per spec.

        Read on the canonical base as c of weight w, the key is
        ((n - w) << 1 | worst) << n | rev, where worst is 1 when c is
        worst_set(canonical, w) and rev is c's n bits reversed, the indicator
        b_1 ... b_n as a binary number. Ascending keys put larger sets first,
        the worst set last within its size, the others in indicator order.
        Raises ValueError for a non-member, which is not stored.
        """
        key = self._greedy_keys.get(mask)
        if key is None:
            c = self.canonical_mask(mask)
            if not self._holds_canonical(c):
                raise ValueError(f"mask {mask:#b} is not a member of the chain")
            w, rev = Subset(self.n, c).sort_key()
            worst = self.k <= w <= self.n - 1 and (
                worst_set(IntervalChainSpec.canonical(self.n, self.k), w).mask == c
            )
            key = self._greedy_keys[mask] = ((self.n - w) << 1 | worst) << self.n | rev
        return key


def chain_masks(spec: IntervalChainSpec) -> Iterator[int]:
    """Each member's mask once: all of the first interval [A_0, A_k], then from
    each later interval [A_i, A_{i+k}] the sets holding the element A_{i+k}
    adds, since the others already lie in [A_{i-1}, A_{i+k-1}]."""
    base = spec.base
    for i in range(spec.n - spec.k + 1):
        lo = base[i].mask
        free = base[i + spec.k].mask & ~lo
        if i:
            new = free & ~base[i + spec.k - 1].mask
            lo |= new
            free ^= new
        # Every submask of `free`, from free itself down to 0.
        sub = free
        while True:
            yield lo | sub
            if not sub:
                break
            sub = (sub - 1) & free


def interval_chain(spec: IntervalChainSpec) -> SetFamily:
    """Enumerate the chain as a family: union of the n-k+1 intervals."""
    return SetFamily.from_masks(spec.n, chain_masks(spec))


# The most sets a caller may enumerate for one chain: its n - k + 1 intervals
# of 2^k sets each bound its size.
MAX_CHAIN_ENUMERATION = 1 << 20


def check_chain_enumeration(n: int, k: int) -> None:
    """Refuse to enumerate C_k[n] when its size bound is above MAX_CHAIN_ENUMERATION."""
    bound = (n - k + 1) << k
    if bound > MAX_CHAIN_ENUMERATION:
        raise PreconditionViolated(
            f"the chain bound (n-k+1)*2^k = {bound} at n={n}, k={k} is above {MAX_CHAIN_ENUMERATION}"
        )


def level_count(spec: IntervalChainSpec, m: int) -> int:
    """Number of size-m sets in the chain: 2^(k-1) for k <= m <= n-k,
    enumerated outside that window."""
    if not 0 <= m <= spec.n:
        raise ValueError(f"level {m} outside 0..{spec.n}")
    if spec.k <= m <= spec.n - spec.k:
        return 1 << (spec.k - 1)
    return sum(mask.bit_count() == m for mask in chain_masks(spec))

def count_trailing_zero_profile(spec: IntervalChainSpec, m: int, j: int) -> int:
    """Number of size-m chain sets with at least j zeros before their last 1.

    Valid for k <= m <= n-k, where the size-m sets biject with the k-1 bits
    preceding the final 1; the count is sum_{h=j}^{k-1} binom(k-1, h).
    """
    if not spec.k <= m <= spec.n - spec.k:
        raise OutOfRange(f"m={m} outside [{spec.k}, {spec.n - spec.k}]")
    if not 0 <= j <= spec.k - 1:
        raise OutOfRange(f"j={j} outside [0, {spec.k - 1}]")
    return sum(comb(spec.k - 1, h) for h in range(j, spec.k))


def unrelated_below_count(k: int) -> int:
    """Closed form (3k-5) * 2^(k-2) for the collection computed by unrelated_below."""
    if k < 2:
        raise OutOfRange(f"need k >= 2, got {k}")
    return (3 * k - 5) * (1 << (k - 2))


def unrelated_below(spec: IntervalChainSpec, m: int) -> SetFamily:
    """Chain sets of size <= m-1 unrelated to at least one chain set of size >= m.

    Enumerated directly on the chain's masks; for m in the embedding window
    [3k-3, n-k+1] its cardinality is the closed form unrelated_below_count(k),
    independent of m and n.
    """
    if spec.k < 2:
        raise OutOfRange(f"need k >= 2, got {spec.k}")
    lo, hi = spec.embedding_window
    if not lo <= m <= hi:
        raise OutOfRange(f"m={m} outside [{lo}, {hi}]")
    masks = list(chain_masks(spec))
    # A set smaller than every big set is related to one exactly when it lies
    # inside it, so it is related to them all when it lies inside their meet.
    common = (1 << spec.n) - 1
    for b in masks:
        if b.bit_count() >= m:
            common &= b
    return SetFamily.from_masks(
        spec.n, (a for a in masks if a & ~common and a.bit_count() < m)
    )


def worst_set(spec: IntervalChainSpec, m: int) -> Subset:
    """The unique size-m chain set with indicator 1^(m-k+1) 0 1^(k-1) 0...

    For a canonical-base chain this is the only size-m member unrelated to
    certain smaller members that are related to everything of size m+1.
    """
    if not spec.is_canonical:
        raise ValueError("worst_set is defined for the canonical base only")
    if not spec.k <= m <= spec.n - 1:
        raise OutOfRange(f"m={m} outside [{spec.k}, {spec.n - 1}]")
    ones_head = (1 << (m - spec.k + 1)) - 1
    ones_tail = ((1 << (spec.k - 1)) - 1) << (m - spec.k + 2)
    return Subset(spec.n, ones_head | ones_tail)


def permutation_hit_count(fam: SetFamily, a: Subset) -> int:
    """Number of permutations pi of [n] with a in {S^pi : S in fam}.

    Closed form N_w * w! * (n-w)! where w = |a| and N_w counts size-w members:
    each size-w member is carried onto `a` by exactly w!(n-w)! permutations,
    and no permutation carries two distinct members onto the same set.
    """
    if fam.n != a.n:
        raise ValueError("ground sets differ")
    w = a.weight
    return fam.count_of_size(w) * factorial(w) * factorial(fam.n - w)


@lru_cache(maxsize=1)
def permutation_image_counts(fam: SetFamily) -> Mapping[int, int]:
    """Per mask, the number of permutations pi of [n] with the mask in
    {S^pi : S in fam}; masks no permutation reaches are absent.

    Brute force over all n! permutations, imaging every member under each, so
    callers keep n small. No permutation carries two members onto one set, so
    each (pi, S) pair counts once. Cached for the last family asked about,
    which the permutation double count asks about twice.
    """
    counts: Counter[int] = Counter()
    bits = [1 << j for j in range(fam.n)]
    for mask in fam.masks():
        at = [i for i in range(fam.n) if mask >> i & 1]
        if not at:
            counts[0] += factorial(fam.n)  # every permutation fixes the empty set
            continue
        # pi as the tuple whose entry i is the bit of pi(i + 1): the member's
        # image is the sum of the entries at its elements.
        picked = map(itemgetter(*at), itertools.permutations(bits))
        counts.update(picked if len(at) == 1 else map(sum, picked))
    return MappingProxyType(dict(counts))


def permutation_hit_count_exhaustive(fam: SetFamily, a: Subset) -> int:
    """Count the same permutations by brute force over all n! of them."""
    if fam.n != a.n:
        raise ValueError("ground sets differ")
    if fam.n > 8:
        raise ValueError("exhaustive count is factorial; keep n <= 8")
    return permutation_image_counts(fam).get(a.mask, 0)


# --- family file format -----------------------------------------------------
#
# First line `n=<N>`, then one set per line as comma-separated elements, with
# `{}` denoting the empty set. Written in canonical order.


def family_to_text(fam: SetFamily) -> str:
    lines = [f"n={fam.n}"]
    for s in fam:
        lines.append(",".join(str(e) for e in s.elements()) if s.weight else "{}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str, max_n: int | None = None) -> SetFamily:
    """Parse a family file, refusing a ground set above max_n before any set."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family file must start with an 'n=<N>' line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad ground set size: {lines[0]!r}") from exc
    if max_n is not None and n > max_n:
        raise ValueError(f"ground set size {n} is above {max_n}")
    sets = []
    for ln in lines[1:]:
        if ln == "{}":
            sets.append(Subset.empty(n))
        else:
            sets.append(Subset.from_elements(n, (int(tok) for tok in ln.split(","))))
    return SetFamily(n, sets)
