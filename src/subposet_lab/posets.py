"""Finite strict partial orders, standard constructors, and subposet search.

A Poset stores its full transitive closure as per-element bitmask rows
(bit j of row i means i < j), so embedding checks are O(1) lookups. The spec
parser refuses posets of more than MAX_SPEC_ELEMENTS = 64 elements before
building them: construction checks closure in quadratic time and the
embedding search is exponential in the pattern, while the specs in use have
at most 12 elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import (
    CycleDetected,
    InvalidEmbedding,
    InvalidSpec,
    NotUniqueExtremum,
    ParseError,
    SearchBudgetExceeded,
)
from .families import SetFamily, Subset, containment_masks


class Poset:
    """Immutable finite strict partial order on elements 0..size-1."""

    __slots__ = ("size", "rows", "_cols", "_heights")

    def __init__(self, rows: Sequence[int]):
        rows = tuple(rows)
        n = len(rows)
        cols = [0] * n
        # Both passes walk each row's set bits: one step per relation.
        for i, row in enumerate(rows):
            if not 0 <= row < (1 << n):
                raise ValueError(f"row {i} references elements outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"relation is not irreflexive at {i}")
            bit = 1 << i
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        for i, row in enumerate(rows):
            if row & cols[i]:
                raise ValueError(f"relation is not antisymmetric at {i}")
            rest = row
            while rest:
                low = rest & -rest
                if rows[low.bit_length() - 1] & ~row:
                    raise ValueError("relation is not transitively closed")
                rest ^= low
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_cols", tuple(cols))
        object.__setattr__(self, "_heights", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poset is immutable")

    def __len__(self) -> int:
        return self.size

    def less(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def related(self, i: int, j: int) -> bool:
        return self.less(i, j) or self.less(j, i)

    def above_mask(self, i: int) -> int:
        """Bitmask of elements strictly above i."""
        return self.rows[i]

    def below_mask(self, i: int) -> int:
        """Bitmask of elements strictly below i."""
        return self._cols[i]

    def degree(self, i: int) -> int:
        return (self.rows[i] | self._cols[i]).bit_count()

    def relations(self) -> Iterator[tuple[int, int]]:
        for i in range(self.size):
            for j in range(self.size):
                if self.rows[i] >> j & 1:
                    yield (i, j)

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if not self.rows[i])

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if not self._cols[i])

    def chain_heights(self) -> tuple[int, ...]:
        """For each element, the number of elements in a longest chain ending
        at it. Computed on the first call and kept: the poset never changes."""
        if self._heights is None:
            order = sorted(range(self.size), key=lambda i: self._cols[i].bit_count())
            label = [0] * self.size
            for i in order:
                below = self._cols[i]
                label[i] = 1 + max(
                    (label[j] for j in range(self.size) if below >> j & 1), default=0
                )
            object.__setattr__(self, "_heights", tuple(label))
        return self._heights

    def height(self) -> int:
        """Number of elements in a longest chain."""
        if self.size == 0:
            return 0
        return max(self.chain_heights())

    def mirsky_decomposition(self) -> "AntichainDecomposition":
        """Partition into height() antichains by longest-chain labeling.

        Layer i collects the elements whose longest chain ending at them has
        exactly i elements, so elements of higher layers are never below
        elements of lower ones.
        """
        label = self.chain_heights()
        layers = [
            tuple(i for i in range(self.size) if label[i] == lv)
            for lv in range(1, max(label, default=0) + 1)
        ]
        return AntichainDecomposition(tuple(layers))

    def complete_layer_sizes(self) -> tuple[int, ...] | None:
        """Mirsky layer sizes if this is a complete multilevel poset, else None.

        Complete means every element lies below every element of each higher
        layer; such a poset is determined up to isomorphism by these sizes
        (the diamond D_k has sizes (1, k, 1)).
        """
        decomp = self.mirsky_decomposition()
        above = 0
        for layer in reversed(decomp.layers):
            if any(self.rows[x] != above for x in layer):
                return None
            above |= sum(1 << x for x in layer)
        return decomp.sizes

    def diamond_width(self) -> int:
        """k if this is the diamond D_k (complete layers (1, k, 1)), else 0.
        The bounds table asks it; EmbeddingSearch reads the layer sizes."""
        layers = self.complete_layer_sizes()
        if layers is not None and len(layers) == 3 and layers[0] == layers[2] == 1:
            return layers[1]
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Poset(size={self.size}, relations={list(self.relations())})"


@dataclass(frozen=True)
class AntichainDecomposition:
    """Ordered antichain layers A_1..A_h partitioning a poset bottom-up."""

    layers: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)


@dataclass(frozen=True)
class Embedding:
    """An injection of pattern elements into a target poset or set family.

    images[e] is the image of pattern element e: an element id for
    poset-to-poset embeddings, a Subset for poset-to-family ones.
    """

    mode: str  # 'weak' | 'induced'
    target_kind: str  # 'poset' | 'family'
    images: tuple[Union[int, Subset], ...]


def poset_from_relations(pairs: Iterable[tuple[int, int]], size: int) -> Poset:
    """Transitive closure of the given (below, above) pairs; rejects cycles."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    rows = [0] * size
    for lo, hi in pairs:
        if not (0 <= lo < size and 0 <= hi < size):
            raise ValueError(f"pair ({lo}, {hi}) references ids outside 0..{size - 1}")
        rows[lo] |= 1 << hi
    # Warshall closure over the bitmask rows.
    for j in range(size):
        bit = 1 << j
        for i in range(size):
            if rows[i] & bit:
                rows[i] |= rows[j]
    for i in range(size):
        if rows[i] >> i & 1:
            raise CycleDetected(f"element {i} would lie below itself")
    return Poset(rows)


def complete_multilevel(sizes: Sequence[int]) -> Poset:
    """The complete h-level poset: every element below all elements of higher levels.

    Elements are numbered level by level from the bottom; level i gets the ids
    sum(sizes[:i]) .. sum(sizes[:i+1]) - 1.
    """
    sizes = tuple(sizes)
    if not sizes or any(a < 1 for a in sizes):
        raise InvalidSpec(f"level sizes must all be >= 1, got {sizes}")
    total = sum(sizes)
    rows: list[int] = []
    for a in sizes:
        end = len(rows) + a
        rows += [(1 << total) - (1 << end)] * a
    return Poset(rows)


def chain(k: int) -> Poset:
    if k < 1:
        raise InvalidSpec(f"chain length must be >= 1, got {k}")
    return complete_multilevel((1,) * k)


def antichain(k: int) -> Poset:
    if k < 1:
        raise InvalidSpec(f"antichain size must be >= 1, got {k}")
    return complete_multilevel((k,))


def diamond(k: int) -> Poset:
    """D_k: one bottom below k incomparable middles below one top (k+2 elements)."""
    if k < 1:
        raise InvalidSpec(f"diamond width must be >= 1, got {k}")
    return complete_multilevel((1, k, 1))


def product(p: Poset, q: Poset) -> Poset:
    """Glue q on top of p, identifying p's unique maximum with q's unique minimum.

    q's other elements follow p's in order, and every row of p gains the row of
    q's minimum; the factors' rows are closed, so the glued rows are too."""
    p_max = p.maximal_elements()
    q_min = q.minimal_elements()
    if len(p_max) != 1:
        raise NotUniqueExtremum(f"left factor has maximal elements {p_max}")
    if len(q_min) != 1:
        raise NotUniqueExtremum(f"right factor has minimal elements {q_min}")
    qm = q_min[0]

    def lift(row: int) -> int:
        # No q row holds qm, which lies below every other element of q.
        return (row & (1 << qm) - 1) << p.size | (row >> (qm + 1)) << (p.size + qm)

    over = lift(q.rows[qm])
    return Poset(
        [row | over for row in p.rows]
        + [lift(row) for e, row in enumerate(q.rows) if e != qm]
    )


def inclusion_poset(fam: SetFamily) -> Poset:
    """The family ordered by strict containment, elements in canonical order."""
    return Poset(containment_masks(fam)[0])


# --- subposet embedding search ----------------------------------------------


class EmbeddingSearch:
    """Backtracking search for order-preserving injections of a pattern.

    Pattern elements are assigned in descending-degree order (ties by id).
    Candidate sets are propagated forward after each assignment, so branches
    that starve a later element are cut immediately. The search is exhaustive:
    finding nothing is a proof that no embedding exists. embeddings() runs the
    one backtracking loop, _extend, which builds no generator or closure per
    call and stops at the first leaf its callback accepts.

    above[z] and below[z] are the masks of the host indices strictly above
    and below host index z: a Poset host's rows and columns, or a family's
    containment_masks, which cost |H| * n mask operations, not a test per
    pair of sets. labels holds a family's sets (None for a Poset), so
    embeddings can be reported as sets. embeddings() builds its plan when
    it runs and _generic its per-element plans on first use, so a search that
    a kernel answers builds none.

    rel[u][e][z] is the mask of host candidates left for pattern element u
    (u != e) once e is imaged at host index z: the host's below / above row
    when u lies below / above e, else _incomparable[z]: z's non-neighbours in
    induced mode, every other index in weak mode, so the mode is settled once.
    No candidate table holds its own index, so no mask narrowed by an image
    holds that image again, and the images stay distinct.

    embeds_using(allowed, z) asks for a copy inside `allowed` through host
    index z, and answers in three steps. Containing the pattern is monotone in
    the allowed mask, so two answers are kept per host index:
    - _copies[z] is the mask of the last copy found through z (-1, no copy,
      at first). It answers True for every later mask that holds it, since a
      weak or induced copy depends only on the relations among its own images.
    - _misses[z] is the last mask with no copy through z (0 at first). It
      answers False for every mask inside it, since a copy there would lie
      inside the miss too.
    - Otherwise _full(allowed, z) searches, and its answer is stored in one
      of the two. _full is chosen once, from the pattern's complete layer
      sizes, so relabelled patterns qualify:
      - layers (1, k, 1), the diamond D_k and the 3-chain D_1, take _diamond:
        some A below D with k middles strictly between them;
      - two layers (a, b), the K:a,b and the 2-chain, take _two_layer: every
        bottom below every top;
      - every other pattern, K:2,2,2 or a poset that is not complete, takes
        _generic, which pins a pattern element to z and runs _extend.
      Both kernels settle their last layer with one middle test, _middles:
      k members, each pair in _incomparable, which in weak mode is any k
      distinct members.
    Every step gives the exact answer, so the caller's results do not depend
    on which one gave it. embeddings() reads and writes neither cache.
    """

    __slots__ = (
        "above",
        "below",
        "labels",
        "pattern",
        "mode",
        "order",
        "rel",
        "_pinned_plans",
        "_twin_reps",
        "_copies",
        "_misses",
        "_incomparable",
        "_layers",
        "_full",
    )

    def __init__(self, host: Union[Poset, SetFamily], pattern: Poset, mode: str):
        if mode not in ("weak", "induced"):
            raise ValueError(f"mode must be 'weak' or 'induced', got {mode!r}")
        if isinstance(host, Poset):
            above, below = host.rows, host._cols
            self.labels = None
        else:
            above, below = containment_masks(host)
            self.labels = host.sets
        self.above = above
        self.below = below
        self.pattern = pattern
        self.mode = mode
        self.order = sorted(
            range(pattern.size), key=lambda e: (-pattern.degree(e), e)
        )
        q = pattern.size
        size = len(above)
        full = (1 << size) - 1
        if mode == "induced":
            incomparable = [full & ~(above[z] | below[z] | 1 << z) for z in range(size)]
        else:
            incomparable = [full ^ 1 << z for z in range(size)]
        self.rel = [
            [
                below if pattern.less(u, e)
                else above if pattern.less(e, u)
                else incomparable
                for e in range(q)
            ]
            for u in range(q)
        ]
        # _generic's plans, one per pinned element, built on first use.
        self._pinned_plans: dict[int, tuple] = {}
        # Elements with identical up- and down-sets are swappable, so a copy
        # through one exists iff a copy through any of its twins does.
        first: dict[tuple[int, int], int] = {}
        for e in range(q):
            first.setdefault((pattern.above_mask(e), pattern.below_mask(e)), e)
        self._twin_reps = list(first.values())
        self._copies = [-1] * size
        self._misses = [0] * size
        self._incomparable = incomparable
        # _full holds a plain function, so the search is not a cycle.
        self._layers = layers = pattern.complete_layer_sizes() or ()
        if len(layers) == 3 and layers[0] == layers[2] == 1:
            self._full = EmbeddingSearch._diamond
        elif len(layers) == 2:
            self._full = EmbeddingSearch._two_layer
        else:
            self._full = EmbeddingSearch._generic

    def _plan_for(self, order: Sequence[int]) -> tuple:
        # Per depth: the element assigned there and, for each later element,
        # the host-mask table its candidates are narrowed by.
        return tuple(
            (e, tuple((u, self.rel[u][e]) for u in order[depth + 1 :]))
            for depth, e in enumerate(order)
        )

    def embeddings(
        self, limit: int | None = None, node_budget: int | None = None
    ) -> list[tuple[int, ...]]:
        """Image tuples (indexed by pattern element id) in search order, the
        first `limit` of them or all; every candidate tried counts as a node
        against the budget."""
        found: list[tuple[int, ...]] = []

        def keep(images: list[int]) -> bool:
            found.append(tuple(images))
            return len(found) == limit

        tick = None
        if node_budget is not None:
            nodes = 0

            def tick() -> None:
                nonlocal nodes
                nodes += 1
                if nodes > node_budget:
                    raise SearchBudgetExceeded(
                        f"embedding search exceeded {node_budget} nodes"
                    )

        q = self.pattern.size
        full = (1 << len(self.above)) - 1
        _extend(self._plan_for(self.order), 0, [-1] * q, [full] * q, keep, tick)
        return found

    def embeds_using(self, allowed_mask: int, host_idx: int) -> bool:
        """Is there a copy of the pattern inside `allowed_mask` whose image
        includes host_idx (which must lie in `allowed_mask`)? Boolean fast
        path for incremental freeness checks."""
        if not self._copies[host_idx] & ~allowed_mask:
            return True
        if not allowed_mask & ~self._misses[host_idx]:
            return False
        copy = self._full(self, allowed_mask, host_idx)
        if copy:
            self._copies[host_idx] = copy
            return True
        self._misses[host_idx] = allowed_mask
        return False

    def _generic(self, allowed: int, z: int) -> int:
        """Mask of a copy inside `allowed` through z, or 0, by pinning each
        pattern element (one per twin class) to z and running _extend."""
        n_above = (self.above[z] & allowed).bit_count()
        n_below = (self.below[z] & allowed).bit_count()
        pattern = self.pattern
        plans = self._pinned_plans
        rel = self.rel
        for e in self._twin_reps:
            if (
                n_above < pattern.rows[e].bit_count()
                or n_below < pattern._cols[e].bit_count()
            ):
                continue
            plan = plans.get(e)
            if plan is None:
                # e first, then the usual order.
                plan = plans[e] = self._plan_for([e] + [x for x in self.order if x != e])
            # Pin e to z and narrow the others by it, then go on from depth 1.
            images = [-1] * len(rel)
            images[e] = z
            cand = [allowed & row[e][z] for row in rel]
            if _extend(plan, 1, images, cand, _stop, None):
                return sum(1 << x for x in images)
        return 0

    # The diamond kernel tries a bottom A and a top D only where no tried one
    # dominates it: the interval (A, D) only grows as A goes down and D goes
    # up, so a failed D rules out every D' below it, and a failed A every A'
    # above it (in induced mode too: an antichain of a smaller interval is one
    # of the larger). Any order of trial is exact; the host's index order tries
    # extremal sets first when it extends inclusion, as a family's canonical
    # order does.

    def _diamond(self, allowed: int, z: int) -> int:
        """Mask of a D_k inside `allowed` through z, or 0: a pair A below D
        with k middles strictly between them that _middles accepts, through z
        as the bottom, the top or a middle."""
        k = self._layers[1]
        middles = self._middles
        above = self.above
        below = self.below
        up = above[z] & allowed
        down = below[z] & allowed
        if up.bit_count() > k:
            # z as the bottom.
            rest = up
            while rest:
                d = rest.bit_length() - 1
                found = middles(up & below[d], 0, k)
                if found:
                    return 1 << z | 1 << d | found
                rest &= ~(below[d] | 1 << d)
        if down.bit_count() > k:
            # z as the top.
            rest = down
            while rest:
                a = (rest & -rest).bit_length() - 1
                found = middles(down & above[a], 0, k)
                if found:
                    return 1 << z | 1 << a | found
                rest &= ~(above[a] | 1 << a)
        if up and down:
            # z as a middle of some interval (A, D), which then holds z.
            tops = []
            rest = up
            while rest:
                d = rest.bit_length() - 1
                tops.append(d)
                rest &= ~(below[d] | 1 << d)
            rest = down
            while rest:
                a = (rest & -rest).bit_length() - 1
                span = above[a] & allowed
                for d in tops:
                    found = middles(span & below[d], 1 << z, k)
                    if found:
                        return 1 << a | 1 << d | found
                rest &= ~(above[a] | 1 << a)
        return 0

    def _two_layer(self, allowed: int, z: int) -> int:
        """Mask of a complete two-layer pattern K:a,b inside `allowed` through
        z, or 0: every bottom below every top, with the bottoms and the tops
        each an antichain in induced mode.

        z goes in its own layer, as a bottom and then as a top; the other
        layer's candidates are the allowed sets above (below) z. The side with
        fewer members to pick, or on a tie fewer candidates, is enumerated
        first, one member at a time, each pick narrowing the other side's
        candidates; _middles then settles the other side. The order is chosen
        per call because each fixed one, tops first or z's layer first,
        doubled the time of some K:a,b search."""
        bottoms, tops = self._layers
        above = self.above
        below = self.below
        incomparable = self._incomparable
        middles = self._middles
        bit = 1 << z
        # Picks of z's layer besides z.
        peers = allowed & incomparable[z]
        n_peers = peers.bit_count()
        for own, other, cand, toward, back in (
            (bottoms, tops, above[z] & allowed, above, below),
            (tops, bottoms, below[z] & allowed, below, above),
        ):
            n_cand = cand.bit_count()
            if n_cand < other or n_peers < own - 1:
                continue
            # An own pick narrows the other layer by `toward`, and the reverse.
            if (own - 1, n_peers) <= (other, n_cand):
                need, rest, narrow, last_need, last = own - 1, peers, toward, other, cand
            else:
                need, rest, narrow, last_need, last = other, cand, back, own - 1, peers
            chosen = 0
            stack = []
            while True:
                if not need:
                    found = middles(last, 0, last_need)
                    if found:
                        return bit | chosen | found
                elif rest.bit_count() >= need:
                    x = rest & -rest
                    rest ^= x
                    xi = x.bit_length() - 1
                    narrowed = last & narrow[xi]
                    if narrowed.bit_count() >= last_need:
                        # Try x now and the rest without x later.
                        stack.append((chosen, rest, last, need))
                        chosen |= x
                        rest &= incomparable[xi]
                        last = narrowed
                        need -= 1
                    continue
                if not stack:
                    break
                chosen, rest, last, need = stack.pop()
        return 0

    def _middles(self, middle: int, through: int, k: int) -> int:
        """k members of `middle` pairwise in _incomparable (any k in weak
        mode), `through` (0 or a member) among them, as a mask, or 0 if there
        are none. Members are tried lowest first, each next one in the
        _incomparable row of all taken so far; the last two are a member with
        its least partner."""
        incomparable = self._incomparable
        chosen = through
        if through:
            middle &= incomparable[through.bit_length() - 1]
            k -= 1
        stack = []
        while True:
            if k < 2:
                if not k:
                    return chosen
                if middle:
                    return chosen | middle & -middle
            elif k == 2:
                rest = middle
                while rest:
                    x = rest & -rest
                    other = middle & incomparable[x.bit_length() - 1]
                    if other:
                        return chosen | x | other & -other
                    rest ^= x
            elif middle.bit_count() >= k:
                x = middle & -middle
                middle ^= x
                # Take x now and the rest without x later.
                stack.append((chosen, middle, k))
                chosen |= x
                middle &= incomparable[x.bit_length() - 1]
                k -= 1
                continue
            if not stack:
                return 0
            chosen, middle, k = stack.pop()


def _stop(images: list[int]) -> bool:
    return True


def _extend(
    plan: tuple,
    depth: int,
    images: list[int],
    cand: list[int],
    leaf: Callable[[list[int]], bool],
    tick: Callable[[], None] | None,
) -> bool:
    """Assign the plan's elements from `depth` on, given the images and
    candidate masks so far, and call leaf(images) at each full assignment.
    Returns True, ending the search, as soon as a leaf does; tick, when given,
    is called once per candidate tried. No candidate table holds its own
    index, so no mask narrowed by an image holds it again."""
    if depth == len(plan):
        return leaf(images)
    elem, later = plan[depth]
    depth += 1
    choices = cand[elem]
    while choices:
        z = choices & -choices
        choices ^= z
        if tick is not None:
            tick()
        zi = z.bit_length() - 1
        narrowed = cand.copy()
        for u, masks in later:
            c = narrowed[u] & masks[zi]
            if not c:
                break
            narrowed[u] = c
        else:
            images[elem] = zi
            if _extend(plan, depth, images, narrowed, leaf, tick):
                return True
    return False


def _as_embedding(search: EmbeddingSearch, images: tuple[int, ...]) -> Embedding:
    if search.labels is None:
        return Embedding(search.mode, "poset", images)
    return Embedding(search.mode, "family", tuple(search.labels[i] for i in images))


def iter_subposet_embeddings(
    host: Union[Poset, SetFamily],
    pattern: Poset,
    mode: str = "weak",
    node_budget: int | None = None,
) -> Iterator[Embedding]:
    """All order-preserving injections of `pattern` into `host`. The search
    runs to the end (or to the budget) before the first one is yielded."""
    search = EmbeddingSearch(host, pattern, mode)
    for images in search.embeddings(node_budget=node_budget):
        yield _as_embedding(search, images)


def find_subposet(
    host: Union[Poset, SetFamily],
    pattern: Poset,
    mode: str = "weak",
    node_budget: int | None = None,
) -> Embedding | None:
    """First embedding of `pattern` in `host`, or None (exhaustively verified).
    The search stops at the first copy."""
    search = EmbeddingSearch(host, pattern, mode)
    found = search.embeddings(limit=1, node_budget=node_budget)
    return _as_embedding(search, found[0]) if found else None


def check_embedding(
    pattern: Poset, emb: Embedding, host: Poset | None = None
) -> None:
    """Validate injectivity and order preservation; raises InvalidEmbedding.

    Each image becomes a mask that strict containment orders as the images are
    (a set's mask, or a host element's down-set with itself). Row a of the
    pattern is compared with the images above image a; the least b differing is reported."""
    images = emb.images
    if len(images) != pattern.size:
        raise InvalidEmbedding("image count differs from pattern size")
    if len(set(images)) != len(images):
        raise InvalidEmbedding("assignment is not injective")
    induced = emb.mode == "induced"
    if emb.target_kind == "family":
        keys = [s.mask for s in images]
    elif host is not None:
        if not all(0 <= y < host.size for y in images):
            raise InvalidEmbedding(f"images {images} are not all elements of the host")
        keys = [host.below_mask(y) | 1 << y for y in images]
    elif any(pattern.rows) or induced and pattern.size > 1:
        raise InvalidEmbedding("poset-target validation needs the host poset")
    else:
        return
    for a, row in enumerate(pattern.rows):
        x = keys[a]
        up = 0
        for b, y in enumerate(keys):
            if x & y == x != y:
                up |= 1 << b
        bad = row & ~up | (up & ~row if induced else 0)
        if bad:
            b = (bad & -bad).bit_length() - 1
            if row >> b & 1:
                raise InvalidEmbedding(f"relation {a} < {b} not preserved")
            raise InvalidEmbedding(f"spurious image relation under {a}, {b}")


@dataclass(frozen=True)
class DiamondProductEmbedding:
    """A poset embedded into the chained product of diamonds built from its layers."""

    embedding: Embedding
    target: Poset
    layer_sizes: tuple[int, ...]


def embed_into_diamond_product(p: Poset) -> DiamondProductEmbedding:
    """Weak-embed p into D_{a_1} x ... x D_{a_h} for its antichain layer sizes.

    The glued diamonds are the complete poset K_{1,a_1,1,...,a_h,1}. Layer i of
    the Mirsky decomposition maps onto the middles of the i-th diamond; the
    glued bottoms/tops force every cross-layer relation.
    """
    decomp = p.mirsky_decomposition()
    sizes = decomp.sizes
    target = complete_multilevel((1,) + tuple(x for a in sizes for x in (a, 1)))
    images = [0] * p.size
    start = 1
    for layer in decomp.layers:
        for offset, elem in enumerate(sorted(layer)):
            images[elem] = start + offset
        start += len(layer) + 1
    emb = Embedding("weak", "poset", tuple(images))
    check_embedding(p, emb, target)
    return DiamondProductEmbedding(emb, target, sizes)


# --- poset spec DSL -----------------------------------------------------------
#
# chain:3 | diamond:2 | K:2,2,2 | antichain:4 | product:(spec,spec,...) |
# edges:path (a file with a `size N` header and `u < v` lines).

MAX_SPEC_ELEMENTS = 64


def _check_spec_size(size: int, what: str) -> None:
    """Refuse a spec of more than MAX_SPEC_ELEMENTS elements before it is built."""
    if size > MAX_SPEC_ELEMENTS:
        raise ParseError(
            f"{what} has {size} elements; poset specs are capped at {MAX_SPEC_ELEMENTS}"
        )


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def parse_edge_list(text: str) -> Poset:
    size = None
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("size"):
            try:
                size = int(line.split()[1])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"bad size header: {raw!r}") from exc
        else:
            try:
                lo, hi = (tok.strip() for tok in line.split("<"))
                pairs.append((int(lo), int(hi)))
            except ValueError as exc:
                raise ParseError(f"bad edge line (want 'u < v'): {raw!r}") from exc
    if size is None:
        raise ParseError("edge list needs a 'size N' header line")
    if size < 1:
        raise ParseError(f"edge list size must be >= 1, got {size}")
    _check_spec_size(size, "edge list")
    try:
        return poset_from_relations(pairs, size)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_poset_spec(spec: str) -> Poset:
    """Parse the poset DSL used by the CLI and file loaders."""
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    head = head.strip().lower()
    if not sep:
        raise ParseError(f"poset spec needs a ':', got {spec!r}")
    try:
        if head in ("chain", "antichain", "diamond"):
            k = int(rest)
            _check_spec_size(k + 2 if head == "diamond" else k, spec)
            return {"chain": chain, "antichain": antichain, "diamond": diamond}[head](k)
        if head == "k":
            sizes = tuple(int(t) for t in rest.split(","))
            _check_spec_size(sum(sizes), spec)
            return complete_multilevel(sizes)
        if head == "product":
            rest = rest.strip()
            # Products nest by recursion; one-element factors keep them small.
            if rest.count("(") > MAX_SPEC_ELEMENTS:
                raise ParseError(
                    f"product spec nests {rest.count('(')} products; "
                    f"at most {MAX_SPEC_ELEMENTS} are allowed"
                )
            if not (rest.startswith("(") and rest.endswith(")")):
                raise ParseError(f"product spec needs parentheses: {spec!r}")
            parts = _split_top_level(rest[1:-1])
            if len(parts) < 2:
                raise ParseError("product needs at least two factors")
            posets = [parse_poset_spec(part) for part in parts]
            _check_spec_size(sum(map(len, posets)) - len(posets) + 1, spec)
            return reduce(product, posets)
        if head == "edges":
            return parse_edge_list(Path(rest.strip()).read_text())
    except InvalidSpec as exc:
        raise ParseError(str(exc)) from exc
    except (ValueError, OSError) as exc:
        raise ParseError(f"cannot parse poset spec {spec!r}: {exc}") from exc
    raise ParseError(f"unknown poset kind {head!r}")
