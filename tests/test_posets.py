import itertools
import random
import re

import pytest

from subposet_lab.errors import (
    CycleDetected,
    InvalidEmbedding,
    InvalidSpec,
    NotUniqueExtremum,
    ParseError,
)
from subposet_lab import posets
from subposet_lab.families import IntervalChainSpec, SetFamily, Subset, interval_chain
from subposet_lab.posets import (
    EmbeddingSearch,
    Poset,
    antichain,
    chain,
    check_embedding,
    complete_multilevel,
    diamond,
    embed_into_diamond_product,
    find_subposet,
    inclusion_poset,
    iter_subposet_embeddings,
    parse_poset_spec,
    poset_from_relations,
    product,
)

from conftest import (
    are_isomorphic,
    brute_contains,
    brute_contains_through,
    brute_poset_contains,
    is_copy,
    random_family,
    random_poset,
)


class TestConstruction:
    def test_transitivity_forced(self):
        p = poset_from_relations([(0, 1), (1, 2)], 3)
        assert p.less(0, 2)
        assert p.height() == 3

    def test_empty_relation(self):
        p = poset_from_relations([], 4)
        assert list(p.relations()) == []
        assert p.height() == 1

    def test_cycles_rejected(self):
        with pytest.raises(CycleDetected):
            poset_from_relations([(0, 0)], 1)
        with pytest.raises(CycleDetected):
            poset_from_relations([(0, 1), (1, 2), (2, 0)], 3)

    def test_out_of_range_ids(self):
        with pytest.raises(ValueError):
            poset_from_relations([(0, 5)], 3)

    def test_negative_size_refused(self):
        assert poset_from_relations([], 0).size == 0
        with pytest.raises(ValueError, match="size must be >= 0, got -1"):
            poset_from_relations([], -1)

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            Poset([0b001, 0b000, 0b000])  # reflexive at 0
        with pytest.raises(ValueError):
            Poset([0b010, 0b001, 0b000])  # antisymmetry broken
        with pytest.raises(ValueError):
            Poset([0b010, 0b100, 0b000])  # 0<1<2 without 0<2

    def test_constructor_refusals_match_the_pairwise_definition(self):
        def pairwise(rows):
            # The checks in the order the constructor makes them, one pair
            # of elements at a time.
            n = len(rows)
            cols = [0] * n
            for i, row in enumerate(rows):
                if not 0 <= row < (1 << n):
                    return f"row {i} references elements outside 0..{n - 1}"
                if row >> i & 1:
                    return f"relation is not irreflexive at {i}"
                for j in range(n):
                    if row >> j & 1:
                        cols[j] |= 1 << i
            for i in range(n):
                if rows[i] & cols[i]:
                    return f"relation is not antisymmetric at {i}"
                for j in range(n):
                    if rows[i] >> j & 1 and rows[j] & ~rows[i]:
                        return "relation is not transitively closed"
            return None

        rng = random.Random(9)
        seen = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            if rng.random() < 0.5:
                rows = list(random_poset(rng, n).rows)
                i = rng.randrange(n)
                rows[i] ^= 1 << rng.randrange(n + 1)  # may step outside 0..n-1
            else:
                rows = [rng.randrange(-1, 1 << n) for _ in range(n)]
            want = pairwise(rows)
            if want is None:
                p = Poset(rows)
                assert all(
                    p.below_mask(j) >> i & 1 == rows[i] >> j & 1
                    for i in range(n)
                    for j in range(n)
                )
                seen.add("valid")
            else:
                with pytest.raises(ValueError) as err:
                    Poset(rows)
                assert str(err.value) == want
                seen.update(
                    word
                    for word in ("outside", "irreflexive", "antisymmetric", "transitively")
                    if word in want
                )
        assert seen == {"valid", "outside", "irreflexive", "antisymmetric", "transitively"}

    def test_closure_is_idempotent(self):
        rng = random.Random(1)
        for _ in range(25):
            p = random_poset(rng, rng.randint(1, 8))
            again = poset_from_relations(list(p.relations()), p.size)
            assert again == p


class TestStandardPosets:
    def test_diamond_shape(self):
        d = diamond(2)
        assert d.size == 4
        assert d.less(0, 1) and d.less(0, 2) and d.less(1, 3) and d.less(2, 3)
        assert not d.related(1, 2)
        assert d.less(0, 3)

    def test_chain_singleton(self):
        c = chain(1)
        assert c.size == 1 and list(c.relations()) == []

    def test_sizes(self):
        assert diamond(5).size == 7
        assert complete_multilevel((2, 3)).size == 5
        assert antichain(7).height() == 1

    def test_complete_multilevel_relation_count(self):
        # pairs across levels: 2*2 + 2*2 + 2*2
        k = complete_multilevel((2, 2, 2))
        assert sum(1 for _ in k.relations()) == 12

    def test_invalid_specs(self):
        for bad in (lambda: chain(0), lambda: antichain(0), lambda: diamond(0)):
            with pytest.raises(InvalidSpec):
                bad()
        with pytest.raises(InvalidSpec):
            complete_multilevel((2, 0, 1))


class TestHeightAndMirsky:
    def test_named_heights(self):
        assert chain(5).height() == 5
        assert antichain(7).height() == 1
        for k in (1, 2, 5):
            assert diamond(k).height() == 3

    def test_mirsky_layers(self):
        assert diamond(2).mirsky_decomposition().sizes == (1, 2, 1)
        assert antichain(4).mirsky_decomposition().sizes == (4,)
        assert complete_multilevel((2, 3)).mirsky_decomposition().sizes == (2, 3)

    def test_chain_heights_are_kept(self):
        p = diamond(3)
        assert p.chain_heights() == (1, 2, 2, 2, 3)
        # The second call returns the tuple the first one stored.
        assert p.chain_heights() is p.chain_heights()
        with pytest.raises(AttributeError):
            p._heights = None

    def test_mirsky_decomposition_is_kept(self):
        rng = random.Random(3)
        for p in [Poset(()), diamond(3)] + [random_poset(rng, rng.randint(1, 7)) for _ in range(20)]:
            decomp = p.mirsky_decomposition()
            # Later calls, and the layer readers, use the object the first call stored.
            assert p.mirsky_decomposition() is decomp
            p.complete_layer_sizes()
            p.diamond_width()
            assert p.mirsky_decomposition() is decomp
            assert decomp == Poset(p.rows).mirsky_decomposition()
            with pytest.raises(AttributeError):
                p._mirsky = None
        assert diamond(3).mirsky_decomposition().layers == ((0,), (1, 2, 3), (4,))

    def test_complete_layer_sizes(self):
        assert diamond(7).complete_layer_sizes() == (1, 7, 1)
        assert chain(4).complete_layer_sizes() == (1, 1, 1, 1)
        assert complete_multilevel((2, 3, 2)).complete_layer_sizes() == (2, 3, 2)
        assert antichain(3).complete_layer_sizes() == (3,)
        assert product(diamond(2), diamond(2)).complete_layer_sizes() == (1, 2, 1, 2, 1)
        assert poset_from_relations([(0, 1)], 3).complete_layer_sizes() is None
        # N poset: 0 < 2, 1 < 2, 1 < 3 leaves 0 and 3 incomparable
        assert poset_from_relations([(0, 2), (1, 2), (1, 3)], 4).complete_layer_sizes() is None

    def test_diamond_width(self):
        assert [diamond(k).diamond_width() for k in (1, 2, 7)] == [1, 2, 7]
        assert chain(3).diamond_width() == 1
        assert relabelled(diamond(3), random.Random(1)).diamond_width() == 3
        for p in (chain(2), chain(4), antichain(3), complete_multilevel((2, 2, 1)),
                  product(diamond(2), diamond(2)), poset_from_relations([(0, 1)], 3)):
            assert p.diamond_width() == 0, p

    def test_complete_layer_sizes_agree_with_isomorphism(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_poset(rng, rng.randint(1, 6))
            sizes = p.complete_layer_sizes()
            layered = complete_multilevel(p.mirsky_decomposition().sizes)
            assert (sizes is not None) == are_isomorphic(p, layered)

    def test_layers_partition_and_are_antichains(self):
        rng = random.Random(2)
        for _ in range(40):
            p = random_poset(rng, rng.randint(1, 8))
            decomp = p.mirsky_decomposition()
            seen = [e for layer in decomp.layers for e in layer]
            assert sorted(seen) == list(range(p.size))
            assert len(decomp.layers) == p.height()
            for layer in decomp.layers:
                for x in layer:
                    for y in layer:
                        assert x == y or not p.related(x, y)
            # elements of higher layers never sit below lower layers
            for i, upper in enumerate(decomp.layers):
                for lower in decomp.layers[:i]:
                    for x in upper:
                        for y in lower:
                            assert not p.less(x, y)


def _reference_product(p, q):
    """The glued product as the relation list closed by Warshall."""
    p_max = p.maximal_elements()
    q_min = q.minimal_elements()
    if len(p_max) != 1:
        raise NotUniqueExtremum(f"left factor has maximal elements {p_max}")
    if len(q_min) != 1:
        raise NotUniqueExtremum(f"right factor has minimal elements {q_min}")
    w, qm = p_max[0], q_min[0]

    def q_id(e):
        return w if e == qm else p.size + e - (1 if e > qm else 0)

    pairs = list(p.relations())
    pairs += [(q_id(a), q_id(b)) for a, b in q.relations()]
    pairs += [
        (x, q_id(y)) for x in range(p.size) if x != w for y in range(q.size) if y != qm
    ]
    return poset_from_relations(pairs, p.size + q.size - 1)


def _outcome(build, *args):
    try:
        return build(*args)
    except NotUniqueExtremum as exc:
        return (type(exc), str(exc))


class TestProduct:
    def test_glued_rows_match_the_relation_closure(self):
        rng = random.Random(18)
        glued = 0
        for _ in range(2500):
            p = random_poset(rng, rng.randint(1, 6))
            q = random_poset(rng, rng.randint(1, 6))
            got = _outcome(product, p, q)
            assert got == _outcome(_reference_product, p, q), (p, q)
            glued += isinstance(got, Poset)
        # Both the glued and the refused branches are exercised.
        assert 200 < glued < 2300

    def test_spec_products_match_the_relation_closure(self):
        for spec, factors in (
            ("product:(diamond:1,diamond:2)", (diamond(1), diamond(2))),
            ("product:(chain:2,diamond:3,antichain:1)",
             (chain(2), diamond(3), antichain(1))),
            ("product:(diamond:2,product:(diamond:3,chain:3))",
             (diamond(2), _reference_product(diamond(3), chain(3)))),
        ):
            expected = factors[0]
            for q in factors[1:]:
                expected = _reference_product(expected, q)
            assert parse_poset_spec(spec) == expected, spec

    def test_chains_concatenate(self):
        assert are_isomorphic(product(chain(2), chain(2)), chain(3))

    def test_size_formula(self):
        assert product(diamond(2), diamond(3)).size == 2 + 3 + 3

    def test_requires_unique_extrema(self):
        with pytest.raises(NotUniqueExtremum):
            product(antichain(2), chain(2))
        with pytest.raises(NotUniqueExtremum):
            product(chain(2), antichain(2))

    def test_associative_on_chains(self):
        left = product(product(chain(2), chain(3)), chain(2))
        right = product(chain(2), product(chain(3), chain(2)))
        assert are_isomorphic(left, right)
        assert left.size == 2 + 3 + 2 - 2


class TestFindSubposet:
    def test_chain_in_diamond(self):
        emb = find_subposet(diamond(2), chain(3), "weak")
        assert emb is not None
        check_embedding(chain(3), emb, diamond(2))

    def test_diamond_in_chain(self):
        assert find_subposet(chain(3), diamond(1), "weak") is not None

    def test_family_host_weak_and_induced(self):
        host = SetFamily.power_set(2)
        for mode in ("weak", "induced"):
            emb = find_subposet(host, diamond(2), mode)
            assert emb is not None
            check_embedding(diamond(2), emb)

    def test_induced_implies_weak(self):
        rng = random.Random(3)
        for _ in range(40):
            host = random_poset(rng, 6)
            pattern = random_poset(rng, rng.randint(1, 4))
            if find_subposet(host, pattern, "induced") is not None:
                assert find_subposet(host, pattern, "weak") is not None

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_matches_brute_force_on_posets(self, mode):
        rng = random.Random(4)
        for _ in range(60):
            host = random_poset(rng, rng.randint(1, 6))
            pattern = random_poset(rng, rng.randint(1, 4))
            got = find_subposet(host, pattern, mode)
            expected = brute_poset_contains(host, pattern, mode)
            assert (got is not None) == expected
            if got is not None:
                check_embedding(pattern, got, host)

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_matches_brute_force_on_families(self, mode):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 4)
            host = SetFamily.from_masks(
                n, rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
            )
            pattern = random_poset(rng, rng.randint(1, 4))
            got = find_subposet(host, pattern, mode)
            assert (got is not None) == brute_contains(host, pattern, mode)
            if got is not None:
                check_embedding(pattern, got)

    def test_iter_yields_distinct_embeddings(self):
        host = SetFamily.power_set(3)
        seen = set()
        for emb in iter_subposet_embeddings(host, chain(2), "weak"):
            key = tuple(s.mask for s in emb.images)
            assert key not in seen
            seen.add(key)
        # ordered pairs (a, b) with a proper subset of b
        expected = sum(
            1
            for a in range(8)
            for b in range(8)
            if a != b and a & b == a
        )
        assert len(seen) == expected


class TestEmbeddingEnumeration:
    def test_find_stops_at_the_first_copy(self, monkeypatch):
        # _extend recurses through the module name, so the wrapper sees every
        # call: one per depth on the way to the first leaf.
        calls = 0
        extend = posets._extend

        def counting(*args):
            nonlocal calls
            calls += 1
            return extend(*args)

        monkeypatch.setattr(posets, "_extend", counting)
        host = SetFamily.power_set(4)
        # chain(2) has 65 copies in 2^[4]; the first is found within 3 calls.
        emb = find_subposet(host, chain(2), "weak")
        assert emb is not None
        check_embedding(chain(2), emb)
        assert calls <= 3
        calls = 0
        assert len(list(iter_subposet_embeddings(host, chain(2), "weak"))) == 65
        assert calls > 65

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_iter_yields_each_embedding_once(self, mode):
        rng = random.Random(7)
        for trial in range(40):
            n = rng.randint(1, 3)
            host = SetFamily.from_masks(
                n, rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
            )
            pattern = random_poset(rng, rng.randint(1, 3))
            got = [
                tuple(s.mask for s in emb.images)
                for emb in iter_subposet_embeddings(host, pattern, mode)
            ]
            expected = {
                images
                for images in itertools.permutations(host.masks(), pattern.size)
                if is_copy(images, pattern, mode)
            }
            assert len(got) == len(set(got))
            assert set(got) == expected, (host.masks(), pattern, mode)


def mask_walk(rng, size, checks=200):
    """(allowed, z) pairs of a walk over masks of `size` host indices: each
    step adds a set, drops a set or jumps to a random mask, as the solver's DFS
    does, and z is a random member of the mask."""
    allowed = (1 << size) - 1
    done = 0
    while done < checks:
        step = rng.random()
        if step < 0.4:
            allowed |= 1 << rng.randrange(size)
        elif step < 0.8:
            allowed &= ~(1 << rng.randrange(size))
        else:
            allowed = rng.randrange(1 << size)
        members = [i for i in range(size) if allowed >> i & 1]
        if not members:
            continue
        done += 1
        yield allowed, rng.choice(members)


def relabelled(pattern, rng):
    """The same poset with its element ids freely permuted."""
    perm = list(range(pattern.size))
    rng.shuffle(perm)
    return poset_from_relations(
        [(perm[a], perm[b]) for a, b in pattern.relations()], pattern.size
    )


class TestEmbedsUsing:
    """The solver's freeness fast path against injections that use set z."""

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_matches_brute_force(self, mode):
        # One search answers a walk of masks that grow, shrink and jump, as
        # the solver's DFS does, so later answers come from the copy and miss
        # kept for set z by earlier ones.
        rng = random.Random(6)
        twins = [antichain(3), complete_multilevel((2, 2)), diamond(2)]
        for trial in range(120):
            n = rng.randint(1, 4)
            host = SetFamily.from_masks(
                n, rng.sample(range(1 << n), rng.randint(1, min(8, 1 << n)))
            )
            if trial % 2:
                pattern = twins[trial // 2 % len(twins)]
            else:
                pattern = random_poset(rng, rng.randint(1, 4))
            search = EmbeddingSearch(host, pattern, mode)
            for allowed, z in mask_walk(rng, len(host)):
                expected = brute_contains_through(host, pattern, mode, allowed, z)
                assert search.embeds_using(allowed, z) == expected, (
                    host.masks(), pattern, mode, bin(allowed), z
                )

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_family_and_inclusion_poset_hosts_agree(self, mode):
        # A family host's masks come from containment_masks and a Poset
        # host's from its rows and columns; the inclusion poset numbers the
        # sets as the family does, so the two searches answer alike.
        rng = random.Random(f"hosts:{mode}")
        patterns = [diamond(2), complete_multilevel((2, 2)), complete_multilevel((2, 2, 2))]
        for trial in range(12):
            n = rng.randint(2, 5)
            fam = SetFamily.from_masks(
                n, rng.sample(range(1 << n), rng.randint(1, min(16, 1 << n)))
            )
            if trial % 4 == 3:
                pattern = random_poset(rng, rng.randint(1, 4))
            else:
                pattern = patterns[trial % 4]
            by_sets = EmbeddingSearch(fam, pattern, mode)
            by_poset = EmbeddingSearch(inclusion_poset(fam), pattern, mode)
            assert by_sets.embeddings() == by_poset.embeddings()
            for allowed, z in mask_walk(rng, len(fam)):
                assert by_sets.embeds_using(allowed, z) == by_poset.embeds_using(
                    allowed, z
                ), (fam.masks(), pattern, mode, bin(allowed), z)

    @pytest.mark.parametrize(
        "spec, mode", [("diamond:2", "weak"), ("chain:3", "induced"), ("K:2,2", "induced")]
    )
    def test_kernel_searches_build_no_pinned_plan(self, spec, mode):
        rng = random.Random(f"plans:{spec}:{mode}")
        host = SetFamily.power_set(4)
        search = EmbeddingSearch(host, parse_poset_spec(spec), mode)
        for allowed, z in mask_walk(rng, len(host), checks=100):
            search.embeds_using(allowed, z)
        assert search._pinned_plans == {}

    def test_generic_builds_plans_for_the_twins_it_tries(self):
        # K:2,2,2 has twin representatives 0 (bottom), 2 (middle), 4 (top).
        pattern = parse_poset_spec("K:2,2,2")
        host = SetFamily.power_set(4)
        search = EmbeddingSearch(host, pattern, "weak")
        assert search._twin_reps == [0, 2, 4]
        assert search._pinned_plans == {}
        full = (1 << len(host)) - 1
        # [4] has no set above it, so only the top is pinned there, and the
        # empty set only the bottom.
        assert search.embeds_using(full, len(host) - 1)
        assert set(search._pinned_plans) == {4}
        assert search.embeds_using(full, 0)
        assert set(search._pinned_plans) == {0, 4}
        rng = random.Random(7)
        for allowed, z in mask_walk(rng, len(host), checks=100):
            search.embeds_using(allowed, z)
        assert set(search._pinned_plans) <= {0, 2, 4}

    # Patterns that take a kernel: D_1-D_4 and 3-chains take _diamond, with
    # the weak middle test (any k members) or the induced one (k pairwise
    # incomparable members); complete two-layer patterns K:a,b and 2-chains
    # take _two_layer, with the same middle tests for their last layer.
    KERNEL_CASES = [
        ("diamond:1", "weak"),
        ("diamond:2", "weak"),
        ("diamond:3", "weak"),
        ("diamond:4", "weak"),
        ("chain:3", "weak"),
        ("chain:3", "induced"),
        ("diamond:2", "induced"),
        ("diamond:3", "induced"),
        ("diamond:4", "induced"),
    ] + [
        (spec, mode)
        for spec in ("chain:2", "K:1,2", "K:2,1", "K:2,2", "K:1,3", "K:2,3", "K:3,3")
        for mode in ("weak", "induced")
    ]

    @staticmethod
    def _walk_kernel(host, pattern, mode, rng, oracle):
        """Walk 200 masks on one search, comparing each answer with
        oracle(search, allowed, z), and check the copy kept after each True."""
        masks = host.masks()
        search = EmbeddingSearch(host, pattern, mode)
        verified = set()
        for allowed, z in mask_walk(rng, len(host)):
            got = search.embeds_using(allowed, z)
            assert got == oracle(search, allowed, z), (
                masks, pattern, mode, bin(allowed), z
            )
            if not got:
                continue
            copy = search.copies[z]
            assert copy >> z & 1 and not copy & ~allowed
            assert copy.bit_count() == pattern.size
            if copy not in verified:
                sets = [masks[i] for i in range(len(masks)) if copy >> i & 1]
                assert any(
                    is_copy(images, pattern, mode)
                    for images in itertools.permutations(sets)
                ), (masks, pattern, mode, bin(copy))
                verified.add(copy)

    @pytest.mark.parametrize("spec, mode", KERNEL_CASES)
    @pytest.mark.parametrize("relabel", [False, True])
    def test_diamond_kernels_match_brute_force(self, spec, mode, relabel):
        # Hosts shrink as the pattern grows, so that trying every injection
        # stays affordable; the next test takes hosts of up to 40 sets.
        rng = random.Random(f"{spec}:{mode}:{relabel}")
        pattern = parse_poset_spec(spec)
        if relabel:
            pattern = relabelled(pattern, rng)
        most = {2: 40, 3: 40, 4: 20, 5: 14, 6: 12}[pattern.size]
        for _ in range(3):
            n = rng.randint(3, 6 if pattern.size < 5 else 4)
            count = min(most, 1 << n)
            host = SetFamily.from_masks(
                n, rng.sample(range(1 << n), rng.randint(count // 2, count))
            )
            self._walk_kernel(
                host, pattern, mode, rng,
                lambda search, allowed, z: brute_contains_through(
                    host, pattern, mode, allowed, z
                ),
            )

    @pytest.mark.parametrize("spec, mode", KERNEL_CASES)
    @pytest.mark.parametrize("relabel", [False, True])
    def test_diamond_kernels_match_the_generic_search(self, spec, mode, relabel):
        # On hosts of up to 40 sets, where injections of D_3 and D_4 are too
        # many to try, the oracle is _generic: _extend with an element pinned
        # to z, as embeds_using ran it for every pattern before the kernels.
        rng = random.Random(f"generic:{spec}:{mode}:{relabel}")
        pattern = parse_poset_spec(spec)
        if relabel:
            pattern = relabelled(pattern, rng)
        for _ in range(6):
            n = rng.randint(3, 6)
            host = SetFamily.from_masks(
                n, rng.sample(range(1 << n), rng.randint(1, min(40, 1 << n)))
            )
            self._walk_kernel(
                host, pattern, mode, rng,
                lambda search, allowed, z: search._generic(allowed, z) != 0,
            )

    @staticmethod
    def _check_hosts(pattern, mode, hosts):
        """Every answer through each set of the whole host against brute
        force, for (host, holds a copy) pairs; returns the search's kernel."""
        for fam, contains in hosts:
            search = EmbeddingSearch(fam, pattern, mode)
            full = (1 << len(fam)) - 1
            answers = [search.embeds_using(full, z) for z in range(len(fam))]
            assert answers == [
                brute_contains_through(fam, pattern, mode, full, z) for z in range(len(fam))
            ]
            assert any(answers) == contains
        return search._full

    @pytest.mark.parametrize(
        "spec, mode, host",
        [
            # 2^[2] holds D_2 but no K:2,2.
            ("K:2,2", "weak", [0b00, 0b01, 0b10, 0b11]),
            # A 5-chain holds a weak D_3 but no induced one.
            ("diamond:3", "induced", [0b0, 0b1, 0b11, 0b111, 0b1111]),
        ],
    )
    def test_kernels_find_no_copy_in_near_misses(self, spec, mode, host):
        # The small host holds a copy of a near pattern, so a kernel that
        # mixed them up would answer True there; 2^[3] holds the pattern.
        pattern = parse_poset_spec(spec)
        kernel = self._check_hosts(
            pattern, mode,
            [(SetFamily.from_masks(4, host), False), (SetFamily.power_set(3), True)],
        )
        assert kernel is not EmbeddingSearch._generic

    @pytest.mark.parametrize(
        "pattern, mode, small, big",
        [
            # Three complete layers: a 3-chain of pairs, {4} and {1,2,4} as
            # bait in the small host, where {1,2} and {1,3} have one top.
            (
                complete_multilevel((2, 2, 2)), "weak",
                [0b0, 0b1, 0b11, 0b101, 0b111, 0b1000, 0b1011],
                [0b0, 0b1, 0b11, 0b101, 0b111, 0b1111, 0b1000],
            ),
            # Not complete: the N, a < c > b < d. 2^[2] holds it weakly only.
            (
                poset_from_relations([(0, 2), (1, 2), (1, 3)], 4), "induced",
                [0b00, 0b01, 0b10, 0b11],
                [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111],
            ),
        ],
        ids=["K:2,2,2-weak", "N-induced"],
    )
    def test_other_patterns_keep_the_generic_search(self, pattern, mode, small, big):
        kernel = self._check_hosts(
            pattern, mode,
            [(SetFamily.from_masks(4, small), False), (SetFamily.from_masks(4, big), True)],
        )
        assert kernel is EmbeddingSearch._generic

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_kernel_choice(self, mode):
        # The kernel follows the pattern's shape, not its labels, so a
        # pattern that silently fell back to _generic fails here.
        rng = random.Random(mode)
        shapes = {
            EmbeddingSearch._two_layer: ["chain:2", "K:1,2", "K:2,1", "K:2,2", "K:1,3",
                                         "K:2,3", "K:3,3", "K:1,5"],
            EmbeddingSearch._diamond: ["chain:3", "diamond:1", "diamond:2", "diamond:3",
                                       "diamond:6"],
            EmbeddingSearch._generic: ["chain:1", "chain:4", "antichain:3", "K:2,2,2",
                                       "K:1,2,2", "K:1,2,1,1"],
        }
        host = SetFamily.power_set(2)
        for kernel, specs in shapes.items():
            for pattern in [parse_poset_spec(spec) for spec in specs]:
                for p in (pattern, relabelled(pattern, rng)):
                    assert EmbeddingSearch(host, p, mode)._full is kernel, (p, mode)
        n_shape = poset_from_relations([(0, 2), (1, 2), (1, 3)], 4)
        assert EmbeddingSearch(host, n_shape, mode)._full is EmbeddingSearch._generic

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_diamond_through_a_middle(self, mode):
        # In 2^[2], {1} has one set below it and one above, so a D_k through
        # it has {1} as a middle: the whole host for D_2, and nothing once
        # {2}, the other middle, is left out, though the chain D_1 remains.
        host = SetFamily.power_set(2)
        z = host.masks().index(0b01)
        full = (1 << len(host)) - 1
        without_2 = full & ~(1 << host.masks().index(0b10))
        d2 = EmbeddingSearch(host, diamond(2), mode)
        assert d2.embeds_using(full, z) and d2.copies[z] == full
        assert not EmbeddingSearch(host, diamond(2), mode).embeds_using(without_2, z)
        assert EmbeddingSearch(host, diamond(1), "weak").embeds_using(without_2, z)

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_no_candidate_table_holds_its_own_index(self, mode):
        # _extend keeps the images distinct only because narrowing by an
        # image drops it: no table row at host index z may hold z.
        rng = random.Random(f"own-index:{mode}")
        for trial in range(40):
            if trial % 2:
                host = random_poset(rng, rng.randint(1, 8))
            else:
                n = rng.randint(1, 5)
                host = random_family(rng, n, rng.randint(1, 1 << n))
            pattern = random_poset(rng, rng.randint(1, 4))
            search = EmbeddingSearch(host, pattern, mode)
            for z in range(len(host)):
                assert not search._incomparable[z] >> z & 1, (host, pattern, z)
                for row in search.rel:
                    for table in row:
                        assert not table[z] >> z & 1, (host, pattern, z)

    def test_bad_mode_refused(self):
        with pytest.raises(ValueError, match="mode must be 'weak' or 'induced'"):
            EmbeddingSearch(SetFamily.power_set(2), chain(2), "strong")

    @pytest.mark.parametrize("mode", ["weak", "induced"])
    def test_one_element_pattern_embeds_through_any_allowed_set(self, mode):
        host = SetFamily.power_set(3)
        for pattern in (chain(1), antichain(1)):
            search = EmbeddingSearch(host, pattern, mode)
            for z in range(len(host)):
                assert search.embeds_using(1 << z, z)
                assert search.embeds_using((1 << len(host)) - 1, z)


def completers_by_query(search, grown, candidates):
    """The per-set loop that EmbeddingSearch.completers replaces: the
    candidates j for which grown | j holds a copy through j."""
    found = 0
    for j in range(len(search.above)):
        if candidates >> j & 1 and search.embeds_using(grown | 1 << j, j):
            found |= 1 << j
    return found


def include_first_states(search, rng, order=None):
    """(grown, newest, candidates) at each include of a random include-first
    walk that keeps alpha's dead sets, through `order`, an order of the host
    indices that extends inclusion (the host's index order by default, which
    is canonical for a family). A set dies when it completes a copy with the
    sets taken, by completers_by_query, or at random, as the later members of
    a full chain do. The oracle, not the method under test, steers the walk."""
    m = len(search.above)
    later = (1 << m) - 1
    grown = dead = 0
    for p in range(m) if order is None else order:
        later ^= 1 << p
        if dead >> p & 1 or rng.random() < 0.4:
            continue
        grown |= 1 << p
        ahead = later & ~dead
        full = ahead & rng.getrandbits(m) if rng.random() < 0.2 else 0
        candidates = ahead ^ full
        yield grown, p, candidates
        dead |= full | completers_by_query(search, grown, candidates)


class TestCompleters:
    """EmbeddingSearch.completers against one embeds_using query per
    candidate, on the states of include-first walks in canonical order,
    where its preconditions hold."""

    # Shapes with a mask rule in weak mode (and in induced mode for the
    # chains and D_2), and some that ask embeds_using per candidate.
    RULES = ["chain:2", "chain:3", "diamond:1", "diamond:2", "K:1,2", "K:2,1", "K:2,2"]
    QUERIES = ["diamond:3", "K:2,3", "K:3,1", "chain:4"]
    INDUCED_RULES = ["chain:2", "chain:3", "diamond:1", "diamond:2"]

    @staticmethod
    def _hosts(rng):
        for trial in range(16):
            n = rng.randint(3, 7)
            if trial % 3 == 2:
                # An interval chain over a random maximal chain of 2^[n].
                order = list(range(n))
                rng.shuffle(order)
                base, mask = [Subset(n, 0)], 0
                for bit in order:
                    mask |= 1 << bit
                    base.append(Subset(n, mask))
                k = rng.randint(1, min(3, (n - 1) // 2 + 1))
                yield interval_chain(IntervalChainSpec(n, k, tuple(base)))
            else:
                yield random_family(rng, n, rng.randint(4, 40))

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize(
        "spec, mode",
        [(spec, "weak") for spec in RULES + QUERIES]
        + [(spec, "induced") for spec in INDUCED_RULES],
    )
    def test_matches_one_query_per_candidate(self, spec, mode, relabel):
        rng = random.Random(f"completers:{spec}:{mode}:{relabel}")
        pattern = parse_poset_spec(spec)
        if relabel:
            pattern = relabelled(pattern, rng)
        # Includes where some candidate completes a copy, and where none does.
        seen = [0, 0]
        for host in self._hosts(rng):
            fast = EmbeddingSearch(host, pattern, mode)
            oracle = EmbeddingSearch(host, pattern, mode)
            assert fast.completers_by_masks == (spec in self.RULES)
            for _ in range(3):
                for grown, p, candidates in include_first_states(oracle, rng):
                    got = fast.completers(grown, p, candidates)
                    assert got == completers_by_query(oracle, grown, candidates), (
                        host.masks(), spec, mode, bin(grown), p, bin(candidates)
                    )
                    seen[got != 0] += 1
            if spec in self.RULES:
                # The mask rules ask no freeness query.
                assert fast.copies == [-1] * len(host)
        assert min(seen) >= 10, seen

    @pytest.mark.parametrize(
        "spec, mode", [(spec, "weak") for spec in RULES] + [("diamond:2", "induced")]
    )
    def test_rules_hold_in_any_index_order(self, spec, mode):
        # Inclusion posets with shuffled labels, walked through a linear
        # extension: the preconditions hold, but the index order does not
        # extend inclusion, so the lowest member of a mask need not be
        # minimal, and the unions of above masks over minimal members must
        # stay exact anyway.
        rng = random.Random(f"shuffled:{spec}:{mode}")
        pattern = parse_poset_spec(spec)
        seen = [0, 0]
        unsorted = 0
        for family in self._hosts(rng):
            host = relabelled(inclusion_poset(family), rng)
            order = sorted(range(host.size), key=lambda z: host.below_mask(z).bit_count())
            unsorted += order != sorted(order)
            fast = EmbeddingSearch(host, pattern, mode)
            oracle = EmbeddingSearch(host, pattern, mode)
            for _ in range(3):
                for grown, p, candidates in include_first_states(oracle, rng, order):
                    got = fast.completers(grown, p, candidates)
                    assert got == completers_by_query(oracle, grown, candidates), (
                        host.rows, spec, mode, bin(grown), p, bin(candidates)
                    )
                    seen[got != 0] += 1
            assert fast.copies == [-1] * host.size
        assert min(seen) >= 10 and unsorted >= 10, (seen, unsorted)

    @pytest.mark.parametrize("spec", ["K:2,2", "K:1,2", "diamond:3"])
    def test_induced_non_chains_ask_per_candidate(self, spec):
        # Induced copies of these need a layer of pairwise incomparable
        # members that no mask rule reads (D_2's two middles are the one
        # such layer with a rule); completers still answers, one query per
        # candidate.
        rng = random.Random(f"induced:{spec}")
        pattern = parse_poset_spec(spec)
        for host in self._hosts(rng):
            fast = EmbeddingSearch(host, pattern, "induced")
            oracle = EmbeddingSearch(host, pattern, "induced")
            assert not fast.completers_by_masks
            for grown, p, candidates in include_first_states(oracle, rng):
                got = fast.completers(grown, p, candidates)
                assert got == completers_by_query(oracle, grown, candidates)


class TestEmbedIntoDiamondProduct:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: chain(3),
            lambda: diamond(2),
            lambda: complete_multilevel((2, 2)),
            lambda: antichain(3),
        ],
    )
    def test_constructive_embedding_validates(self, build):
        p = build()
        result = embed_into_diamond_product(p)
        assert result.layer_sizes == p.mirsky_decomposition().sizes
        check_embedding(p, result.embedding, result.target)
        expected_size = sum(a + 2 for a in result.layer_sizes) - (
            len(result.layer_sizes) - 1
        )
        assert result.target.size == expected_size

    def test_search_confirms_target_hosts_pattern(self):
        for p in (diamond(2), complete_multilevel((2, 2))):
            result = embed_into_diamond_product(p)
            assert find_subposet(result.target, p, "weak") is not None

    def test_random_corpus(self):
        rng = random.Random(6)
        for _ in range(20):
            p = random_poset(rng, rng.randint(1, 6))
            result = embed_into_diamond_product(p)
            check_embedding(p, result.embedding, result.target)

    def test_target_is_the_product_chain_of_diamonds(self):
        # Reference: glue diamond(a_i) on one by one; layer i's middles are the
        # ids that glueing gives its diamond's middles.
        rng = random.Random(18)
        cases = [complete_multilevel([rng.randint(1, 4) for _ in range(rng.randint(1, 5))])
                 for _ in range(40)]
        cases += [random_poset(rng, rng.randint(1, 8)) for _ in range(60)]
        for p in cases:
            decomp = p.mirsky_decomposition()
            target = diamond(decomp.sizes[0])
            middles = [range(1, decomp.sizes[0] + 1)]
            for a in decomp.sizes[1:]:
                middles.append(range(target.size, target.size + a))
                target = product(target, diamond(a))
            images = [0] * p.size
            for layer, mids in zip(decomp.layers, middles):
                for elem, mid in zip(sorted(layer), mids):
                    images[elem] = mid
            result = embed_into_diamond_product(p)
            assert result.target == target, p
            assert result.embedding.images == tuple(images), p


class TestCheckEmbedding:
    def test_rejects_wrong_image_count(self):
        from subposet_lab.posets import Embedding

        with pytest.raises(InvalidEmbedding, match="image count differs"):
            check_embedding(chain(2), Embedding("weak", "poset", (0,)), chain(2))

    def test_rejects_non_injective(self):
        from subposet_lab.posets import Embedding

        with pytest.raises(InvalidEmbedding):
            check_embedding(
                antichain(2), Embedding("weak", "poset", (0, 0)), antichain(2)
            )

    def test_rejects_order_violation(self):
        from subposet_lab.posets import Embedding

        host = chain(2)
        with pytest.raises(InvalidEmbedding):
            check_embedding(chain(2), Embedding("weak", "poset", (1, 0)), host)

    def test_rejects_images_outside_the_host(self):
        from subposet_lab.posets import Embedding

        for images in ((0, 2), (2, 0), (0, -1)):
            with pytest.raises(InvalidEmbedding, match="not all elements of the host"):
                check_embedding(chain(2), Embedding("weak", "poset", images), chain(2))

    def test_induced_rejects_gained_relation(self):
        from subposet_lab.posets import Embedding

        host = chain(2)
        emb = Embedding("induced", "poset", (0, 1))
        with pytest.raises(InvalidEmbedding):
            check_embedding(antichain(2), emb, host)


    def test_matches_the_pairwise_check(self):
        # Reference: today's rule, one image comparison per ordered pair.
        from subposet_lab.posets import Embedding

        def reference(pattern, emb, host=None):
            images = emb.images
            if len(images) != pattern.size:
                raise InvalidEmbedding("image count differs from pattern size")
            if len(set(images)) != len(images):
                raise InvalidEmbedding("assignment is not injective")

            def img_less(a, b):
                x, y = images[a], images[b]
                if emb.target_kind == "family":
                    return x.is_proper_subset(y)
                if host is None:
                    raise InvalidEmbedding("poset-target validation needs the host poset")
                return host.less(x, y)

            for a in range(pattern.size):
                for b in range(pattern.size):
                    if a == b:
                        continue
                    if pattern.less(a, b) and not img_less(a, b):
                        raise InvalidEmbedding(f"relation {a} < {b} not preserved")
                    if emb.mode == "induced" and not pattern.less(a, b) and img_less(a, b):
                        raise InvalidEmbedding(f"spurious image relation under {a}, {b}")

        def outcome(check, *args):
            try:
                check(*args)
            except InvalidEmbedding as exc:
                return str(exc)
            return None

        rng = random.Random(18)
        seen = set()
        for _ in range(3000):
            pattern = random_poset(rng, rng.randint(1, 5))
            mode = rng.choice(["weak", "induced"])
            if rng.random() < 0.5:
                n = rng.randint(3, 4)
                pool = [Subset(n, m) for m in range(1 << n)]
                host = None
                kind = "family"
            else:
                host = random_poset(rng, rng.randint(pattern.size, 7))
                pool = list(range(host.size))
                kind = "poset"
            images = tuple(rng.choice(pool) for _ in range(pattern.size))
            if rng.random() < 0.8:
                images = tuple(rng.sample(pool, pattern.size))
            emb = Embedding(mode, kind, images)
            if kind == "poset" and rng.random() < 0.2:
                host = None
            got = outcome(check_embedding, pattern, emb, host)
            assert got == outcome(reference, pattern, emb, host), (pattern, emb, host)
            seen.add(got.split()[0] if got else None)
        assert seen == {None, "relation", "spurious", "assignment", "poset-target"}


class TestInclusionPoset:
    def test_matches_containment(self):
        fam = SetFamily(3, [Subset.empty(3), Subset.from_elements(3, [1]), Subset.full(3)])
        p = inclusion_poset(fam)
        assert p.height() == 3

    def test_power_set_height(self):
        assert inclusion_poset(SetFamily.power_set(3)).height() == 4


class TestPosetSpecDSL:
    @pytest.mark.parametrize(
        "spec,size,height",
        [
            ("chain:3", 3, 3),
            ("diamond:2", 4, 3),
            ("K:2,2,2", 6, 3),
            ("antichain:4", 4, 1),
            ("product:(diamond:1,diamond:2)", 6, 5),
        ],
    )
    def test_round_trips(self, spec, size, height):
        p = parse_poset_spec(spec)
        assert p.size == size
        assert p.height() == height

    def test_nested_product(self):
        p = parse_poset_spec("product:(chain:2,product:(chain:2,chain:2))")
        assert are_isomorphic(p, chain(4))

    def test_edge_file(self, tmp_path):
        path = tmp_path / "poset.txt"
        path.write_text("size 3\n0 < 1\n1 < 2\n")
        p = parse_poset_spec(f"edges:{path}")
        assert are_isomorphic(p, chain(3))

    @pytest.mark.parametrize(
        "bad",
        [
            "chain:0",
            "chain",
            "triangle:3",
            "K:2,x",
            "product:(chain:2)",
            "product:(chain:2,chain:2",
            "edges:/nonexistent/file",
            "product:(chain:2),(chain:3)",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_poset_spec(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("size x\n", "bad size header: 'size x'"),
            ("size\n", "bad size header: 'size'"),
            ("size 3\n0 - 1\n", "bad edge line (want 'u < v'): '0 - 1'"),
            ("0 < 1\n", "edge list needs a 'size N' header line"),
            ("size 2\n0 < 2\n", "pair (0, 2) references ids outside 0..1"),
            ("size 0\n", "edge list size must be >= 1, got 0"),
            ("size -1\n", "edge list size must be >= 1, got -1"),
        ],
    )
    def test_edge_list_refusals(self, tmp_path, text, message):
        path = tmp_path / "poset.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_poset_spec(f"edges:{path}")


class TestRefusals:
    def test_empty_poset_has_height_zero(self):
        assert Poset([]).height() == 0

    def test_unclosed_product_is_refused(self):
        message = "unbalanced parentheses in '(chain:2,chain:3'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_poset_spec("product:((chain:2,chain:3)")

    def test_edge_list_skips_blank_and_comment_lines(self):
        text = (
            "# the diamond D_2\n\nsize 4\n   # bottom first\n"
            "0 < 1\n0 < 2  # a tail\n\n1 < 3\n2 < 3\n"
        )
        assert posets.parse_edge_list(text) == diamond(2)
