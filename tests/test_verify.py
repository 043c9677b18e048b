import random

import pytest

from subposet_lab import bounds, families, posets, verify
from subposet_lab.errors import PreconditionViolated

from conftest import random_poset

PARAMS = dict(k_values=(), n=None, samples=2, seed=1, steps=3)


def test_records_follow_input_order():
    records = verify.run(["recursion", "levelsize"], **{**PARAMS, "k_values": (3, 2)})
    assert [name for name, _, _ in records] == [
        "recursion identities",
        "recursion target",
        "levelsize k=3",
        "levelsize k=2",
    ]
    assert all(ok for _, ok, _ in records)


def test_failing_check_reports_its_exception(monkeypatch):
    # The suites reach library functions through their modules, so a rebound
    # module attribute is what they call.
    monkeypatch.setattr(families, "unrelated_below_count", lambda k: 0)
    records = verify.run(["unrelated"], **{**PARAMS, "k_values": (2,), "n": 5})
    assert records == [("unrelated k=2", False, "AssertionError: k=2 n=4 m=3: 1 != 0")]


def test_inputs_refused_before_any_check_runs(monkeypatch):
    built = []
    monkeypatch.setattr(families, "interval_chain", built.append)
    monkeypatch.setattr(families, "chain_masks", built.append)
    with pytest.raises(PreconditionViolated, match="recursion: need steps >= 0, got -1"):
        verify.run(["levelsize", "recursion"], **{**PARAMS, "steps": -1})
    assert built == []


def test_soundness_runs_every_k(monkeypatch):
    monkeypatch.setattr(bounds, "min_valid_n", lambda k: 4)
    records = verify.run(["soundness"], **{**PARAMS, "k_values": (2, 3)})
    assert [name for name, _, _ in records] == [
        "soundness chain:3 k=2",
        "soundness diamond:1 k=2",
        "soundness chain:3 k=3",
        "soundness diamond:1 k=3",
    ]


def test_worstset_counts_the_sets_the_related_definition_qualifies():
    # The suite tests containment on masks; count its qualifying sets again
    # with Subset.related, pair by pair.
    for k, n_max in ((2, 9), (3, 10)):
        qualifying = 0
        for n in range(2 * k, n_max + 1):
            spec = families.IntervalChainSpec.canonical(n, k)
            fam = families.interval_chain(spec)
            for m in range(k, spec.embedding_window[1] + 1):
                level_m = [s for s in fam if s.weight == m]
                level_up = [s for s in fam if s.weight == m + 1]
                for a in fam:
                    if a.weight >= m or any(not a.related(s) for s in level_up):
                        continue
                    if any(not a.related(s) for s in level_m):
                        qualifying += 1
        detail = verify._worst_set_partners(k, range(2 * k, n_max + 1))
        assert detail == f"{qualifying} qualifying sets, all with the unique partner"
        assert qualifying > 0


def _reference_growth(n, P, candidates):
    """The counting suite's family, grown with one full search per candidate."""
    members = []
    for mask in candidates:
        trial = families.SetFamily(n, members + [families.Subset(n, mask)])
        if posets.find_subposet(trial, P, "weak") is None:
            members = list(trial)
    return families.SetFamily(n, members)


def test_grown_family_matches_one_search_per_candidate():
    patterns = [posets.parse_poset_spec(spec) for spec in (
        "chain:2", "chain:3", "diamond:1", "diamond:2", "K:1,2", "K:2,2", "antichain:2"
    )]
    cases = 0
    for seed in range(160):
        rng = random.Random(seed)
        for P in patterns + [random_poset(rng, rng.randint(2, 4))]:
            n = rng.randint(1, 6)
            candidates = rng.sample(range(1 << n), rng.randint(0, 1 << n))
            got = verify._grow_free(n, P, candidates)
            assert got == _reference_growth(n, P, candidates), (seed, P, n)
            cases += 1
    assert cases >= 1000


def test_counting_instance_builds_a_handful_of_searches(monkeypatch):
    built = []
    init = posets.EmbeddingSearch.__init__

    def counted(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    monkeypatch.setattr(posets.EmbeddingSearch, "__init__", counted)
    for seed in range(5):
        built.clear()
        verify._double_count(seed)
        # One to grow the family, not one per candidate (at least 8 of them).
        assert len(built) <= 3, (seed, len(built))
