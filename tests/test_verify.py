import pytest

from subposet_lab import bounds, families, verify
from subposet_lab.errors import PreconditionViolated

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
