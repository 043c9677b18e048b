"""Seeded operation lists of the three benchmark workloads.

Everything a workload needs (relabelled patterns, host families, greedy
samples, argv lists) is built here, before the first pass; the seed drives the
pattern relabelling, the random base chains, the `verify --seed` values, the
greedy samples and the op order. The program only ever receives the generated
inputs. Library functions are looked up through their modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import subposet_lab.bounds as bounds
import subposet_lab.cli as cli
import subposet_lab.embedder as embedder
import subposet_lab.families as families
import subposet_lab.posets as posets
import subposet_lab.solver as solver

import checks

WORKLOADS = ("cube-exact", "chain-alpha", "certify-batch")
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass
class Op:
    """One operation: a timed call plus everything needed to judge its result."""

    id: str
    call: Callable[[], object]
    check: Callable[[object], checks.Outcome]
    fingerprint: Callable[[object], str]
    solved: Callable[[object], bool] = lambda result: True
    gap: Callable[[object], Fraction | None] = lambda result: None
    stdout_bytes: Callable[[object], int] = lambda result: 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relabel(pattern: posets.Poset, rng: random.Random) -> posets.Poset:
    """The same poset with its element ids permuted.

    The permutation keeps the id order among elements of equal degree.
    EmbeddingSearch orders pattern elements by degree and breaks ties by id,
    and a free relabelling changes the cost of a freeness check up to 5x
    (middle-levels K:2,2: 1.9 to 10.5 s per op), which would let the seed
    rather than the code set the pass time.
    """
    ids = list(range(pattern.size))
    rng.shuffle(ids)
    perm = [0] * pattern.size
    for degree in {pattern.degree(e) for e in range(pattern.size)}:
        members = [e for e in range(pattern.size) if pattern.degree(e) == degree]
        slots = sorted(ids[e] for e in members)
        for e, slot in zip(members, slots):
            perm[e] = slot
    return posets.poset_from_relations(
        [(perm[a], perm[b]) for a, b in pattern.relations()], pattern.size
    )


def random_chain_spec(n: int, k: int, rng: random.Random) -> families.IntervalChainSpec:
    """k-interval chain spec over a uniformly random maximal base chain."""
    order = list(range(n))
    rng.shuffle(order)
    base, mask = [families.Subset(n, 0)], 0
    for bit in order:
        mask |= 1 << bit
        base.append(families.Subset(n, mask))
    return families.IntervalChainSpec(n, k, tuple(base))


# --- solver ops ------------------------------------------------------------------


def _solver_op(entry: dict, pattern, call, host_masks) -> Op:
    optimum = Fraction(entry["optimum"])

    def check(result) -> checks.Outcome:
        return checks.check_extremal(
            result, pattern=pattern, mode=entry["mode"], objective=entry["objective"],
            host_masks=host_masks, optimum=optimum, find_subposet=posets.find_subposet,
        )

    def gap(result):
        return None if entry["budget"] is None else optimum - Fraction(result.value)

    return Op(
        id=entry["id"],
        call=call,
        check=check,
        fingerprint=lambda r: f"{r.value}|{r.exhaustive}|{r.nodes_explored}|"
        + _sha(repr(r.witness.masks())),
        solved=lambda r: r.exhaustive,
        gap=gap,
    )


def cube_exact(rng: random.Random, entries: list[dict]) -> list[Op]:
    ops = []
    for entry in entries:
        pattern = relabel(posets.parse_poset_spec(entry["poset"]), rng)
        fn = "la_exact" if entry["objective"] == "cardinality" else "lubell_max"

        def call(fn=fn, entry=entry, pattern=pattern):
            return getattr(solver, fn)(
                entry["n"], pattern, entry["mode"], node_budget=entry["budget"]
            )

        ops.append(_solver_op(entry, pattern, call, None))
    return ops


def chain_alpha(rng: random.Random, entries: list[dict]) -> list[Op]:
    ops = []
    for entry in entries:
        host_spec = entry["host"]
        if host_spec["kind"] == "interval_chain":
            n, k = host_spec["n"], host_spec["k"]
            # A budget fixes how many nodes are searched, not which: another
            # base chain reorders H and moved a budgeted op's time by 50 %.
            if entry["budget"] is None:
                spec = random_chain_spec(n, k, rng)
            else:
                spec = families.IntervalChainSpec.canonical(n, k)
            host = families.interval_chain(spec)
        else:
            host = embedder.middle_levels_family(host_spec["n"], host_spec["levels"])
        pattern = relabel(posets.parse_poset_spec(entry["poset"]), rng)

        def call(entry=entry, host=host, pattern=pattern):
            return solver.alpha(
                host, pattern, entry["mode"], entry["objective"], entry["budget"]
            )

        ops.append(_solver_op(entry, pattern, call, set(host.masks())))
    return ops


# --- certify-batch ------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_op(op_id: str, argv: list[str], check) -> Op:
    return Op(
        id=op_id,
        call=lambda: _run_cli(argv),
        check=lambda r: check(*r),
        fingerprint=lambda r: f"{r[0]}|{_sha(r[1])}",
        stdout_bytes=lambda r: len(r[1].encode()),
    )


# Bound specs; each gets one output format, in turn. All are complete
# multilevel posets, so the checks can recompute every row from layer sizes.
BOUND_SPECS = (
    "chain:3", "diamond:2", "diamond:6", "diamond:7", "K:2,2", "K:3,3",
    "K:4,4,4", "antichain:5", "product:(diamond:1,diamond:2)",
)
FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class Size:
    """Knobs of the certify-batch mix; `SMOKE` is the seconds-long variant."""

    verify_n: int = 26
    unrelated_n: int = 22
    worstset_n: int = 18
    samples: int = 60
    greedy_samples: int = 400
    main_k_max_size: int = 200
    chen_li_max_size: int = 120


FULL = Size()
SMOKE = Size(verify_n=12, unrelated_n=12, worstset_n=9, samples=4,
             greedy_samples=1, main_k_max_size=20, chen_li_max_size=12)

# (k, n, pattern spec) cells of the library greedy runs; the window of each
# interval chain holds at least the embedding threshold of its pattern.
GREEDY_GRID = (
    (2, 12, "diamond:2"), (2, 16, "K:2,2,2"), (2, 20, "chain:5"),
    (3, 14, "diamond:3"), (3, 18, "K:2,3,2"), (3, 20, "chain:4"),
    (4, 20, "diamond:2"), (4, 20, "K:2,2"), (4, 20, "chain:3"),
)


def certify_batch(rng: random.Random, size: Size, known_defects: list[dict]) -> list[Op]:
    verify_seed = rng.randrange(1, 1 << 20)
    ops = [
        _cli_op(f"verify-{suite}", ["verify", "--suite", suite, *extra], checks.check_verify_output)
        for suite, extra in (
            ("levelsize", ["--k", "2..7", "--n", str(size.verify_n)]),
            ("unrelated", ["--k", "2..5", "--n", str(size.unrelated_n)]),
            ("worstset", ["--k", "2..4", "--n", str(size.worstset_n)]),
            ("counting", ["--samples", str(size.samples), "--seed", str(verify_seed)]),
            ("greedy", ["--k", "2", "--n", "10", "--samples", str(size.samples),
                        "--seed", str(verify_seed)]),
            ("recursion", ["--steps", "200"]),
        )
    ]
    missing = {d["poset"]: frozenset([d["missing_row"]]) for d in known_defects}
    for i, spec in enumerate(BOUND_SPECS):
        fmt = FORMATS[i % len(FORMATS)]
        ops.append(_cli_op(
            f"bounds-{spec}-{fmt}", ["bounds", "--poset", spec, "--format", fmt],
            lambda rc, text, spec=spec, fmt=fmt: checks.check_bounds_output(
                spec, fmt, rc, text, missing.get(spec, frozenset())),
        ))
    for spec, k, n in (("diamond:2", 2, 10), ("K:2,3,2", 3, 16)):
        pattern = posets.parse_poset_spec(spec)
        ops.append(_cli_op(
            f"embed-{spec}-k{k}", ["embed", "--poset", spec, "--k", str(k), "--n", str(n)],
            lambda rc, text, p=pattern, spec=spec, k=k, n=n: checks.check_embed_output(
                p, spec, k, n, rc, text),
        ))
    ops.append(_cli_op("chain-n14-k3", ["chain", "--n", "14", "--k", "3"],
                       lambda rc, text: checks.check_chain_output(14, 3, rc, text)))

    for k, n, spec in GREEDY_GRID:
        ops.append(_greedy_op(k, n, spec, size.greedy_samples, rng))

    main_grid = [(s, h) for s in range(1, size.main_k_max_size + 1) for h in range(1, s + 1)]
    chen_grid = [(s, h) for s in range(1, size.chen_li_max_size + 1) for h in range(1, s + 1)]
    ops.append(_grid_op("best_main_k-grid", "best_main_k", main_grid, checks.check_best_main_grid))
    ops.append(_grid_op("best_chen_li_m-grid", "best_chen_li_m", chen_grid,
                        checks.check_best_chen_li_grid))
    rng.shuffle(ops)
    return ops


def _greedy_op(k: int, n: int, spec: str, samples: int, rng: random.Random) -> Op:
    pattern = posets.parse_poset_spec(spec)
    chain_spec = families.IntervalChainSpec.canonical(n, k)
    window = families.interval_chain(chain_spec).restrict_sizes(3 * k - 3, n - k + 1)
    threshold = embedder.embedding_threshold(pattern, k)
    hosts = [families.SetFamily(n, rng.sample(window.sets, threshold)) for _ in range(samples)]

    def call():
        return [embedder.greedy_embed(h, pattern, chain_spec) for h in hosts]

    def check(results) -> checks.Outcome:
        for host, (emb, trace) in zip(hosts, results):
            outcome = checks.check_greedy(pattern, spec, k, set(host.masks()), emb, trace)
            if outcome.status != checks.OK:
                return outcome
        return checks.ok(f"{len(results)} embeddings")

    return Op(
        id=f"greedy-k{k}-n{n}-{spec}",
        call=call,
        check=check,
        fingerprint=lambda results: _sha(repr([
            ([s.mask for s in e.images], t.new_removals()) for e, t in results
        ])),
    )


def _grid_op(op_id: str, fn_name: str, grid: list[tuple[int, int]], check) -> Op:
    def call():
        fn = getattr(bounds, fn_name)
        return [((s, h), fn(s, h)) for s, h in grid]

    return Op(
        id=op_id,
        call=call,
        check=check,
        fingerprint=lambda results: _sha(repr([(str(r.coefficient), r.params) for _, r in results])),
    )


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's op list for `seed`, in the seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    table = EXPECTED["smoke"] if smoke else EXPECTED
    if workload == "cube-exact":
        ops = cube_exact(rng, table["cube-exact"])
    elif workload == "chain-alpha":
        ops = chain_alpha(rng, table["chain-alpha"])
    elif workload == "certify-batch":
        return certify_batch(rng, SMOKE if smoke else FULL, EXPECTED["known_defects"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
