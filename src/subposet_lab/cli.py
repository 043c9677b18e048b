"""Batch command-line driver: bounds tables, exact searches, chain emission,
greedy embeddings, and the verification suites.

Identical invocations produce byte-identical output: no timestamps, no
wall-clock dependence (budgets are node counts), and suite results are
reported in input order.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Sequence

from . import bounds as bnd
from .embedder import embedding_threshold, greedy_embed, removal_allowance
from .errors import PreconditionViolated, SubposetLabError
from .families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    family_from_text,
    family_to_text,
    interval_chain,
    unrelated_below,
    unrelated_below_count,
    worst_set,
)
from .posets import chain, diamond, parse_poset_spec
from .solver import alpha, la_exact, lubell_max, verify_double_counting

SUITES = (
    "levelsize",
    "unrelated",
    "worstset",
    "counting",
    "greedy",
    "soundness",
    "recursion",
)


@dataclass
class RunConfig:
    """Validated arguments for one CLI invocation.

    The fields are the parser's destinations, so a parsed namespace fills
    them directly; `k_values` arrives as the raw `--k` text.
    """

    command: str
    poset_spec: str | None = None
    n: int | None = None
    k_values: tuple[int, ...] | str = ()
    mode: str = "weak"
    objective: str = "cardinality"
    node_budget: int | None = None
    override_guard: bool = False
    fmt: str = "table"
    output: str | None = None
    family_path: str | None = None
    suite: str = "all"
    samples: int = 20
    seed: int = 1
    steps: int = 64

    def __post_init__(self) -> None:
        if isinstance(self.k_values, str):
            self.k_values = _parse_k_range(self.k_values)
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node budget must be positive")


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(int(lo), int(hi) + 1))
    else:
        values = (int(text),)
    if not values:
        raise ValueError(f"empty k range {text!r}")
    return values


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _param_value(value):
    """A bound parameter as printed: coefficients as strings, the rest as is."""
    if isinstance(value, bnd.COEFFICIENT_TYPES):
        return bnd.coefficient_str(value)
    return value


def _params_str(params: dict) -> str:
    return ";".join(f"{key}={params[key]}" for key in sorted(params))


# --- bounds ------------------------------------------------------------------


def cmd_bounds(cfg: RunConfig) -> int:
    p = parse_poset_spec(cfg.poset_spec)
    sizeP, h = p.size, p.height()
    layers = p.mirsky_decomposition().sizes
    reports = [bnd.bound_burcsi_nagy(sizeP, h)]
    for m in (1, 2, 3):
        reports.append(bnd.bound_chen_li(sizeP, h, m))
    reports.append(bnd.best_chen_li_m(sizeP, h))
    for k in (2, 3):
        reports.append(bnd.bound_main(sizeP, h, k))
    reports.append(bnd.best_main_k(sizeP, h))
    reports.append(bnd.bound_corollary_interval(sizeP, h))
    reports.append(bnd.bound_corollary_diamond(layers))
    sizes = p.complete_layer_sizes()
    if sizes is not None:
        # The diamond D_k is the complete poset with layers (1, k, 1).
        if len(sizes) == 3 and sizes[0] == sizes[2] == 1 and sizes[1] >= 2:
            reports.append(bnd.bound_dk(sizes[1]))
        if len(set(sizes)) == 1:
            reports.append(bnd.lower_bound_complete_multilevel(sizes[0], h))

    rows = [
        {
            "poset_spec": cfg.poset_spec,
            "sizeP": sizeP,
            "h": h,
            "bound_name": r.name,
            "params": {key: _param_value(v) for key, v in r.params.items()},
            "coefficient": r.coefficient_as_str(),
            "side": r.side,
        }
        for r in reports
    ]
    if cfg.fmt == "json":
        _emit(_json_dumps({"schema": 1, "rows": rows}), cfg.output)
    elif cfg.fmt == "csv":
        lines = ["poset_spec,sizeP,h,bound_name,params,coefficient,side"]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        row["poset_spec"],
                        str(row["sizeP"]),
                        str(row["h"]),
                        row["bound_name"],
                        _params_str(row["params"]),
                        row["coefficient"],
                        row["side"],
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", cfg.output)
    else:
        name_w = max(len(r["bound_name"]) for r in rows)
        lines = [f"bounds for {cfg.poset_spec}  (|P|={sizeP}, h={h})"]
        for row in rows:
            lines.append(
                f"  {row['bound_name']:<{name_w}}  {row['side']:<5}  "
                f"{row['coefficient']}  [{_params_str(row['params'])}]"
            )
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0


# --- exact / alpha -------------------------------------------------------------


def cmd_exact(cfg: RunConfig) -> int:
    p = parse_poset_spec(cfg.poset_spec)
    if cfg.objective == "cardinality":
        result = la_exact(cfg.n, p, cfg.mode, cfg.override_guard, cfg.node_budget)
    else:
        result = lubell_max(cfg.n, p, cfg.mode, cfg.override_guard, cfg.node_budget)
    _emit(_json_dumps(result.as_dict()), cfg.output)
    return 0 if result.exhaustive else 1


def cmd_alpha(cfg: RunConfig) -> int:
    fam = family_from_text(Path(cfg.family_path).read_text())
    p = parse_poset_spec(cfg.poset_spec)
    result = alpha(fam, p, cfg.mode, cfg.objective, cfg.node_budget)
    _emit(_json_dumps(result.as_dict()), cfg.output)
    return 0 if result.exhaustive else 1


def cmd_chain(cfg: RunConfig) -> int:
    spec = IntervalChainSpec.canonical(cfg.n, cfg.k_values[0])
    _emit(family_to_text(interval_chain(spec)), cfg.output)
    return 0


def cmd_embed(cfg: RunConfig) -> int:
    p = parse_poset_spec(cfg.poset_spec)
    k = cfg.k_values[0]
    if cfg.family_path:
        H = family_from_text(Path(cfg.family_path).read_text())
        spec = IntervalChainSpec.canonical(H.n, k)
    elif cfg.n is None:
        raise PreconditionViolated("embed needs --n or --family")
    else:
        spec = IntervalChainSpec.canonical(cfg.n, k)
        lo, hi = 3 * k - 3, cfg.n - k + 1
        H = interval_chain(spec).restrict_sizes(lo, hi)
    embedding, trace = greedy_embed(H, p, spec)
    payload = {
        "schema": 1,
        "poset": cfg.poset_spec,
        "n": spec.n,
        "k": k,
        "threshold": trace.threshold,
        "allowance": trace.allowance,
        "assignment": {
            str(e): list(s.elements()) for e, s in enumerate(embedding.images)
        },
        "total_order": [list(s.elements()) for s in trace.total_order],
        "steps": [
            {
                "layer": step.layer,
                "images": [list(s.elements()) for s in step.images],
                "removed": [list(s.elements()) for s in step.removed],
            }
            for step in trace.steps
        ],
        "new_removals": list(trace.new_removals()),
        "total_consumption": trace.total_consumption(),
    }
    _emit(_json_dumps(payload), cfg.output)
    return 0


# --- verify -------------------------------------------------------------------


@dataclass
class Check:
    name: str
    run: Callable[[], str]  # returns detail, raises on failure


def _run_check(check: Check) -> tuple[str, bool, str]:
    try:
        return (check.name, True, check.run())
    except Exception as exc:  # deliberate: any failure is a red check
        return (check.name, False, f"{type(exc).__name__}: {exc}")


def _suite_levelsize(cfg: RunConfig) -> list[Check]:
    ks = cfg.k_values or (2, 3, 4, 5)
    n_max = cfg.n or 14

    def make(k: int) -> Check:
        def run() -> str:
            count = 0
            for n in range(2 * k, n_max + 1):
                spec = IntervalChainSpec.canonical(n, k)
                fam = interval_chain(spec)
                for m in range(k, n - k + 1):
                    enumerated = fam.count_of_size(m)
                    expected = 1 << (k - 1)
                    if enumerated != expected:
                        raise AssertionError(
                            f"k={k} n={n} m={m}: {enumerated} != {expected}"
                        )
                    count += 1
            return f"{count} level counts equal 2^(k-1)"

        return Check(f"levelsize k={k}", run)

    return [make(k) for k in ks]


def _suite_unrelated(cfg: RunConfig) -> list[Check]:
    ks = cfg.k_values or (2, 3, 4)
    n_max = cfg.n or 14

    def make(k: int) -> Check:
        def run() -> str:
            expected = unrelated_below_count(k)
            count = 0
            for n in range(4 * k - 4, n_max + 1):
                spec = IntervalChainSpec.canonical(n, k)
                for m in range(3 * k - 3, n - k + 2):
                    got = len(unrelated_below(spec, m))
                    if got != expected:
                        raise AssertionError(f"k={k} n={n} m={m}: {got} != {expected}")
                    count += 1
            return f"{count} collections of size {expected}"

        return Check(f"unrelated k={k}", run)

    return [make(k) for k in ks]


def _suite_worstset(cfg: RunConfig) -> list[Check]:
    ks = cfg.k_values or (2, 3, 4)
    n_max = cfg.n or 12

    def make(k: int) -> Check:
        def run() -> str:
            qualifying = 0
            for n in range(2 * k, n_max + 1):
                spec = IntervalChainSpec.canonical(n, k)
                fam = interval_chain(spec)
                # Valid through m = n-k+1, the same cap the embedding window
                # uses; one level higher the top of the chain degenerates and
                # the partner is no longer unique.
                for m in range(k, n - k + 2):
                    blocker = worst_set(spec, m)
                    level_m = [s for s in fam if s.weight == m]
                    level_up = [s for s in fam if s.weight == m + 1]
                    for a in fam:
                        if a.weight >= m:
                            continue
                        unrelated_m = [s for s in level_m if not a.related(s)]
                        if not unrelated_m:
                            continue
                        if any(not a.related(s) for s in level_up):
                            continue
                        if unrelated_m != [blocker]:
                            raise AssertionError(
                                f"k={k} n={n} m={m} {a}: partners "
                                f"{[str(s) for s in unrelated_m]}"
                            )
                        qualifying += 1
            return f"{qualifying} qualifying sets, all with the unique partner"

        return Check(f"worstset k={k}", run)

    return [make(k) for k in ks]


def _counting_instance(rng: random.Random, idx: int) -> Check:
    from .families import permutation_hit_count, permutation_hit_count_exhaustive

    def run() -> str:
        n = rng.randint(4, 6)
        universe = list(range(1 << n))
        H = SetFamily.from_masks(n, rng.sample(universe, rng.randint(6, 12)))
        patterns = [chain(2), chain(3), diamond(1), diamond(2)]
        P = patterns[rng.randrange(len(patterns))]
        a = Subset(n, rng.randrange(1 << n))
        closed = permutation_hit_count(H, a)
        brute = permutation_hit_count_exhaustive(H, a)
        if closed != brute:
            raise AssertionError(f"hit count {closed} != exhaustive {brute}")
        # build a pattern-free family greedily from random candidates
        from .posets import find_subposet

        members: list[Subset] = []
        for mask in rng.sample(universe, 1 << (n - 1)):
            trial = SetFamily(n, members + [Subset(n, mask)])
            if find_subposet(trial, P, "weak") is None:
                members = list(trial)
        report = verify_double_counting(H, P, SetFamily(n, members))
        if not report.holds:
            raise AssertionError(f"sum {report.lhs} > alpha {report.alpha_value}")
        if not report.identity_holds:
            raise AssertionError(
                f"pair counts differ: {report.pairs_by_sets} vs "
                f"{report.pairs_by_permutations}"
            )
        return (
            f"n={n} |H|={len(H)} sum={report.lhs} <= alpha={report.alpha_value}, "
            f"pairs={report.pairs_by_sets}"
        )

    return Check(f"counting instance {idx}", run)


def _suite_counting(cfg: RunConfig) -> list[Check]:
    rng = random.Random(cfg.seed)
    seeds = [rng.randrange(1 << 30) for _ in range(cfg.samples)]
    return [
        _counting_instance(random.Random(seed), idx)
        for idx, seed in enumerate(seeds)
    ]


def _suite_greedy(cfg: RunConfig) -> list[Check]:
    k = cfg.k_values[0] if cfg.k_values else 2
    n = cfg.n or 10
    spec = IntervalChainSpec.canonical(n, k)
    window = interval_chain(spec).restrict_sizes(3 * k - 3, n - k + 1)
    patterns = [
        ("chain:3", chain(3)),
        ("diamond:1", diamond(1)),
        ("diamond:2", diamond(2)),
        ("K:1,2", parse_poset_spec("K:1,2")),
    ]
    checks = []
    for label, P in patterns:
        def run(P=P, label=label) -> str:
            rng = random.Random(cfg.seed)
            threshold = embedding_threshold(P, k)
            sets = list(window)
            cap = removal_allowance(k)
            for _ in range(cfg.samples):
                H = SetFamily(n, rng.sample(sets, threshold))
                _, trace = greedy_embed(H, P, spec)
                fresh = trace.new_removals()
                if fresh and max(fresh) > cap:
                    raise AssertionError(f"step removed {max(fresh)} > {cap}")
            return f"{cfg.samples} samples at threshold {threshold}, removals <= {cap}"

        checks.append(Check(f"greedy {label}", run))

        def run_alpha(P=P, label=label) -> str:
            full = interval_chain(spec)
            best = alpha(full, P, "weak", "cardinality")
            limit = embedding_threshold(P, k) - 1
            if best.value > limit:
                raise AssertionError(f"alpha {best.value} > {limit}")
            return f"alpha(C_{k}^0[{n}]) = {best.value} <= {limit}"

        checks.append(Check(f"greedy alpha {label}", run_alpha))
    return checks


def _suite_soundness(cfg: RunConfig) -> list[Check]:
    k = cfg.k_values[0] if cfg.k_values else 2
    n = bnd.min_valid_n(k)
    checks = []
    for label, P in (("chain:3", chain(3)), ("diamond:1", diamond(1))):
        def run(P=P, label=label) -> str:
            coeff = bnd.bound_main(P.size, P.height(), k).coefficient
            cap = coeff * comb(n, n // 2)
            exact = la_exact(n, P, "weak")
            if exact.value > cap:
                raise AssertionError(f"exact {exact.value} > bound {cap}")
            return f"n={n}: exact {exact.value} <= {cap}"

        checks.append(Check(f"soundness {label} k={k}", run))
    return checks


def _suite_recursion(cfg: RunConfig) -> list[Check]:
    def run() -> str:
        c = Fraction(1)
        for i in range(cfg.steps + 1):
            expected = Fraction(2**i, 2 ** (i + 1) - 1)
            if c != expected:
                raise AssertionError(f"c_{i} = {c} != {expected}")
            c = 2 * c / (2 * c + 1)
        return f"exponent identities hold through index {cfg.steps}"

    def run_target() -> str:
        trace = bnd.induced_exponent_chain(Fraction(51, 100))
        want = next(
            i for i in range(200) if Fraction(2**i, 2 ** (i + 1) - 1) < Fraction(51, 100)
        )
        if trace.min_index != want:
            raise AssertionError(f"min index {trace.min_index} != {want}")
        return f"first exponent below 51/100 is index {trace.min_index}"

    return [Check("recursion identities", run), Check("recursion target", run_target)]


_SUITE_BUILDERS = {
    "levelsize": _suite_levelsize,
    "unrelated": _suite_unrelated,
    "worstset": _suite_worstset,
    "counting": _suite_counting,
    "greedy": _suite_greedy,
    "soundness": _suite_soundness,
    "recursion": _suite_recursion,
}


def cmd_verify(cfg: RunConfig) -> int:
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    lines = []
    payload = []
    all_ok = True
    for name in names:
        for check_name, ok, detail in map(_run_check, _SUITE_BUILDERS[name](cfg)):
            all_ok &= ok
            lines.append(f"[{'ok' if ok else 'FAIL'}] {check_name}: {detail}")
            payload.append({"check": check_name, "ok": ok, "detail": detail})
    summary = "PASS" if all_ok else "FAIL"
    if cfg.fmt == "json":
        _emit(
            _json_dumps(
                {"schema": 1, "suite": cfg.suite, "checks": payload, "pass": all_ok}
            ),
            cfg.output,
        )
    else:
        lines.append(f"{summary} ({sum(1 for p in payload if p['ok'])}/{len(payload)} checks)")
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0 if all_ok else 1


# --- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subposet-lab",
        description="Interval chains, exact forbidden-subposet searches, and "
        "coefficient bounds over the subset lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options are stored under RunConfig's field names (dest); metavar keeps
    # the help text showing the option's own name.
    def add_common(sp, fmt_default="table"):
        sp.add_argument(
            "--format", dest="fmt", choices=("table", "json", "csv"), default=fmt_default
        )
        sp.add_argument("--output", default=None, help="write to a file instead of stdout")

    sp = sub.add_parser("bounds", help="coefficient bound table for a poset")
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    add_common(sp)

    sp = sub.add_parser("exact", help="exact La(n, P) by branch and bound")
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=("weak", "induced"), default="weak")
    sp.add_argument("--objective", choices=("cardinality", "lubell"), default="cardinality")
    sp.add_argument(
        "--budget", dest="node_budget", metavar="BUDGET", type=int, help="node budget"
    )
    sp.add_argument("--override-guard", action="store_true")
    add_common(sp, "json")

    sp = sub.add_parser("alpha", help="exact alpha(H, P) for a family file")
    sp.add_argument("--family", dest="family_path", metavar="FAMILY", required=True)
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    sp.add_argument("--mode", choices=("weak", "induced"), default="weak")
    sp.add_argument("--objective", choices=("cardinality", "lubell"), default="cardinality")
    sp.add_argument("--budget", dest="node_budget", metavar="BUDGET", type=int)
    add_common(sp, "json")

    sp = sub.add_parser("chain", help="emit the canonical k-interval chain as a family file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", dest="k_values", metavar="K", required=True)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("embed", help="greedy-embed a poset into an interval chain window")
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    sp.add_argument("--k", dest="k_values", metavar="K", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument(
        "--family", dest="family_path", metavar="FAMILY", help="family file to embed into"
    )
    add_common(sp, "json")

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=SUITES + ("all",), default="all")
    sp.add_argument(
        "--k", dest="k_values", metavar="K", default=(), help="k or k range like 2..5"
    )
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--steps", type=int, default=64)
    add_common(sp)
    return parser


_COMMANDS = {
    "bounds": cmd_bounds,
    "exact": cmd_exact,
    "alpha": cmd_alpha,
    "chain": cmd_chain,
    "embed": cmd_embed,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        return _COMMANDS[args.command](cfg)
    except SubposetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
