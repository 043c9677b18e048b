"""Batch command-line driver: bounds tables, exact searches, chain emission,
greedy embeddings, and the verification suites' report (the suites live in
`verify`).

Identical invocations produce byte-identical output: no timestamps, no
wall-clock dependence (budgets are node counts), and suite results are
reported in input order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import bounds as bnd
from . import verify
from .embedder import greedy_embed
from .errors import PreconditionViolated, SubposetLabError
from .families import IntervalChainSpec, check_chain_enumeration, interval_chain
from .families import family_from_text, family_to_text
from .posets import parse_poset_spec
from .solver import alpha, la_exact, lubell_max

# Largest ground set `chain`, `embed` and `alpha` accept.
MAX_GROUND_SET = 64


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(int(lo), int(hi) + 1))
    else:
        values = (int(text),)
    if not values:
        raise ValueError(f"empty k range {text!r}")
    return values


def _check_budget(args: argparse.Namespace) -> None:
    """Refuse a non-positive node budget before any other work."""
    if args.node_budget is not None and args.node_budget <= 0:
        raise ValueError("node budget must be positive")


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


def cmd_bounds(args: argparse.Namespace) -> int:
    p = parse_poset_spec(args.poset_spec)
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
    k = p.diamond_width()
    if k >= 2:
        reports.append(bnd.bound_dk(k))
    sizes = p.complete_layer_sizes()
    if sizes is not None and len(set(sizes)) == 1:
        reports.append(bnd.lower_bound_complete_multilevel(sizes[0], h))

    rows = [
        {
            "poset_spec": args.poset_spec,
            "sizeP": sizeP,
            "h": h,
            "bound_name": r.name,
            "params": {key: _param_value(v) for key, v in r.params.items()},
            "coefficient": r.coefficient_as_str(),
            "side": r.side,
        }
        for r in reports
    ]
    if args.fmt == "json":
        _emit(_json_dumps({"schema": 1, "rows": rows}), args.output)
    elif args.fmt == "csv":
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
        _emit("\n".join(lines) + "\n", args.output)
    else:
        name_w = max(len(r["bound_name"]) for r in rows)
        lines = [f"bounds for {args.poset_spec}  (|P|={sizeP}, h={h})"]
        for row in rows:
            lines.append(
                f"  {row['bound_name']:<{name_w}}  {row['side']:<5}  "
                f"{row['coefficient']}  [{_params_str(row['params'])}]"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    _check_budget(args)
    p = parse_poset_spec(args.poset_spec)
    if args.objective == "cardinality":
        result = la_exact(args.n, p, args.mode, args.override_guard, args.node_budget)
    else:
        result = lubell_max(args.n, p, args.mode, args.override_guard, args.node_budget)
    _emit(_json_dumps(result.as_dict()), args.output)
    return 0 if result.exhaustive else 1


def cmd_alpha(args: argparse.Namespace) -> int:
    _check_budget(args)
    fam = family_from_text(Path(args.family_path).read_text(), max_n=MAX_GROUND_SET)
    p = parse_poset_spec(args.poset_spec)
    result = alpha(fam, p, args.mode, args.objective, args.node_budget)
    _emit(_json_dumps(result.as_dict()), args.output)
    return 0 if result.exhaustive else 1


def _chain_spec(n: int, k: int) -> IntervalChainSpec:
    """The canonical chain `chain` and `embed --n` enumerate, refused up front
    past MAX_GROUND_SET or families.MAX_CHAIN_ENUMERATION."""
    if n > MAX_GROUND_SET:
        raise PreconditionViolated(f"n={n} is above the ground-set cap {MAX_GROUND_SET}")
    spec = IntervalChainSpec.canonical(n, k)
    check_chain_enumeration(n, k)
    return spec


def cmd_chain(args: argparse.Namespace) -> int:
    spec = _chain_spec(args.n, args.k)
    _emit(family_to_text(interval_chain(spec)), args.output)
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    p = parse_poset_spec(args.poset_spec)
    if args.family_path:
        H = family_from_text(Path(args.family_path).read_text(), max_n=MAX_GROUND_SET)
        spec = IntervalChainSpec.canonical(H.n, args.k)
    elif args.n is None:
        raise PreconditionViolated("embed needs --n or --family")
    else:
        spec = _chain_spec(args.n, args.k)
        H = interval_chain(spec).restrict_sizes(*spec.embedding_window)
    embedding, trace = greedy_embed(H, p, spec)
    payload = {
        "schema": 1,
        "poset": args.poset_spec,
        "n": spec.n,
        "k": args.k,
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
    _emit(_json_dumps(payload), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # --k arrives as text when given; its default is the empty tuple.
    k_values = args.k_values
    if isinstance(k_values, str):
        k_values = _parse_k_range(k_values)
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    records = verify.run(
        names, k_values=k_values, n=args.n, samples=args.samples, seed=args.seed, steps=args.steps
    )
    all_ok = all(ok for _, ok, _ in records)
    if args.fmt == "json":
        checks = [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in records]
        text = _json_dumps({"schema": 1, "suite": args.suite, "checks": checks, "pass": all_ok})
    else:
        lines = [f"[{'ok' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in records]
        passed = sum(ok for _, ok, _ in records)
        lines.append(f"{'PASS' if all_ok else 'FAIL'} ({passed}/{len(records)} checks)")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if all_ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: one `error:` line, exit 2."""

    def error(self, message: str):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="subposet-lab",
        description="Interval chains, exact forbidden-subposet searches, and "
        "coefficient bounds over the subset lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options are stored under the names the commands read (dest); metavar
    # keeps the help text showing the option's own name.
    def add_output(sp, formats=()):
        if formats:
            sp.add_argument("--format", dest="fmt", choices=formats, default="table")
        sp.add_argument("--output", default=None, help="write to a file instead of stdout")

    sp = sub.add_parser("bounds", help="coefficient bound table for a poset")
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    add_output(sp, ("table", "json", "csv"))

    sp = sub.add_parser("exact", help="exact La(n, P) by branch and bound")
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=("weak", "induced"), default="weak")
    sp.add_argument("--objective", choices=("cardinality", "lubell"), default="cardinality")
    sp.add_argument(
        "--budget", dest="node_budget", metavar="BUDGET", type=int, help="node budget"
    )
    sp.add_argument("--override-guard", action="store_true")
    add_output(sp)

    sp = sub.add_parser("alpha", help="exact alpha(H, P) for a family file")
    sp.add_argument("--family", dest="family_path", metavar="FAMILY", required=True)
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    sp.add_argument("--mode", choices=("weak", "induced"), default="weak")
    sp.add_argument("--objective", choices=("cardinality", "lubell"), default="cardinality")
    sp.add_argument("--budget", dest="node_budget", metavar="BUDGET", type=int)
    add_output(sp)

    sp = sub.add_parser("chain", help="emit the canonical k-interval chain as a family file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    add_output(sp)

    sp = sub.add_parser("embed", help="greedy-embed a poset into an interval chain window")
    sp.add_argument("--poset", dest="poset_spec", metavar="POSET", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument(
        "--family", dest="family_path", metavar="FAMILY", help="family file to embed into"
    )
    add_output(sp)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    sp.add_argument(
        "--k", dest="k_values", metavar="K", default=(), help="k or k range like 2..5"
    )
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--steps", type=int, default=64)
    add_output(sp, ("table", "json"))
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
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SubposetLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
