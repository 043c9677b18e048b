"""subposet-lab benchmark: one seeded workload, closed loop, one thread.

    python3 bench/run.py --workload cube-exact --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One caller issues the workload's operations back to back. After set-up, a
warm-up pass is run and discarded, then timed passes repeat while the next one
is expected to end within `--seconds` (at least one runs). Every result is
checked outside the timed region.

`--trace 0` reports the end-to-end metrics; `--trace 1` adds a traced pass
after each untraced one and reports the per-layer metrics (see METRICS.md).
The last line of stdout is one JSON object; a human-readable report goes to
stderr, and a run record (with the spans of a traced run) to `bench/out/`.

Untraced timed passes run inside a `speed.SpeedProbe`, which times a fixed
reference kernel every 50 ms; `wall_norm_s` is the pass time rescaled to a
fixed kernel speed (see speed.py and METRICS.md). The raw wall time is kept on
stderr and in the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import speed
import tracing
from tracing import END, ID, INFO, LAYER, LAYERS, NAME, START

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
THREADS_ENV = "SUBPOSET_LAB_THREADS"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cube-exact", "chain-alpha", "certify-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long variant of the workload, for self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit (set-up timing)")
    return parser.parse_args(argv)


def import_package():
    """Import subposet_lab from this checkout's src/, refusing any other copy."""
    if not (SRC / "subposet_lab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC}/subposet_lab")
    sys.path.insert(0, str(SRC))
    import subposet_lab

    if Path(subposet_lab.__file__).resolve().parent != SRC / "subposet_lab":
        raise SystemExit(f"benchmark: imported {subposet_lab.__file__}, not the checkout's")
    return subposet_lab


def child_env() -> dict:
    return dict(os.environ, **{THREADS_ENV: "1"})


def measure_setup(args) -> list[tuple[float, float]]:
    """Fresh-interpreter set-up times, raw and at reference speed: import plus
    building the inputs.

    The child prints the wall clock when it is done; reading it, rather than
    timing the wait, keeps the parent's polling interval out of the number.
    The reference kernel is timed just before and just after each child.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.kernel_s()
        t0 = time.time()
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                             capture_output=True, text=True, timeout=120)
        raw = float(out.stdout) - t0
        samples.append((raw, speed.rescale(raw, before, speed.kernel_s())))
    return samples


def measure_cli_import() -> float:
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import subposet_lab.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": os.environ.get(THREADS_ENV),
        "loadavg_start": os.getloadavg(),
    }


# --- passes ---------------------------------------------------------------------


def run_pass(ops, tracer=None, calibrate=False) -> dict:
    """Run every op once, back to back; exceptions are recorded, not raised.

    With `calibrate`, the pass runs inside a speed probe; the probe's kernel
    time is left out of every op's time and of the pass's wall time.
    """
    results, spans = [], []
    clock = time.perf_counter
    probe = speed.SpeedProbe() if calibrate else None
    with probe or contextlib.nullcontext():
        t_start = clock()
        for op in ops:
            rec = tracer.open(op.id, "op") if tracer is not None else None
            t0 = clock()
            try:
                results.append((op.call(), None))
            except Exception:  # the harness carries on; the op counts as failed
                results.append((None, traceback.format_exc(limit=3)))
            spans.append((t0, clock()))
            if rec is not None:
                tracer.close(rec)
        t_end = clock()
    busy = probe.busy if probe else lambda t0, t1: 0.0
    return {"wall": t_end - t_start - busy(t_start, t_end), "results": results,
            "seconds": [t1 - t0 - busy(t0, t1) for t0, t1 in spans],
            "norm": probe.normalised() if probe else None,
            "kernel": probe.kernel_times() if probe else [],
            "traced": tracer is not None}


def judge_pass(ops, run: dict, reference: dict | None) -> None:
    """Check every result (outside any timing) and compare with the reference pass."""
    verdicts = []
    for i, (op, (result, error)) in enumerate(zip(ops, run["results"])):
        if error is not None:
            verdicts.append({"status": checks.FAIL, "detail": error.strip().splitlines()[-1],
                             "fingerprint": None, "solved": False})
            continue
        try:
            outcome = op.check(result)
            fp = op.fingerprint(result)
        except Exception as exc:  # a malformed result fails its op
            outcome, fp = checks.fail(f"check raised {type(exc).__name__}: {exc}"), None
        status, detail = outcome.status, outcome.detail
        if reference is not None:
            ref_fp = reference["verdicts"][i]["fingerprint"]
            if ref_fp is not None and ref_fp != fp:
                status, detail = checks.FAIL, f"differs from the first pass: {fp} vs {ref_fp}"
        verdicts.append({"status": status, "detail": detail, "fingerprint": fp,
                         "solved": bool(op.solved(result))})
    run["verdicts"] = verdicts


def release(run: dict) -> None:
    """Drop a judged pass's results, so peak RSS holds one pass's results, not all."""
    run.pop("results")
    gc.collect()


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


# --- per-layer metrics ----------------------------------------------------------------


BUILD = {f"posets.{name}" for name in (
    "parse_poset_spec", "parse_edge_list", "poset_from_relations", "complete_multilevel",
    "chain", "antichain", "diamond", "product", "inclusion_poset")}
BOUND_REPORTS = ("bounds.bound_", "bounds.lower_bound_", "bounds.best_")


def layer_metrics(ops, traced: dict, untraced_wall: float, setup_tracer) -> dict:
    """Per-layer metrics of one traced pass (set-up spans count for build and chain time)."""
    tr = traced["tracer"]
    spans, agg = tr.spans, tr.agg
    own = tracing.self_times(spans, agg)

    def incl(recs):
        return sum(r[END] - r[START] for r in recs)

    def outer(names, both=False):
        recs = tracing.outermost(spans, names)
        return recs + tracing.outermost(setup_tracer.spans, names) if both else recs

    def aggs(pred):
        return [e for (_, name), e in agg.items() if pred(name)]

    alpha = [r for r in spans if r[NAME] == "solver.alpha" and r[INFO]]
    nodes = sum(r[INFO][0] for r in alpha)
    alpha_s = incl(outer({"solver.alpha"}))
    gaps = [op.gap(res) for op, (res, err) in zip(ops, traced["results"]) if err is None]
    freeness = aggs(lambda name: name == "posets.EmbeddingSearch.embeds_using")
    checks_n = sum(e[0] for e in freeness)
    greedy = outer({"embedder.greedy_embed"})
    reports = aggs(lambda name: name.startswith(BOUND_REPORTS))
    sweeps = outer({"bounds.best_main_k", "bounds.best_chen_li_m"})
    cli_spans = [r for r in spans if r[NAME] == "cli.main"]
    chains = outer({"families.interval_chain"}, both=True)
    shares = tracing.layer_self_seconds(spans, agg)
    wall = traced["wall"]
    m = {
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / alpha_s if alpha_s else 0.0, "1/s"),
        "solver.self_s": (sum(own[r[ID]] for r in spans if r[LAYER] == "solver"), "s"),
        "solver.budget_hits": (sum(1 for r in alpha if not r[INFO][1]), "count"),
        "solver.gap": (float(sum((g for g in gaps if g is not None), Fraction(0))), "value"),
        "solver.dc_s": (incl(outer({"solver.verify_double_counting"})), "s"),
        "posets.freeness_checks": (checks_n, "count"),
        "posets.freeness_us": (sum(e[1] for e in freeness) / checks_n * 1e6 if checks_n else 0.0, "us"),
        "posets.freeness_hit_frac": (sum(e[2] for e in freeness) / checks_n if checks_n else 0.0, "ratio"),
        "posets.find_calls": (len(outer({"posets.find_subposet"})), "count"),
        "posets.find_s": (incl(outer({"posets.find_subposet"})), "s"),
        "posets.search_init_s": (incl(outer({"posets.EmbeddingSearch.__init__"})), "s"),
        "posets.build_s": (incl(outer(BUILD, both=True)), "s"),
        "families.interval_chain_calls": (len(chains), "count"),
        "families.interval_chain_s": (incl(chains), "s"),
        "families.unrelated_s": (incl(outer({"families.unrelated_below",
                                             "families.unrelated_below_count"})), "s"),
        "families.perm_count_s": (incl(outer({"families.permutation_hit_count",
                                              "families.permutation_hit_count_exhaustive"})), "s"),
        "embedder.greedy_calls": (len(greedy), "count"),
        "embedder.greedy_us": (incl(greedy) / len(greedy) * 1e6 if greedy else 0.0, "us"),
        "embedder.fresh_removals": (sum(sum(r[INFO].new_removals()) for r in greedy), "count"),
        "bounds.calls": (sum(e[0] for e in reports) + len(sweeps), "count"),
        "bounds.sweep_s": (incl(sweeps), "s"),
        "bounds.interval_calls": (sum(e[2] for e in reports), "count"),
        "bounds.known_defects": (sum(1 for v in traced["verdicts"] if v["status"] == checks.KNOWN_DEFECT), "count"),
        "cli.calls": (len(cli_spans), "count"),
        "cli.self_s": (sum(own[r[ID]] for r in cli_spans), "s"),
        "cli.stdout_bytes": (sum(op.stdout_bytes(res) for op, (res, err)
                                 in zip(ops, traced["results"]) if err is None), "bytes"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.overhead_frac": ((wall - untraced_wall) / untraced_wall, "ratio"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (shares[layer] / wall, "ratio")
    m["share.harness"] = (1.0 - sum(shares[layer] for layer in LAYERS) / wall, "ratio")
    return m


def median_metrics(samples: list[dict]) -> dict:
    """Per-metric median over traced passes; counts repeat exactly and stay exact."""
    merged = {}
    for name, (_, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        merged[name] = (values[0] if len(set(values)) == 1 else statistics.median(values), unit)
    return merged


# --- main --------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ[THREADS_ENV] = "1"
    env = environment()
    package = import_package()
    setup_samples = [] if args.setup_only else measure_setup(args)

    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed, args.smoke)
        print(repr(time.time()))
        return 0

    layer_modules = {layer: sys.modules[f"subposet_lab.{layer}"] for layer in LAYERS}
    setup_tracer = tracing.Tracer()
    if args.trace:
        setup_tracer.install(package, layer_modules)
        root = setup_tracer.open("setup", "setup")
    try:
        ops = workloads.build(args.workload, args.seed, args.smoke)
    finally:
        if args.trace:
            setup_tracer.close(root)
            setup_tracer.uninstall()

    warmup = run_pass(ops)
    judge_pass(ops, warmup, None)
    release(warmup)
    passes, traced_passes, layer_samples = [], [], []
    t_measure = time.perf_counter()
    # Start a pass only if it can end within --seconds; the first always runs.
    while not passes or (time.perf_counter() - t_measure) * (len(passes) + 1) / len(passes) <= args.seconds:
        run = run_pass(ops, calibrate=True)
        judge_pass(ops, run, warmup)
        release(run)
        passes.append(run)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(package, layer_modules)
            try:
                traced = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced["tracer"] = tracer
            judge_pass(ops, traced, warmup)
            layer_samples.append(layer_metrics(ops, traced, run["wall"], setup_tracer))
            release(traced)
            traced_passes.append(traced)

    every = [warmup] + passes + traced_passes
    verdicts = [v for run in every for v in run["verdicts"]]
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v["status"] == checks.FAIL)
    solved = sum(1 for v in verdicts if v["solved"])
    known = sum(1 for v in verdicts if v["status"] == checks.KNOWN_DEFECT)
    walls = [run["wall"] for run in passes]
    norm_walls = [run["norm"] for run in passes]

    if args.trace:
        metrics = median_metrics(layer_samples)
        metrics["cli.import_s"] = (measure_cli_import(), "s")
        metrics["trace.wrapper_ns"] = (tracing.empty_wrapper_ns(), "ns")
    else:
        metrics = {
            "wall_norm_s": (statistics.median(norm_walls), "s"),
            "setup_s": (statistics.median(norm for _, norm in setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "solved_frac": (solved / attempted, "ratio"),
        }
    env["loadavg_end"] = os.getloadavg()

    report(args, env, ops, every, walls, setup_samples, metrics, attempted, failed, known)
    write_record(args, env, ops, every, setup_samples, metrics, setup_tracer)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def report(args, env, ops, every, walls, setup_samples, metrics, attempted, failed, known) -> None:
    def say(line=""):
        print(line, file=sys.stderr)

    say(f"# {args.workload} seed={args.seed} trace={args.trace} python={env['python']} "
        f"nproc={env['nproc']} {THREADS_ENV}={env['threads_env']} "
        f"loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    last = every[-1]
    for op, secs, verdict in zip(ops, last["seconds"], last["verdicts"]):
        say(f"  {op.id:<34} {secs:9.4f} s  {verdict['status']:<12} {verdict['detail'][:70]}")
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    say(f"  passes: {len(walls)} timed (+1 warm-up), raw wall median "
        f"{statistics.median(walls):.4f} s, {tail_text}")
    if setup_samples:
        say(f"  set-up: {len(setup_samples)} fresh interpreters, raw median "
            f"{statistics.median(raw for raw, _ in setup_samples):.4f} s")
    kernel = [k for run in every for k in run["kernel"]]
    if kernel:
        q = statistics.quantiles(kernel, n=20)
        say(f"  reference kernel: median {1e3 * statistics.median(kernel):.3f} ms, "
            f"p5-p95 {1e3 * q[0]:.3f}-{1e3 * q[-1]:.3f} ms over {len(kernel)} runs "
            f"(nominal {1e3 * speed.REF_S:.0f} ms)")
    say(f"  ops attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.4f}), "
        f"known defects {known}")
    for name, (value, unit) in metrics.items():
        say(f"  {name:<30} {value:>16.6g} {unit}")
    if args.trace:
        say(f"  layer shares of the traced pass ({args.workload}):")
        for name, (value, _) in metrics.items():
            if name.startswith("share."):
                say(f"    {name[6:]:<10} {100 * value:6.1f} %")
        say(f"    tracing overhead {metrics['trace.overhead_s'][0]:.3f} s "
            f"({100 * metrics['trace.overhead_frac'][0]:.1f} % of the untraced pass), "
            f"empty wrapper {metrics['trace.wrapper_ns'][0]:.0f} ns per call")


def write_record(args, env, ops, every, setup_samples, metrics, setup_tracer) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "setup_samples": setup_samples,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
        "passes": [
            {"wall": run["wall"], "norm": run["norm"], "traced": run["traced"],
             "kernel": run["kernel"],
             "ops": [{"id": op.id, "seconds": s, **v}
                     for op, s, v in zip(ops, run["seconds"], run["verdicts"])]}
            for run in every
        ],
    }
    if args.trace:
        record["setup_spans"] = setup_tracer.spans
        record["traced_passes"] = [
            {"spans": [r[:6] for r in run["tracer"].spans],
             "aggregates": [[parent, name, *entry] for (parent, name), entry
                            in run["tracer"].agg.items()]}
            for run in every if run["traced"]
        ]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (out / name).write_text(json.dumps(record, default=str))


if __name__ == "__main__":
    sys.exit(main())
