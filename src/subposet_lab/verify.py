"""The verification suites: the paper's lemmas run as checks.

- levelsize: each middle level of the k-interval chain holds 2^(k-1) sets;
- unrelated: (3k-5) 2^(k-2) smaller chain sets are unrelated to a larger one;
- worstset: a smaller set related to all of level m+1 but not to all of level
  m misses only the worst set;
- counting: the permutation double count, on random instances;
- greedy: the greedy embedding succeeds at its threshold;
- soundness: the main bound holds at its least valid n;
- recursion: the induced-Lubell exponents are 2^i / (2^(i+1) - 1).

Library functions are called through their modules (`families.interval_chain`,
not a name bound at import), so that rebinding a module attribute, as a
per-layer tracer does, reaches these calls too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Sequence

from . import bounds, embedder, families, posets, solver
from .errors import PreconditionViolated


def _need(suite: str, what: str, value: int, least: int) -> None:
    if value < least:
        raise PreconditionViolated(f"{suite}: need {what} >= {least}, got {value}")


def _per_k(suite: str, check, default_ks, default_n: int, least_k: int, n_floor):
    """A suite of check(k, range(n_floor(k), n_max + 1)) per k, refusing
    k < least_k, an n below n_floor(least k), which leaves that k nothing to
    enumerate, and a chain C_k[n_max] past the enumeration cap. The chain's size
    bound grows with k below n, so the largest k enumerating at n_max is checked."""

    def build(k_values, n, **_):
        ks = k_values or default_ks
        n_max = default_n if n is None else n
        _need(suite, "k", min(ks), least_k)
        _need(suite, "n", n_max, n_floor(min(ks)))
        families.check_chain_enumeration(n_max, max(k for k in ks if n_floor(k) <= n_max))
        return [(f"{suite} k={k}", check, (k, range(n_floor(k), n_max + 1))) for k in ks]

    return build


def _chain_levels(spec: families.IntervalChainSpec) -> dict[int, list[int]]:
    """The chain's member masks by weight, in enumeration order."""
    levels: dict[int, list[int]] = {}
    for x in families.chain_masks(spec):
        levels.setdefault(x.bit_count(), []).append(x)
    return levels


def _level_counts(k: int, ns: range) -> str:
    count = 0
    for n in ns:
        levels = _chain_levels(families.IntervalChainSpec.canonical(n, k))
        for m in range(k, n - k + 1):
            enumerated = len(levels.get(m, ()))
            expected = 1 << (k - 1)
            if enumerated != expected:
                raise AssertionError(f"k={k} n={n} m={m}: {enumerated} != {expected}")
            count += 1
    return f"{count} level counts equal 2^(k-1)"


def _unrelated_counts(k: int, ns: range) -> str:
    expected = families.unrelated_below_count(k)
    count = 0
    for n in ns:
        spec = families.IntervalChainSpec.canonical(n, k)
        lo, hi = spec.embedding_window
        for m in range(lo, hi + 1):
            got = len(families.unrelated_below(spec, m))
            if got != expected:
                raise AssertionError(f"k={k} n={n} m={m}: {got} != {expected}")
            count += 1
    return f"{count} collections of size {expected}"


def _worst_set_partners(k: int, ns: range) -> str:
    qualifying = 0
    for n in ns:
        spec = families.IntervalChainSpec.canonical(n, k)
        levels = _chain_levels(spec)
        # Valid through the top of the embedding window; one level higher the
        # top of the chain degenerates and the partner is no longer unique.
        for m in range(k, spec.embedding_window[1] + 1):
            blocker = families.worst_set(spec, m).mask
            level_m = levels.get(m, ())
            # A set smaller than m is related to a larger one exactly when
            # it lies inside it, so to all of level m + 1 when it lies inside
            # their meet.
            up_meet = (1 << n) - 1
            for x in levels.get(m + 1, ()):
                up_meet &= x
            for a in (a for w in range(m) for a in levels.get(w, ())):
                if a & ~up_meet:
                    continue
                unrelated_m = [x for x in level_m if a & ~x]
                if not unrelated_m:
                    continue
                if unrelated_m != [blocker]:
                    raise AssertionError(
                        f"k={k} n={n} m={m} {families.Subset(n, a)}: partners "
                        f"{[str(families.Subset(n, x)) for x in unrelated_m]}"
                    )
                qualifying += 1
    return f"{qualifying} qualifying sets, all with the unique partner"


def _grow_free(n: int, P, candidates) -> families.SetFamily:
    """Keep each candidate mask, in order, unless a weak copy of P runs through
    it and the sets kept so far, which hold none: one search answers each step."""
    cube = families.SetFamily.power_set(n)
    index = {mask: i for i, mask in enumerate(cube.masks())}
    search = posets.EmbeddingSearch(cube, P, "weak")
    kept = 0
    for mask in candidates:
        i = index[mask]
        if not search.embeds_using(kept | 1 << i, i):
            kept |= 1 << i
    return families.SetFamily(n, (s for i, s in enumerate(cube) if kept >> i & 1))


def _double_count(seed: int) -> str:
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    universe = list(range(1 << n))
    H = families.SetFamily.from_masks(n, rng.sample(universe, rng.randint(6, 12)))
    patterns = [posets.chain(2), posets.chain(3), posets.diamond(1), posets.diamond(2)]
    P = patterns[rng.randrange(len(patterns))]
    a = families.Subset(n, rng.randrange(1 << n))
    closed = families.permutation_hit_count(H, a)
    brute = families.permutation_hit_count_exhaustive(H, a)
    if closed != brute:
        raise AssertionError(f"hit count {closed} != exhaustive {brute}")
    members = _grow_free(n, P, rng.sample(universe, 1 << (n - 1)))
    report = solver.verify_double_counting(H, P, members)
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


def _counting(samples, seed, **_):
    _need("counting", "samples", samples, 1)
    rng = random.Random(seed)
    return [
        (f"counting instance {idx}", _double_count, (rng.randrange(1 << 30),))
        for idx in range(samples)
    ]


def _greedy_samples(P, spec, window, threshold: int, samples: int, seed: int) -> str:
    rng = random.Random(seed)
    sets = list(window)
    cap = embedder.removal_allowance(spec.k)
    for _ in range(samples):
        H = families.SetFamily(spec.n, rng.sample(sets, threshold))
        _, trace = embedder.greedy_embed(H, P, spec)
        fresh = trace.new_removals()
        if fresh and max(fresh) > cap:
            raise AssertionError(f"step removed {max(fresh)} > {cap}")
    return f"{samples} samples at threshold {threshold}, removals <= {cap}"


def _greedy_alpha(P, spec, threshold: int) -> str:
    best = solver.alpha(families.interval_chain(spec), P, "weak", "cardinality")
    limit = threshold - 1
    if best.value > limit:
        raise AssertionError(f"alpha {best.value} > {limit}")
    return f"alpha(C_{spec.k}^0[{spec.n}]) = {best.value} <= {limit}"


def _greedy(k_values, n, samples, seed, **_):
    # The check names carry no k, so one run checks one k.
    if len(k_values) > 1:
        raise PreconditionViolated(
            f"greedy: takes one k, got k={k_values[0]}..{k_values[-1]}"
        )
    k = k_values[0] if k_values else 2
    n = 10 if n is None else n
    _need("greedy", "k", k, 2)
    _need("greedy", "samples", samples, 1)
    spec = families.IntervalChainSpec.canonical(n, k)
    families.check_chain_enumeration(n, k)
    window = families.interval_chain(spec).restrict_sizes(*spec.embedding_window)
    patterns = [
        ("chain:3", posets.chain(3)),
        ("diamond:1", posets.diamond(1)),
        ("diamond:2", posets.diamond(2)),
        ("K:1,2", posets.parse_poset_spec("K:1,2")),
    ]
    thresholds = [embedder.embedding_threshold(P, k) for _, P in patterns]
    _need("greedy", f"window sets in C_{k}[{n}]", len(window), max(thresholds))
    checks = []
    for (label, P), threshold in zip(patterns, thresholds):
        checks.append(
            (f"greedy {label}", _greedy_samples, (P, spec, window, threshold, samples, seed))
        )
        checks.append((f"greedy alpha {label}", _greedy_alpha, (P, spec, threshold)))
    return checks


def _main_bound_holds(P, k: int, n: int) -> str:
    coeff = bounds.bound_main(P.size, P.height(), k).coefficient
    cap = coeff * comb(n, n // 2)
    exact = solver.la_exact(n, P, "weak")
    if exact.value > cap:
        raise AssertionError(f"exact {exact.value} > bound {cap}")
    return f"n={n}: exact {exact.value} <= {cap}"


def _soundness(k_values, **_):
    ks = k_values or (2,)
    _need("soundness", "k", min(ks), 2)
    checks = []
    for k in ks:
        # min_valid_n(k) >= k, as 2^(k-1) <= binom(n, n // 2) <= 2^(n-1): a k
        # above the guard is refused before the search for its n.
        n = bounds.min_valid_n(k) if k <= solver.N_GUARD else None
        if n is None or n > solver.N_GUARD:
            need = f">= {k}" if n is None else f"= {n}"
            raise PreconditionViolated(
                f"soundness: k={k} needs n = min_valid_n(k) {need}, "
                f"above the exact-search guard ({solver.N_GUARD})"
            )
        checks += [
            (f"soundness {label} k={k}", _main_bound_holds, (P, k, n))
            for label, P in (("chain:3", posets.chain(3)), ("diamond:1", posets.diamond(1)))
        ]
    return checks


def _exponent_identities(steps: int) -> str:
    c = Fraction(1)
    for i in range(steps + 1):
        expected = Fraction(2**i, 2 ** (i + 1) - 1)
        if c != expected:
            raise AssertionError(f"c_{i} = {c} != {expected}")
        c = 2 * c / (2 * c + 1)
    return f"exponent identities hold through index {steps}"


def _exponent_target() -> str:
    trace = bounds.induced_exponent_chain(Fraction(51, 100))
    want = next(
        i for i in range(200) if Fraction(2**i, 2 ** (i + 1) - 1) < Fraction(51, 100)
    )
    if trace.min_index != want:
        raise AssertionError(f"min index {trace.min_index} != {want}")
    return f"first exponent below 51/100 is index {trace.min_index}"


def _recursion(steps, **_):
    _need("recursion", "steps", steps, 0)
    return [
        ("recursion identities", _exponent_identities, (steps,)),
        ("recursion target", _exponent_target, ()),
    ]


SUITES = {
    "levelsize": _per_k("levelsize", _level_counts, (2, 3, 4, 5), 14, 1, lambda k: 2 * k),
    "unrelated": _per_k("unrelated", _unrelated_counts, (2, 3, 4), 14, 2, lambda k: 4 * k - 4),
    # For k = 1 the chain is a maximal chain, so no set ever qualifies.
    "worstset": _per_k("worstset", _worst_set_partners, (2, 3, 4), 12, 2, lambda k: 2 * k),
    "counting": _counting,
    "greedy": _greedy,
    "soundness": _soundness,
    "recursion": _recursion,
}


def _run_check(name: str, check, args: tuple) -> tuple[str, bool, str]:
    try:
        return (name, True, check(*args))
    except Exception as exc:  # deliberate: any failure is a red check
        return (name, False, f"{type(exc).__name__}: {exc}")


def run(names: Sequence[str], *, k_values, n, samples, seed, steps) -> list[tuple[str, bool, str]]:
    """Run the named suites; one (check, ok, detail) record per check, in order.

    Empty `k_values` and `n=None` select each suite's defaults. Each suite
    turns its inputs into (name, check, args) triples before the first check
    runs, refusing with PreconditionViolated inputs it cannot check, such as
    an n that leaves nothing to enumerate for the least k.
    """
    params = dict(k_values=k_values, n=n, samples=samples, seed=seed, steps=steps)
    checks = [check for name in names for check in SUITES[name](**params)]
    return [_run_check(*check) for check in checks]
