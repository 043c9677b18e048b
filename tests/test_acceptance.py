"""Acceptance suite: one check per contract criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value is either computed here by an independent method
(enumeration, whole-group counting, exhaustive search) or frozen after being
derived that way. Criterion 6's optimized-parameter clause is implemented
exactly as stated and is expected to fail; see the failure message for the
counterexample structure.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from subposet_lab.bounds import (
    best_chen_li_m,
    best_main_k,
    bound_burcsi_nagy,
    bound_chen_li,
    bound_corollary_diamond,
    bound_corollary_interval,
    bound_main,
    certainly_less,
    min_valid_n,
    to_interval,
)
from subposet_lab.embedder import (
    embedding_threshold,
    greedy_embed,
    middle_levels_family,
    removal_allowance,
    span_certificate,
)
from subposet_lab.families import (
    IntervalChainSpec,
    SetFamily,
    Subset,
    interval_chain,
    permutation_hit_count,
    permutation_hit_count_exhaustive,
    unrelated_below,
    unrelated_below_count,
    worst_set,
)
from subposet_lab.posets import (
    chain,
    check_embedding,
    complete_multilevel,
    diamond,
    find_subposet,
    iter_subposet_embeddings,
)
from subposet_lab.solver import alpha, la_exact, verify_double_counting

GRID_MAX = 200


def announce(num: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {label}: PASS{suffix}")


def announce_fail(num: int, label: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: FAIL ({detail})")


def test_criterion_01_level_counts():
    checks = 0
    for k in (2, 3, 4, 5):
        expected = 1 << (k - 1)
        for n in range(2 * k, 15):
            fam = interval_chain(IntervalChainSpec.canonical(n, k))
            for m in range(k, n - k + 1):
                assert fam.count_of_size(m) == expected, (k, n, m)
                checks += 1
    announce(1, "interval-chain level counts", f"{checks} enumerations")


def test_criterion_02_unrelated_counts():
    checks = 0
    values = set()
    for k in (2, 3, 4):
        expected = unrelated_below_count(k)
        values.add(expected)
        for n in range(4 * k - 4, 15):
            spec = IntervalChainSpec.canonical(n, k)
            for m in range(3 * k - 3, n - k + 2):
                assert len(unrelated_below(spec, m)) == expected, (k, n, m)
                checks += 1
    assert values == {1, 8, 28}
    announce(2, "unrelated-set counts", f"{checks} enumerations, sizes 1/8/28")


def test_criterion_03_unique_partner():
    qualifying = 0
    for k in (2, 3, 4):
        for n in range(2 * k, 13):
            spec = IntervalChainSpec.canonical(n, k)
            fam = interval_chain(spec)
            for m in range(k, n - k + 2):
                blocker = worst_set(spec, m)
                level_m = [s for s in fam if s.weight == m]
                level_up = [s for s in fam if s.weight == m + 1]
                for a in fam:
                    if a.weight >= m:
                        continue
                    partners = [s for s in level_m if not a.related(s)]
                    if not partners:
                        continue
                    if any(not a.related(s) for s in level_up):
                        continue
                    assert partners == [blocker], (k, n, m, str(a))
                    qualifying += 1
    announce(3, "unique blocking partner", f"{qualifying} qualifying sets, 0 exceptions")


def test_criterion_04_permutation_double_count():
    rng = random.Random(20260810)
    patterns = [chain(2), chain(3), diamond(1), diamond(2)]
    for idx in range(20):
        n = rng.randint(4, 6)
        universe = range(1 << n)
        H = SetFamily.from_masks(n, rng.sample(universe, rng.randint(6, 12)))
        a = Subset(n, rng.randrange(1 << n))
        assert permutation_hit_count(H, a) == permutation_hit_count_exhaustive(H, a)

        P = patterns[idx % len(patterns)]
        members: list[Subset] = []
        for mask in rng.sample(universe, 1 << (n - 1)):
            trial = SetFamily(n, members + [Subset(n, mask)])
            if find_subposet(trial, P, "weak") is None:
                members = list(trial)
        report = verify_double_counting(H, P, SetFamily(n, members))
        assert report.exhaustive and report.identity_holds
        assert report.holds, (idx, report.lhs, report.alpha_value)
    announce(4, "permutation double counting", "20 instances, n <= 6")


def test_criterion_05_greedy_executable_bound():
    k, n = 2, 10
    spec = IntervalChainSpec.canonical(n, k)
    window = list(interval_chain(spec).restrict_sizes(3 * k - 3, n - k + 1))
    cap = removal_allowance(k)
    full_chain = interval_chain(spec)
    rng = random.Random(1894)
    runs = 0
    for P in (chain(3), diamond(1), diamond(2), complete_multilevel((1, 2))):
        threshold = embedding_threshold(P, k)
        for _ in range(1000):
            H = SetFamily(n, rng.sample(window, threshold))
            emb, trace = greedy_embed(H, P, spec)
            check_embedding(P, emb)
            fresh = trace.new_removals()
            assert all(c <= cap for c in fresh), fresh
            runs += 1
        best = alpha(full_chain, P, "weak", "cardinality")
        assert best.value <= threshold - 1, (best.value, threshold)
    announce(5, "greedy embedding traces", f"{runs} runs at threshold, alpha at cap")


def test_criterion_06_bound_identities():
    for sizeP in range(1, GRID_MAX + 1):
        for h in range(1, sizeP + 1):
            assert (
                bound_main(sizeP, h, 2).coefficient
                == bound_burcsi_nagy(sizeP, h).coefficient
            )
            assert (
                bound_main(sizeP, h, 3).coefficient
                == bound_chen_li(sizeP, h, 3).coefficient
            )
    announce(6, "bound reduction identities", f"grid |P| <= {GRID_MAX}")


def test_criterion_06_optimized_minima():
    """Optimized interval-chain minimum vs optimized double-chain minimum.

    The claim that min over k of the 2^(k-1)-family never exceeds min over m
    of the (m+1)-family on the whole grid is false: Chen-Li denominators m+1
    fill every integer while 2^(k-1) only hits powers of two, so at small |P|
    an intermediate m wins outright (first at |P|=7, h=2: 10/3 < 7/2). The
    check is kept as stated; the failure lists the witnesses.
    """
    violations = []
    for sizeP in range(1, GRID_MAX + 1):
        for h in range(1, sizeP + 1):
            ours = best_main_k(sizeP, h).coefficient
            theirs = best_chen_li_m(sizeP, h).coefficient
            if not ours <= theirs:
                violations.append((sizeP, h, ours, theirs))
    if violations:
        announce_fail(
            6,
            "optimized-parameter comparison",
            f"{len(violations)} grid points violate; first: {violations[:3]}",
        )
    else:
        announce(6, "optimized-parameter comparison", "holds on the whole grid")
    assert not violations, (
        f"min-over-k > min-over-m at {len(violations)} grid points, "
        f"first: {violations[:5]}"
    )


def _ceil_log2(x: Fraction) -> int:
    """The least t >= 0 with 2^t >= x > 0: 2^t >= ceil(x) exactly when
    2^t > ceil(x) - 1, so t is the bit length of ceil(x) - 1."""
    return ((x.numerator - 1) // x.denominator).bit_length()


def test_criterion_07_log_bound_chain():
    points = 0
    for sizeP in range(1, GRID_MAX + 1):
        for h in range(1, sizeP + 1):
            if sizeP <= 2 * h:
                continue
            k = _ceil_log2(Fraction(sizeP, h))
            assert k >= 2
            lhs = bound_main(sizeP, h, k).coefficient
            rhs = bound_corollary_interval(sizeP, h).coefficient
            if isinstance(rhs, Fraction):
                assert lhs < rhs, (sizeP, h)
            else:
                assert certainly_less(lhs, rhs), (sizeP, h)
            points += 1

    jensen_checked = 0
    for h in range(1, 5):
        for layers in itertools.product(range(1, 6), repeat=h):
            report = bound_corollary_diamond(layers)
            jensen = report.params["jensen"]
            if report.params["jensen_equal"]:
                assert len(set(layers)) == 1
            else:
                assert certainly_less(report.coefficient, jensen), layers
            jensen_checked += 1
    announce(
        7,
        "logarithmic bound chain",
        f"{points} grid points, {jensen_checked} layer tuples",
    )


def test_criterion_08_finite_soundness(la5_chain3, la5_diamond1):
    n = min_valid_n(2)
    assert n == 5
    middle = comb(n, n // 2)
    for P, result in ((chain(3), la5_chain3), (diamond(1), la5_diamond1)):
        coeff = bound_main(P.size, P.height(), 2).coefficient
        assert result.exhaustive
        assert result.value <= coeff * middle, (result.value, coeff * middle)
    announce(8, "finite soundness at the boundary n", f"n={n}, exact <= coeff * {middle}")


def test_criterion_09_chain_free_optima(la5_chain3):
    checks = 0
    for n in range(1, 5):
        binomials = sorted((comb(n, j) for j in range(n + 1)), reverse=True)
        for k in range(1, n + 1):
            assert la_exact(n, chain(k + 1)).value == sum(binomials[:k])
            checks += 1
    assert la_exact(5, chain(2)).value == comb(5, 2)
    assert la5_chain3.value == comb(5, 2) + comb(5, 3)
    checks += 2
    announce(9, "largest chain-free families", f"{checks} exact optima")


def test_criterion_10_middle_levels_witness():
    for a, n in ((2, 5), (2, 6), (4, 6)):
        levels = a.bit_length() - 1  # log2(a), h - 2 = 1
        fam = middle_levels_family(n, levels)
        assert find_subposet(fam, complete_multilevel((a, a, a)), "weak") is None

    pattern = complete_multilevel((2, 2, 2))
    total = 0
    for n in (4, 5):
        host = SetFamily.power_set(n)
        for emb in iter_subposet_embeddings(host, pattern, "weak"):
            cert = span_certificate(pattern, emb)
            assert cert.spanned_levels >= 2
            total += 1
    announce(10, "middle-levels witness", f"3 exclusions, {total} certificates")


def test_criterion_11_exponent_recursion():
    c = Fraction(1)
    for i in range(65):
        assert c == Fraction(2**i, 2 ** (i + 1) - 1)
        nxt = 2 * c / (2 * c + 1)
        assert nxt == Fraction(2 ** (i + 1), 2 ** (i + 2) - 1)
        c = nxt

    from subposet_lab.bounds import induced_exponent_chain

    target = Fraction(51, 100)
    trace = induced_exponent_chain(target)
    scan = next(i for i in itertools.count() if Fraction(2**i, 2 ** (i + 1) - 1) < target)
    assert trace.min_index == scan == 5
    announce(11, "exponent recursion", "exact identities through index 64")


@pytest.mark.parametrize(
    "suite_args",
    [
        ("levelsize", "--k", "2..5", "--n", "14"),
        ("unrelated", "--k", "2..4", "--n", "14"),
        ("worstset", "--k", "2..4", "--n", "12"),
        ("counting", "--samples", "20", "--seed", "1"),
        ("greedy", "--samples", "100", "--seed", "1"),
        ("soundness",),
        ("recursion", "--steps", "64"),
    ],
    ids=lambda args: args[0],
)
def test_criterion_12_determinism(suite_args):
    argv = [sys.executable, "-m", "subposet_lab", "verify", "--suite", *suite_args]

    serial_one = subprocess.run(argv, capture_output=True)
    serial_two = subprocess.run(argv, capture_output=True)
    assert serial_one.returncode == 0, serial_one.stderr
    assert serial_one.stdout == serial_two.stdout
    assert serial_one.returncode == serial_two.returncode
    announce(12, f"determinism [{suite_args[0]}]", "2 runs byte-identical")
