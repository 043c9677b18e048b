"""Output checks for benchmark operations, written independently of the code
under test.

Every check here recomputes what it compares against from first principles:
witness freeness goes through `find_subposet` (the generator search path, not
the `embeds_using` fast path the solver prunes with), Lubell mass and bound
coefficients are recomputed from their closed forms, and interval chains are
enumerated directly. A check returns an `Outcome`; it never raises for a wrong
answer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb, isqrt

import mpmath

OK, FAIL, KNOWN_DEFECT = "ok", "fail", "known-defect"

# The program prints irrational coefficients as 50-digit interval midpoints.
_DIGITS = 50
_REL_TOL = mpmath.mpf(10) ** -(_DIGITS - 5)


@dataclass(frozen=True)
class Outcome:
    status: str
    detail: str = ""


def ok(detail: str = "") -> Outcome:
    return Outcome(OK, detail)


def fail(detail: str) -> Outcome:
    return Outcome(FAIL, detail)


# --- pattern shapes -----------------------------------------------------------


def spec_layers(spec: str) -> tuple[int, ...]:
    """Antichain layer sizes of a complete multilevel pattern spec.

    Covers the spec kinds the benchmark uses: chain, antichain, diamond, K and
    products of those (gluing a unique top onto a unique bottom merges the two
    singleton layers).
    """
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head == "chain":
        return (1,) * int(rest)
    if head == "antichain":
        return (int(rest),)
    if head == "diamond":
        return (1, int(rest), 1)
    if head == "k":
        return tuple(int(t) for t in rest.split(","))
    if head == "product":
        parts, depth, start, inner = [], 0, 0, rest[1:-1]
        for i, ch in enumerate(inner):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        layers = spec_layers(parts[0])
        for part in parts[1:]:
            nxt = spec_layers(part)
            if layers[-1] != 1 or nxt[0] != 1:
                raise ValueError(f"{spec}: factors are not gluable")
            layers = layers + nxt[1:]
        return layers
    raise ValueError(f"unsupported spec {spec!r}")


# --- solver results -------------------------------------------------------------


def lubell_mass(n: int, masks) -> Fraction:
    return sum((Fraction(1, comb(n, m.bit_count())) for m in masks), Fraction(0))


def check_extremal(result, *, pattern, mode, objective, host_masks, optimum,
                   find_subposet) -> Outcome:
    """Check an ExtremalResult against the known optimum of its op.

    Exhaustive results must equal the optimum; budgeted ones may not exceed
    it. The witness must lie in the host, be pattern-free and attain the
    reported value.
    """
    value = Fraction(result.value)
    witness = result.witness
    masks = [s.mask for s in witness]
    if host_masks is not None and not set(masks) <= host_masks:
        return fail("witness leaves the host family")
    if objective == "cardinality":
        attained = Fraction(len(masks))
    else:
        attained = lubell_mass(witness.n, masks)
    if attained != value:
        return fail(f"witness attains {attained}, reported {value}")
    if find_subposet(witness, pattern, mode) is not None:
        return fail("witness contains the forbidden pattern")
    if result.exhaustive and value != optimum:
        return fail(f"exhaustive value {value} != expected {optimum}")
    if value > optimum:
        return fail(f"value {value} exceeds the optimum {optimum}")
    return ok(f"value {value}, exhaustive={result.exhaustive}")


# --- closed-form bound coefficients -------------------------------------------


def _exact_log2(x: Fraction) -> Fraction | None:
    p, q = x.numerator, x.denominator
    if p & (p - 1) or q & (q - 1):
        return None
    return Fraction(p.bit_length() - q.bit_length())


def _log2(x: Fraction):
    exact = _exact_log2(x)
    if exact is not None:
        return exact
    with mpmath.workdps(_DIGITS + 20):
        return mpmath.log(mpmath.mpf(x.numerator) / x.denominator, 2)


def _add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    with mpmath.workdps(_DIGITS + 20):
        return _mp(a) + _mp(b)


def _mul(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    with mpmath.workdps(_DIGITS + 20):
        return _mp(a) * _mp(b)


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return x


def burcsi_nagy(size: int, h: int) -> Fraction:
    return Fraction(size + h, 2) - 1


def chen_li(size: int, h: int, m: int) -> Fraction:
    return (size + Fraction((m * m + 3 * m - 2) * (h - 1), 2) - 1) / (m + 1)


@cache  # the grids re-check the same (|P|, h) pairs every pass
def chen_li_best(size: int, h: int) -> Fraction:
    """Minimum over 1 <= m <= 2 + 2 isqrt(2|P|), the sweep's documented range."""
    return min(chen_li(size, h, m) for m in range(1, 3 + 2 * isqrt(2 * size)))


def main_bound(size: int, h: int, k: int) -> Fraction:
    return Fraction(size + (3 * k - 5) * 2 ** (k - 2) * (h - 1) - 1, 2 ** (k - 1))


@cache
def main_best(size: int, h: int) -> tuple[Fraction, int]:
    """Minimum over 2 <= k <= 2 + ceil(log2(|P| + 2)), least minimising k."""
    k_max = 2 + (size + 1).bit_length()
    return min((main_bound(size, h, k), k) for k in range(2, k_max + 1))


def expected_bound_rows(spec: str) -> list[tuple[str, str, object]]:
    """(bound_name, side, coefficient) rows `bounds --poset spec` must print,
    in order, for a complete multilevel pattern."""
    layers = spec_layers(spec)
    size, h = sum(layers), len(layers)
    rows = [("burcsi_nagy", "upper", burcsi_nagy(size, h))]
    rows += [("chen_li", "upper", chen_li(size, h, m)) for m in (1, 2, 3)]
    rows.append(("chen_li_best_m", "upper", chen_li_best(size, h)))
    rows += [("main", "upper", main_bound(size, h, k)) for k in (2, 3)]
    rows.append(("main_best_k", "upper", main_best(size, h)[0]))
    if size > 2 * h:
        ratio = Fraction(size, h)
        corollary = _add(_mul(Fraction(3 * h, 2), _log2(ratio)), Fraction(7 * h, 2))
    else:
        corollary = Fraction(size - 1)
    rows.append(("corollary_interval", "upper", corollary))
    total = Fraction(0)
    for a in layers:
        total = _add(total, _add(_log2(Fraction(a + 2)), Fraction(2)))
    rows.append(("corollary_diamond", "upper", total))
    if len(layers) == 3 and layers[0] == layers[2] == 1 and layers[1] >= 2:
        rows.append(("diamond_width", "upper", _add(_log2(Fraction(layers[1] + 2)), Fraction(2))))
    if len(set(layers)) == 1:
        a = layers[0]
        lower = Fraction(0) if h <= 2 or a < 2 else _mul(Fraction(h - 2), _log2(Fraction(a)))
        rows.append(("middle_levels_lower", "lower", lower))
    return rows


def coefficient_matches(printed: str, expected) -> bool:
    if isinstance(expected, Fraction):
        return printed == str(expected)
    if "/" in printed:
        return False
    with mpmath.workdps(_DIGITS + 20):
        got = mpmath.mpf(printed)
        return abs(got - expected) <= _REL_TOL * abs(expected)


def parse_bound_rows(spec: str, fmt: str, text: str) -> list[tuple[str, str, str]]:
    """(bound_name, side, coefficient) rows of a `bounds` output."""
    if fmt == "json":
        return [(r["bound_name"], r["side"], r["coefficient"]) for r in json.loads(text)["rows"]]
    lines = text.splitlines()
    rows = []
    if fmt == "csv":
        # Specs and tuple-valued params contain commas, so split around them.
        for line in lines[1:]:
            if not line.startswith(spec + ","):
                raise ValueError(f"csv row does not start with the spec: {line!r}")
            _, _, name, tail = line[len(spec) + 1:].split(",", 3)
            _, coeff, side = tail.rsplit(",", 2)
            rows.append((name, side, coeff))
        return rows
    for line in lines[1:]:
        m = re.match(r"^\s+(\S+)\s+(upper|lower)\s+(\S+)\s+\[.*\]$", line)
        if not m:
            raise ValueError(f"unparsable table row: {line!r}")
        rows.append((m.group(1), m.group(2), m.group(3)))
    return rows


def check_bounds_output(spec: str, fmt: str, rc: int, text: str,
                        known_missing: frozenset[str]) -> Outcome:
    """Compare a `bounds` output with recomputed coefficients.

    A row listed in `known_missing` that the program omits is a known defect,
    reported as such; any other difference is a failure.
    """
    if rc != 0:
        return fail(f"exit code {rc}")
    try:
        got = parse_bound_rows(spec, fmt, text)
    except (ValueError, KeyError) as exc:
        return fail(f"unparsable output: {exc}")
    want = expected_bound_rows(spec)
    missing = [name for name, _, _ in want if name not in {g[0] for g in got}]
    if missing and set(missing) <= known_missing:
        want = [row for row in want if row[0] not in missing]
    if [(n, s) for n, s, _ in got] != [(n, s) for n, s, _ in want]:
        return fail(f"rows {[g[0] for g in got]} != expected {[w[0] for w in want]}")
    for (name, _, printed), (_, _, coeff) in zip(got, want):
        if not coefficient_matches(printed, coeff):
            return fail(f"{name}: printed {printed}, recomputed {coeff}")
    if missing:
        return Outcome(KNOWN_DEFECT, f"missing rows {missing}")
    return ok(f"{len(got)} rows match")


def check_best_main_grid(results) -> Outcome:
    for (size, h), report in results:
        coeff, k = main_best(size, h)
        if report.coefficient != coeff or report.params["k"] != k:
            return fail(f"best_main_k({size}, {h}) = {report.coefficient} "
                        f"at k={report.params['k']}, recomputed {coeff} at k={k}")
    return ok(f"{len(results)} coefficients match")


def check_best_chen_li_grid(results) -> Outcome:
    for (size, h), report in results:
        if report.coefficient != chen_li_best(size, h):
            return fail(f"best_chen_li_m({size}, {h}) = {report.coefficient}, "
                        f"recomputed {chen_li_best(size, h)}")
    return ok(f"{len(results)} coefficients match")


# --- CLI outputs -------------------------------------------------------------------

_PASS_LINE = re.compile(r"^PASS \((\d+)/(\d+) checks\)$")


def check_verify_output(rc: int, text: str) -> Outcome:
    lines = text.splitlines()
    m = _PASS_LINE.match(lines[-1]) if lines else None
    if rc != 0 or not m or m.group(1) != m.group(2):
        return fail(f"exit code {rc}, last line {lines[-1] if lines else ''!r}")
    return ok(lines[-1])


def interval_chain_masks(n: int, k: int) -> set[int]:
    """Canonical k-interval chain: [i] plus any subset of {i+1..i+k}."""
    masks = set()
    for i in range(n - k + 1):
        for free in range(1 << k):
            masks.add((1 << i) - 1 | free << i)
    return masks


def check_chain_output(n: int, k: int, rc: int, text: str) -> Outcome:
    lines = text.splitlines()
    if rc != 0 or not lines or lines[0] != f"n={n}":
        return fail(f"exit code {rc}, header {lines[:1]}")
    got = []
    for line in lines[1:]:
        mask = 0
        if line != "{}":
            for tok in line.split(","):
                mask |= 1 << (int(tok) - 1)
        got.append(mask)
    want = interval_chain_masks(n, k)
    if len(got) != len(set(got)) or set(got) != want:
        return fail(f"{len(got)} sets printed, chain has {len(want)}")
    return ok(f"{len(got)} sets")


def allowance(k: int) -> int:
    return (3 * k - 5) * 2 ** (k - 2)


def _embedding_error(pattern, images: list[int]) -> str | None:
    """Why `images` (masks, by pattern element) is not a weak copy of pattern."""
    if len(set(images)) != len(images):
        return "images are not distinct"
    for a in range(pattern.size):
        for b in range(pattern.size):
            if pattern.less(a, b) and not (images[a] & images[b] == images[a]
                                           and images[a] != images[b]):
                return f"relation {a} < {b} is not preserved"
    return None


def check_greedy(pattern, spec: str, k: int, host_masks: set[int], embedding, trace) -> Outcome:
    images = [s.mask for s in embedding.images]
    err = _embedding_error(pattern, images)
    if err:
        return fail(err)
    if not set(images) <= host_masks:
        return fail("images leave the sampled family")
    layers = spec_layers(spec)
    threshold = sum(layers) + (len(layers) - 1) * allowance(k)
    removed_before: set[int] = set()
    consumed: set[int] = set()
    for step in trace.steps:
        placed = {s.mask for s in step.images}
        removed = {s.mask for s in step.removed}
        fresh = len(removed - removed_before - placed)
        if fresh > allowance(k):
            return fail(f"a step discarded {fresh} > {allowance(k)} fresh sets")
        removed_before |= removed
        consumed |= placed | removed
    if len(consumed) > threshold:
        return fail(f"consumed {len(consumed)} > threshold {threshold}")
    return ok()


def check_embed_output(pattern, spec: str, k: int, n: int, rc: int, text: str) -> Outcome:
    if rc != 0:
        return fail(f"exit code {rc}")
    payload = json.loads(text)
    images = []
    for e in range(pattern.size):
        mask = 0
        for x in payload["assignment"][str(e)]:
            mask |= 1 << (x - 1)
        images.append(mask)
    err = _embedding_error(pattern, images)
    if err:
        return fail(err)
    window = {m for m in interval_chain_masks(n, k)
              if 3 * k - 3 <= m.bit_count() <= n - k + 1}
    if not set(images) <= window:
        return fail("images leave the interval-chain window")
    layers = spec_layers(spec)
    threshold = sum(layers) + (len(layers) - 1) * allowance(k)
    if payload["threshold"] != threshold or payload["allowance"] != allowance(k):
        return fail(f"threshold/allowance {payload['threshold']}/{payload['allowance']}")
    if any(r > allowance(k) for r in payload["new_removals"]):
        return fail("a step discarded more than the allowance")
    if payload["total_consumption"] > threshold:
        return fail("consumption exceeds the threshold")
    return ok()
