"""Closed-form coefficient bounds for forbidden-subposet problems.

Every bound here multiplies binom(n, floor(n/2)); only the coefficient is
computed. Rational formulas stay exact Fractions. Logarithmic coefficients
are kept as outward-rounded intervals at 60 working digits and reported to
50 digits, so strict comparisons between bounds are certified rather than
floating-point guesses: a < b is only claimed when sup(a) < inf(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt
from typing import Sequence, Union

import mpmath
from mpmath import mp

from .errors import InvalidParams, InvariantViolated

PRECISION = 50

_iv = mpmath.ctx_iv.MPIntervalContext()
_iv.dps = PRECISION + 10

Interval = mpmath.ctx_iv.ivmpf
Coefficient = Union[Fraction, Interval]
# What a coefficient may be; anything else in a report's params is plain data.
COEFFICIENT_TYPES = (Fraction, Interval)


def to_interval(x: Union[int, Fraction]) -> Interval:
    frac = Fraction(x)
    return _iv.mpf(frac.numerator) / _iv.mpf(frac.denominator)


def _interval(x: Union[int, Coefficient]) -> Interval:
    return x if isinstance(x, Interval) else to_interval(x)


def _exact(a, b) -> bool:
    return isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))


def _add(a: Union[int, Coefficient], b: Union[int, Coefficient]) -> Coefficient:
    """a + b: an exact Fraction when both are rational, else an interval."""
    return Fraction(a) + b if _exact(a, b) else _interval(a) + _interval(b)


def _mul(a: Union[int, Coefficient], b: Union[int, Coefficient]) -> Coefficient:
    """a * b: an exact Fraction when both are rational, else an interval."""
    return Fraction(a) * b if _exact(a, b) else _interval(a) * _interval(b)


def log2_interval(x: Union[int, Fraction]) -> Interval:
    return _iv.log(to_interval(x)) / _iv.log(2)


def exact_log2(x: Union[int, Fraction]) -> Fraction | None:
    """log2(x) as an exact integer-valued Fraction when x is a power of two
    (or a ratio of powers of two), else None."""
    frac = Fraction(x)
    p, q = frac.numerator, frac.denominator
    if p <= 0:
        raise InvalidParams(f"log2 of non-positive value {x}")
    if p & (p - 1) or q & (q - 1):
        return None
    return Fraction(p.bit_length() - q.bit_length())


def log2_coefficient(x: Union[int, Fraction]) -> Coefficient:
    exact = exact_log2(x)
    return exact if exact is not None else log2_interval(x)


def ceil_log2(x: Fraction) -> int:
    """Smallest integer t >= 0 with 2^t >= x, computed exactly.

    For x = p/q, 2^t >= p/q exactly when 2^t >= ceil(p/q), that is when
    2^t > ceil(p/q) - 1 = (p - 1) // q, so t is that quotient's bit length.
    """
    if x <= 0:
        raise InvalidParams(f"ceil_log2 of non-positive value {x}")
    return ((x.numerator - 1) // x.denominator).bit_length()


def _endpoints(x: Interval):
    a_raw, b_raw = x._mpi_
    with mp.workdps(PRECISION + 20):
        return mp.make_mpf(a_raw), mp.make_mpf(b_raw)


def coefficient_str(c: Coefficient) -> str:
    """Exact 'p/q' for rationals; 50-digit decimal (interval midpoint) otherwise."""
    if isinstance(c, Fraction):
        return str(c)
    lo, hi = _endpoints(c)
    with mp.workdps(PRECISION + 20):
        return mp.nstr((lo + hi) / 2, PRECISION)


def certainly_less(a: Coefficient, b: Coefficient) -> bool:
    """True only when a < b is certain at the working precision."""
    return a < b if _exact(a, b) else _interval(a).b < _interval(b).a


def certainly_le(a: Coefficient, b: Coefficient) -> bool:
    return a <= b if _exact(a, b) else _interval(a).b <= _interval(b).a


@dataclass(frozen=True)
class BoundReport:
    """A named coefficient bound with the parameters that produced it."""

    name: str
    side: str  # 'upper' | 'lower'
    coefficient: Coefficient
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.side not in ("upper", "lower"):
            raise InvalidParams(f"side must be 'upper' or 'lower', got {self.side!r}")
        if isinstance(self.coefficient, Fraction) and self.coefficient.numerator < 0:
            raise InvalidParams("bound coefficients are nonnegative")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.coefficient, Fraction)

    def coefficient_as_str(self) -> str:
        return coefficient_str(self.coefficient)


def _check_shape(sizeP: int, h: int) -> None:
    if sizeP < 1 or not 1 <= h <= sizeP:
        raise InvalidParams(f"need 1 <= h <= |P|, got |P|={sizeP}, h={h}")


def bound_burcsi_nagy(sizeP: int, h: int) -> BoundReport:
    """Double-chain coefficient (|P| + h)/2 - 1."""
    _check_shape(sizeP, h)
    coeff = Fraction(sizeP + h, 2) - 1
    return BoundReport("burcsi_nagy", "upper", coeff, {"sizeP": sizeP, "h": h})


def bound_chen_li(sizeP: int, h: int, m: int) -> BoundReport:
    """Generalized double-chain coefficient, any fixed m >= 1."""
    _check_shape(sizeP, h)
    if m < 1:
        raise InvalidParams(f"need m >= 1, got {m}")
    coeff = Fraction(2 * sizeP + (m * m + 3 * m - 2) * (h - 1) - 2, 2 * (m + 1))
    return BoundReport("chen_li", "upper", coeff, {"sizeP": sizeP, "h": h, "m": m})


def bound_main(sizeP: int, h: int, k: int) -> BoundReport:
    """Interval-chain coefficient (|P| + (3k-5) 2^(k-2) (h-1) - 1) / 2^(k-1)."""
    _check_shape(sizeP, h)
    if k < 2:
        raise InvalidParams(f"need k >= 2, got {k}")
    additive = (3 * k - 5) * (1 << (k - 2)) * (h - 1)
    coeff = Fraction(sizeP + additive - 1, 1 << (k - 1))
    return BoundReport("main", "upper", coeff, {"sizeP": sizeP, "h": h, "k": k})


def best_main_k(sizeP: int, h: int) -> BoundReport:
    """Minimum of bound_main over k in 2..k_max, at the least minimising k.

    With A = |P| - 1 and B = h - 1 the coefficient is c(k) = A / 2^(k-1) +
    (3k - 5) B / 2, so c(k) - c(k+1) = (A - 3 * 2^(k-1) B) / 2^k. The
    difference falls as k grows, so c falls while 3 * 2^(k-1) B < A and
    never falls again after: the least minimiser is the least k >= 2 with
    3 * 2^(k-1) B >= A. For h = 1 c only falls (or stays 0 when |P| = 1), so
    the answer is k_max (or 2). k_max = 2 + ceil(log2(|P| + 2)) caps the
    range; for h >= 2 the minimiser lies below it, since at k = k_max - 1
    already 3 * 2^(k-1) B >= 3(|P| + 2) > A. bound_main is called at the
    minimiser and, for h >= 2, at its successor, which must not be smaller;
    if it is, InvariantViolated is raised. The prescribed k = ceil(log2(|P|/h))
    is reported in the params whenever it is >= 2 (below that the plain
    chain bound |P| - 1 applies instead).
    """
    _check_shape(sizeP, h)
    k_max = 2 + (sizeP + 1).bit_length()
    A, B = sizeP - 1, h - 1
    if B == 0:
        arg_k = k_max if A else 2
    else:
        # The least t >= 0 with 2^t >= A / (3B); then k = t + 1, at least 2.
        arg_k = max(2, 1 + ((A - 1) // (3 * B)).bit_length())
    coeff = bound_main(sizeP, h, arg_k).coefficient
    if B and bound_main(sizeP, h, arg_k + 1).coefficient < coeff:
        raise InvariantViolated(
            f"best_main_k({sizeP}, {h}): bound_main still falls past k = {arg_k}"
        )
    prescribed = ((sizeP - 1) // h).bit_length()
    params = {
        "sizeP": sizeP,
        "h": h,
        "k": arg_k,
        "k_max": k_max,
        "prescribed_k": prescribed if prescribed >= 2 else None,
    }
    return BoundReport("main_best_k", "upper", coeff, params)


def best_chen_li_m(sizeP: int, h: int) -> BoundReport:
    """Minimum of bound_chen_li over 1 <= m <= m_cap, at the least minimising m.

    With A = |P| - 1, B = h - 1 and u = m + 1 the coefficient is
    f(u) = (A - 2B)/u + Bu/2 + B/2. For h = 1 it is A/u, which falls forever
    (or stays 0 when |P| = 1), so the range is capped at
    m_cap = 2 + 2 isqrt(2|P|) and the answer is the cap (or m = 1). For
    h >= 2 and A <= 2B, f rises with u, so m = 1. Otherwise f is convex with
    its real minimum at sqrt(2(A - 2B)/B) <= sqrt(2|P|), well inside the cap,
    so the integer minimum lies at one of the two integers around it; they
    are compared exactly by cross-multiplying, the smaller m winning a tie.
    """
    _check_shape(sizeP, h)
    cap = 2 + 2 * isqrt(2 * sizeP)
    A, B = sizeP - 1, h - 1
    if B == 0:
        arg_m = cap if A else 1
    elif A <= 2 * B:
        arg_m = 1
    else:
        lo = max(2, isqrt(2 * (A - 2 * B) // B))
        hi = lo + 1
        # 2u f(u) = 2A + B(u^2 + u - 4), so f(hi) < f(lo) cross-multiplies.
        f_lo = 2 * A + B * (lo * lo + lo - 4)
        f_hi = 2 * A + B * (hi * hi + hi - 4)
        arg_m = (hi if f_hi * lo < f_lo * hi else lo) - 1
    coeff = bound_chen_li(sizeP, h, arg_m).coefficient
    params = {"sizeP": sizeP, "h": h, "m": arg_m, "m_cap": cap}
    return BoundReport("chen_li_best_m", "upper", coeff, params)


def bound_corollary_interval(sizeP: int, h: int) -> BoundReport:
    """(3/2) log2(|P|/h) h + 3.5 h when |P| > 2h, else the chain bound |P| - 1."""
    _check_shape(sizeP, h)
    if sizeP > 2 * h:
        log_part = log2_coefficient(Fraction(sizeP, h))
        coeff = _add(_mul(Fraction(3 * h, 2), log_part), Fraction(7 * h, 2))
        branch = "log"
    else:
        coeff = Fraction(sizeP - 1)
        branch = "chain"
    return BoundReport(
        "corollary_interval", "upper", coeff, {"sizeP": sizeP, "h": h, "branch": branch}
    )


def bound_dk(k: int) -> BoundReport:
    """Coefficient log2(k+2) + 2 for the width-k diamond, k >= 2."""
    if k < 2:
        raise InvalidParams(f"need k >= 2, got {k}")
    return bound_dk_any(k)


def bound_dk_any(a: int) -> BoundReport:
    """Diamond-width coefficient extended to width 1 (log2(3) + 2)."""
    if a < 1:
        raise InvalidParams(f"need width >= 1, got {a}")
    coeff = _add(log2_coefficient(a + 2), 2)
    return BoundReport("diamond_width", "upper", coeff, {"k": a})


def bound_product_composition(parts: Sequence[BoundReport]) -> BoundReport:
    """Sum of the parts' coefficients: an upper bound for the glued product."""
    if not parts:
        raise InvalidParams("composition needs at least one part")
    if any(p.side != "upper" for p in parts):
        raise InvalidParams("only upper bounds compose additively")
    total: Coefficient = Fraction(0)
    for p in parts:
        total = _add(total, p.coefficient)
    return BoundReport(
        "product_composition",
        "upper",
        total,
        {"parts": [p.name for p in parts]},
    )


def bound_corollary_diamond(layer_sizes: Sequence[int]) -> BoundReport:
    """Sum of log2(a_i + 2) + 2 over antichain layers, with its Jensen relaxation.

    The sum is what diamond-width bounds compose to along the layers; Jensen
    gives the closed form h log2(|P|/h + 2) + 2h, equal exactly when all
    layers match. Both are computed and the ordering is checked; it holds by
    concavity, so a failure raises InvariantViolated.
    """
    sizes = tuple(layer_sizes)
    if not sizes or any(a < 1 for a in sizes):
        raise InvalidParams(f"layer sizes must all be >= 1, got {sizes}")
    h = len(sizes)
    total = bound_product_composition([bound_dk_any(a) for a in sizes])
    jensen = _add(_mul(h, log2_coefficient(Fraction(sum(sizes), h) + 2)), 2 * h)
    all_equal = len(set(sizes)) == 1
    if all_equal:
        ordered = True  # both expressions coincide symbolically
    else:
        ordered = certainly_less(total.coefficient, jensen)
    if not ordered:
        raise InvariantViolated(
            f"layer sum unexpectedly exceeds its Jensen form for {sizes}"
        )
    return BoundReport(
        "corollary_diamond",
        "upper",
        total.coefficient,
        {
            "layers": sizes,
            "jensen": jensen,
            "jensen_equal": all_equal,
        },
    )


def lower_bound_complete_multilevel(a: int, h: int) -> BoundReport:
    """(h-2) log2(a) lower-bound coefficient for the equal-width complete poset;
    vacuous (0) when h <= 2 or a < 2."""
    if h <= 2 or a < 2:
        coeff: Coefficient = Fraction(0)
    else:
        coeff = _mul(h - 2, log2_coefficient(a))
    return BoundReport("middle_levels_lower", "lower", coeff, {"a": a, "h": h})


def min_valid_n(k: int) -> int:
    """Least n with 2^(k-1) binom(n, j) <= binom(n, floor(n/2)) for every
    boundary level j < k (and symmetrically j > n-k), by direct evaluation."""
    if k < 2:
        raise InvalidParams(f"need k >= 2, got {k}")
    factor = 1 << (k - 1)
    n = 1
    while True:
        middle = comb(n, n // 2)
        if all(factor * comb(n, j) <= middle for j in range(min(k, n + 1))):
            return n
        n += 1


@dataclass(frozen=True)
class InducedExponentTrace:
    """The exponent sequence c_0=1, c_{i+1} = 2c_i/(2c_i+1) down to a target.

    constant_ledger[i] = (g, b) says the induced-Lubell bound at exponent c_i
    carries the constant g * (2 sqrt(2)/sqrt(pi)) * C + b, where C is the
    constant-bound input for width-restricted families: each recursion step
    contributes one such multiplicative factor plus two copies of the previous
    constant for the side windows, so g doubles-plus-one and b doubles.
    """

    target: Fraction
    exponents: tuple[Fraction, ...]
    constant_ledger: tuple[tuple[int, int], ...]

    @property
    def min_index(self) -> int:
        return len(self.exponents) - 1

    def constant_interval(self, C: Union[int, Fraction]) -> Interval:
        """Numeric enclosure of the final constant for a concrete C."""
        g, b = self.constant_ledger[-1]
        geom = _iv.mpf(2) * _iv.sqrt(_iv.mpf(2)) / _iv.sqrt(_iv.pi)
        return to_interval(Fraction(g)) * geom * to_interval(Fraction(C)) + to_interval(
            Fraction(b)
        )


def induced_exponent_chain(target: Union[Fraction, str, float]) -> InducedExponentTrace:
    """Run the exponent recursion until it drops below `target` (> 1/2)."""
    target = Fraction(target)
    if target <= Fraction(1, 2):
        raise InvalidParams(f"target must exceed 1/2, got {target}")
    exponents = [Fraction(1)]
    ledger = [(0, 1)]
    i = 0
    while exponents[-1] >= target:
        c = exponents[-1]
        nxt = 2 * c / (2 * c + 1)
        i += 1
        if nxt != Fraction(2**i, 2 ** (i + 1) - 1):
            raise InvariantViolated(f"exponent c_{i} = {nxt} breaks the closed form")
        exponents.append(nxt)
        g, b = ledger[-1]
        ledger.append((2 * g + 1, 2 * b))
    return InducedExponentTrace(target, tuple(exponents), tuple(ledger))


def induced_constant_from_width(P, width: int) -> Fraction:
    """Exact constant C with La-induced(width, P) = C * binom(width, width//2),
    computed by exhaustive search at the given small width."""
    from .solver import la_exact

    result = la_exact(width, P, mode="induced")
    return Fraction(result.value, comb(width, width // 2))
