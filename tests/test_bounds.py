import re
from fractions import Fraction
from math import comb, isqrt

import pytest

from subposet_lab.bounds import (
    InducedExponentTrace,
    Interval,
    best_chen_li_m,
    best_main_k,
    bound_burcsi_nagy,
    bound_chen_li,
    bound_corollary_diamond,
    bound_corollary_interval,
    bound_dk,
    bound_dk_any,
    bound_main,
    bound_product_composition,
    certainly_less,
    coefficient_str,
    exact_log2,
    induced_exponent_chain,
    log2_interval,
    lower_bound_complete_multilevel,
    min_valid_n,
    to_interval,
)
from subposet_lab.errors import InvalidParams, InvariantViolated


class TestRationalFormulas:
    def test_burcsi_nagy(self):
        assert bound_burcsi_nagy(4, 3).coefficient == Fraction(5, 2)
        assert bound_burcsi_nagy(2, 2).coefficient == 1
        assert bound_burcsi_nagy(10, 2).coefficient == 5

    def test_chen_li(self):
        assert bound_chen_li(4, 3, 1).coefficient == Fraction(5, 2)
        assert bound_chen_li(4, 3, 3).coefficient == Fraction(19, 4)
        for sizeP, m in ((5, 2), (9, 4)):
            assert bound_chen_li(sizeP, 1, m).coefficient == Fraction(sizeP - 1, m + 1)

    def test_main(self):
        assert bound_main(4, 3, 2).coefficient == Fraction(5, 2)
        assert bound_main(4, 3, 3).coefficient == Fraction(19, 4)
        assert bound_main(64, 2, 5).coefficient == Fraction(64 + 10 * 8 - 1, 16)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParams):
            bound_main(4, 3, 1)
        with pytest.raises(InvalidParams):
            bound_chen_li(4, 3, 0)
        with pytest.raises(InvalidParams):
            bound_burcsi_nagy(3, 4)
        with pytest.raises(InvalidParams):
            bound_dk(1)

    def test_bound_report_validation(self):
        from subposet_lab.bounds import BoundReport

        with pytest.raises(InvalidParams, match="side must be 'upper' or 'lower'"):
            BoundReport("x", "middle", Fraction(1))
        with pytest.raises(InvalidParams, match="nonnegative"):
            BoundReport("x", "upper", Fraction(-1, 2))

    def test_shared_numerators_match_the_displayed_formulas(self):
        # The paper's two coefficients, written out literally in Fractions.
        half, two = Fraction(1, 2), Fraction(2)
        for sizeP in range(1, 65):
            for h in range(1, sizeP + 1):
                for k in range(2, 13):
                    paper = (sizeP + (3 * k - 5) * two ** (k - 2) * (h - 1) - 1) / two ** (k - 1)
                    assert bound_main(sizeP, h, k).coefficient == paper
                for m in range(1, 21):
                    paper = (sizeP + half * (m * m + 3 * m - 2) * (h - 1) - 1) / (m + 1)
                    assert bound_chen_li(sizeP, h, m).coefficient == paper
        for sizeP, h in ((0, 1), (0, 0), (3, 0), (3, 4), (-1, -1)):
            for bound in (lambda: bound_main(sizeP, h, 3), lambda: bound_chen_li(sizeP, h, 2),
                          lambda: best_main_k(sizeP, h), lambda: best_chen_li_m(sizeP, h)):
                with pytest.raises(InvalidParams):
                    bound()
        for k in (1, 0, -3):
            with pytest.raises(InvalidParams):
                bound_main(5, 2, k)
        for m in (0, -2):
            with pytest.raises(InvalidParams):
                bound_chen_li(5, 2, m)

    def test_reduction_identities_on_grid(self):
        for sizeP in range(1, 60):
            for h in range(1, sizeP + 1):
                assert (
                    bound_main(sizeP, h, 2).coefficient
                    == bound_burcsi_nagy(sizeP, h).coefficient
                )
                assert (
                    bound_main(sizeP, h, 3).coefficient
                    == bound_chen_li(sizeP, h, 3).coefficient
                )

    def test_matched_parameter_improvement(self):
        # at m = 2^(k-1) - 1 the denominators agree and the additive term is
        # never worse; strictly better from k = 4 on
        for sizeP in range(1, 80):
            for h in range(1, sizeP + 1):
                for k in range(2, 9):
                    m = 2 ** (k - 1) - 1
                    ours = bound_main(sizeP, h, k).coefficient
                    theirs = bound_chen_li(sizeP, h, m).coefficient
                    assert ours <= theirs
                    if k > 3 and h > 1:
                        assert ours < theirs


class TestBestParameterSweeps:
    def test_best_main_k_small_diamond(self):
        report = best_main_k(4, 3)
        assert report.coefficient == Fraction(5, 2)
        assert report.params["k"] == 2
        assert report.params["prescribed_k"] is None

    def test_best_main_k_beats_prescribed(self):
        report = best_main_k(1024, 2)
        prescribed = report.params["prescribed_k"]
        assert prescribed == 10 - 1
        assert report.coefficient <= bound_main(1024, 2, prescribed).coefficient

    def test_best_main_k_flat_patterns(self):
        # sizeP = 2h keeps the prescribed k below 2; the sweep still answers
        report = best_main_k(8, 4)
        assert report.params["prescribed_k"] is None
        assert report.coefficient <= bound_main(8, 4, 2).coefficient

    def test_best_chen_li_interior_minimum(self):
        report = best_chen_li_m(7, 2)
        assert report.coefficient == Fraction(10, 3)
        assert report.params["m"] == 2
        m = report.params["m"]
        for probe in (m - 1, m + 1, m + 2):
            if probe >= 1:
                assert report.coefficient <= bound_chen_li(7, 2, probe).coefficient

    def test_prescribed_k_definition(self):
        # ceil(log2(|P|/h)), reported only from 2 on.
        assert best_main_k(8, 1).params["prescribed_k"] == 3
        assert best_main_k(9, 1).params["prescribed_k"] == 4
        assert best_main_k(7, 2).params["prescribed_k"] == 2
        assert best_main_k(1, 1).params["prescribed_k"] is None
        assert best_main_k(4, 2).params["prescribed_k"] is None


    def test_best_main_k_boundary_minimum_raises(self, monkeypatch):
        # Raised, not asserted, so the check survives python -O.
        from subposet_lab import bounds

        real = bounds._main_numerator
        chosen = bounds.best_main_k(10, 2).params["k"]

        def still_falling(A, B, k):
            # The successor's coefficient drops below the minimiser's.
            return 2 * real(A, B, k - 1) - 1 if k == chosen + 1 else real(A, B, k)

        monkeypatch.setattr(bounds, "_main_numerator", still_falling)
        with pytest.raises(InvariantViolated):
            bounds.best_main_k(10, 2)


def _ceil_log2_loop(x):
    """The least t >= 0 with 2^t >= x, by counting up."""
    t = 0
    while (1 << t) * x.denominator < x.numerator:
        t += 1
    return t


def _swept_main(sizeP, h):
    """best_main_k's report as a full sweep over 2 <= k <= k_max gives it."""
    k_max = 2 + _ceil_log2_loop(Fraction(sizeP + 2))
    coeff, k = min(
        (Fraction(sizeP + (3 * k - 5) * 2 ** (k - 2) * (h - 1) - 1, 2 ** (k - 1)), k)
        for k in range(2, k_max + 1)
    )
    prescribed = _ceil_log2_loop(Fraction(sizeP, h))
    params = {
        "sizeP": sizeP,
        "h": h,
        "k": k,
        "k_max": k_max,
        "prescribed_k": prescribed if prescribed >= 2 else None,
    }
    return coeff, params


def _swept_chen_li(sizeP, h):
    """best_chen_li_m's report as a full sweep over 1 <= m <= m_cap gives it."""
    cap = 2 + 2 * isqrt(2 * sizeP)
    coeff, m = min(
        (Fraction(2 * sizeP + (m * m + 3 * m - 2) * (h - 1) - 2, 2 * (m + 1)), m)
        for m in range(1, cap + 1)
    )
    return coeff, {"sizeP": sizeP, "h": h, "m": m, "m_cap": cap}


class TestClosedFormsMatchSweeps:
    def test_best_main_k(self):
        for sizeP in range(1, 257):
            for h in range(1, sizeP + 1):
                coeff, params = _swept_main(sizeP, h)
                report = best_main_k(sizeP, h)
                assert (report.coefficient, report.params) == (coeff, params)
                if h >= 2:
                    assert params["k"] < params["k_max"]

    def test_best_chen_li_m(self):
        for sizeP in range(1, 161):
            for h in range(1, sizeP + 1):
                coeff, params = _swept_chen_li(sizeP, h)
                report = best_chen_li_m(sizeP, h)
                assert (report.coefficient, report.params) == (coeff, params)

    def test_one_report_per_answer(self, monkeypatch):
        from subposet_lab import bounds

        made, called = [], []
        real_report = bounds.BoundReport

        def counted_report(*args, **kwargs):
            made.append(args[0])
            return real_report(*args, **kwargs)

        def forbidden(name):
            return lambda *args: called.append(name)

        monkeypatch.setattr(bounds, "BoundReport", counted_report)
        monkeypatch.setattr(bounds, "bound_main", forbidden("bound_main"))
        monkeypatch.setattr(bounds, "bound_chen_li", forbidden("bound_chen_li"))
        for sizeP, h in ((1, 1), (7, 1), (7, 2), (9, 5), (10, 2), (160, 3), (399, 7)):
            for sweep, name in ((bounds.best_main_k, "main_best_k"),
                                (bounds.best_chen_li_m, "chen_li_best_m")):
                made.clear()
                report = sweep(sizeP, h)
                assert made == [name] and report.name == name
        assert called == []


class TestLogarithmicBounds:
    def test_corollary_interval_chain_branch(self):
        report = bound_corollary_interval(4, 3)
        assert report.coefficient == 3
        assert report.params["branch"] == "chain"

    def test_corollary_interval_power_of_two_ratio(self):
        assert bound_corollary_interval(16, 2).coefficient == 16
        for h in (1, 2, 5):
            assert bound_corollary_interval(8 * h, h).coefficient == 8 * h

    def test_corollary_interval_irrational_ratio(self):
        report = bound_corollary_interval(10, 3)
        assert not isinstance(report.coefficient, Fraction)
        # (3/2) log2(10/3) * 3 + 3.5 * 3 between 18 and 19
        assert certainly_less(to_interval(18), report.coefficient)
        assert certainly_less(report.coefficient, to_interval(19))

    def test_diamond_width_values(self):
        assert bound_dk(2).coefficient == 4
        assert bound_dk(6).coefficient == 5
        assert bound_dk(14).coefficient == 6

    def test_product_composition(self):
        combined = bound_product_composition([bound_dk(2), bound_dk(2)])
        assert combined.coefficient == 8
        single = bound_product_composition([bound_dk(6)])
        assert single.coefficient == bound_dk(6).coefficient

    def test_composition_equals_diamond_sum(self):
        from subposet_lab.bounds import bound_dk_any

        layers = (1, 2, 1)
        report = bound_corollary_diamond(layers)
        composed = bound_product_composition([bound_dk_any(a) for a in layers])
        # both go through the same per-layer coefficients
        assert coefficient_str(report.coefficient) == coefficient_str(
            composed.coefficient
        )

    def test_diamond_sum_jensen_equality_iff_equal_layers(self):
        equal = bound_corollary_diamond((2, 2))
        assert equal.coefficient == 8 and equal.params["jensen"] == 8
        assert equal.params["jensen_equal"]
        mixed = bound_corollary_diamond((1, 2, 1))
        assert not mixed.params["jensen_equal"]
        assert certainly_less(mixed.coefficient, mixed.params["jensen"])

    def test_lower_bound(self):
        assert lower_bound_complete_multilevel(4, 3).coefficient == 2
        assert lower_bound_complete_multilevel(2, 3).coefficient == 1
        assert lower_bound_complete_multilevel(5, 2).coefficient == 0
        assert lower_bound_complete_multilevel(1, 5).coefficient == 0
        assert lower_bound_complete_multilevel(4, 3).side == "lower"

    def test_lower_bound_below_uppers(self):
        def certainly_le(x, y):
            # x <= y when both are exact, else sup(x) <= inf(y).
            if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
                return x <= y
            low, high = (v if isinstance(v, Interval) else to_interval(v) for v in (x, y))
            return low.b <= high.a

        for a in (2, 4, 8):
            for h in (3, 4, 5):
                lower = lower_bound_complete_multilevel(a, h).coefficient
                upper = bound_corollary_diamond((a,) * h).coefficient
                assert certainly_le(lower, upper) or lower < upper
                swept = best_main_k(a * h, h).coefficient
                assert lower <= swept or certainly_less(lower, to_interval(swept))

    def test_jensen_order_failure_raises(self, monkeypatch):
        # The layer sum never exceeds its Jensen form (concavity), so a
        # failed check is a broken invariant, not a bad argument.
        from subposet_lab import bounds

        monkeypatch.setattr(bounds, "certainly_less", lambda a, b: False)
        with pytest.raises(InvariantViolated):
            bounds.bound_corollary_diamond((1, 2, 1))


class TestMinValidN:
    def test_k2(self):
        assert min_valid_n(2) == 5

    def test_boundary_fails_below(self):
        # n = 4 violates the level-1 case: 2 * binom(4,1) = 8 > 6
        assert 2 * comb(4, 1) > comb(4, 2)
        assert 2 * comb(5, 1) <= comb(5, 2)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_postcondition(self, k):
        n = min_valid_n(k)
        factor = 1 << (k - 1)
        for j in list(range(k)) + list(range(n - k + 1, n + 1)):
            assert factor * comb(n, j) <= comb(n, n // 2)
        # minimality: some boundary level fails at n - 1
        n_prev = n - 1
        assert any(
            factor * comb(n_prev, j) > comb(n_prev, n_prev // 2)
            for j in range(min(k, n_prev + 1))
        )


class TestExponentRecursion:
    def test_first_steps(self):
        trace = induced_exponent_chain(Fraction(3, 4))
        assert trace.min_index == 1
        assert trace.exponents == (Fraction(1), Fraction(2, 3))

    def test_closed_form_through_64(self):
        trace = induced_exponent_chain(Fraction(2**64, 2**65 - 1) + Fraction(1, 2**80))
        for i, c in enumerate(trace.exponents):
            assert c == Fraction(2**i, 2 ** (i + 1) - 1)
        steps = zip(trace.exponents, trace.exponents[1:])
        for c, nxt in steps:
            assert nxt == 2 * c / (2 * c + 1)
        assert trace.exponents[10] == Fraction(1024, 2047)

    def test_sequence_decreases_toward_half(self):
        trace = induced_exponent_chain(Fraction(51, 100))
        assert all(a > b for a, b in zip(trace.exponents, trace.exponents[1:]))
        assert all(c > Fraction(1, 2) for c in trace.exponents)

    def test_rejects_half_or_below(self):
        with pytest.raises(InvalidParams):
            induced_exponent_chain(Fraction(1, 2))

    def test_constant_ledger_growth(self):
        trace = induced_exponent_chain(Fraction(51, 100))
        for i, (g, b) in enumerate(trace.constant_ledger):
            assert g == 2**i - 1
            assert b == 2**i

    def test_constant_from_small_width(self):
        from subposet_lab.solver import induced_constant_from_width
        from subposet_lab.posets import chain

        c = induced_constant_from_width(chain(2), 3)
        assert c == Fraction(3, 3)  # largest antichain over binom(3,1)


class TestNumericHelpers:
    def test_exact_log2(self):
        assert exact_log2(8) == 3
        assert exact_log2(Fraction(1, 4)) == -2
        assert exact_log2(Fraction(6)) is None
        with pytest.raises(InvalidParams):
            exact_log2(0)

    def test_interval_comparisons_are_conservative(self):
        x = log2_interval(3)
        assert certainly_less(x, to_interval(Fraction(17, 10)))
        assert certainly_less(to_interval(Fraction(3, 2)), x)
        assert not certainly_less(x, x)

    def test_coefficient_str_formats(self):
        assert coefficient_str(Fraction(5, 2)) == "5/2"
        text = coefficient_str(log2_interval(3))
        assert text.startswith("1.58496250072115618145373894394781650875981")


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bound_dk_any(0), "need width >= 1, got 0"),
            (lambda: bound_product_composition([]), "composition needs at least one part"),
            (
                lambda: bound_product_composition(
                    [bound_dk(2), lower_bound_complete_multilevel(3, 4)]
                ),
                "only upper bounds compose additively",
            ),
            (lambda: bound_corollary_diamond([0]), "layer sizes must all be >= 1, got (0,)"),
            (lambda: min_valid_n(1), "need k >= 2, got 1"),
        ],
    )
    def test_bad_parameters_are_refused(self, call, message):
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            call()
