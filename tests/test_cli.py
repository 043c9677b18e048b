import json
import subprocess
import sys
from pathlib import Path

import pytest

from subposet_lab.cli import main
from subposet_lab.families import family_from_text


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_table_includes_named_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--poset", "diamond:2")
        assert code == 0
        assert "burcsi_nagy" in out and "5/2" in out
        assert "main_best_k" in out
        assert "diamond_width" in out

    def test_lower_bound_for_equal_complete_multilevel(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--poset", "K:4,4,4", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        lower = [r for r in rows if r["side"] == "lower"]
        assert lower and lower[0]["coefficient"] == "2"

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--poset", "chain:4", "--format", "csv")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == "poset_spec,sizeP,h,bound_name,params,coefficient,side"
        assert all(r.split(",")[0] == "chain:4" for r in rows)

    def test_diamond_width_row_beyond_eight_elements(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--poset", "diamond:7", "--format", "json")
        assert code == 0
        rows = [r for r in json.loads(out)["rows"] if r["bound_name"] == "diamond_width"]
        assert len(rows) == 1 and rows[0]["params"] == {"k": 7}
        # log2(9) + 2
        assert abs(float(rows[0]["coefficient"]) - 5.169925001442312) < 1e-12

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("bounds_diamond7.txt", ["--poset", "diamond:7"]),
            ("bounds_K444.json", ["--poset", "K:4,4,4", "--format", "json"]),
            (
                "bounds_product_diamonds.csv",
                ["--poset", "product:(diamond:1,diamond:2)", "--format", "csv"],
            ),
        ],
    )
    def test_stdout_matches_golden_text(self, capsys, golden, argv):
        # Pins every 50-digit interval string byte for byte; the CSV stays
        # unquoted even though its params hold commas.
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--poset", "chain:0")
        assert code == 2
        assert "error" in err


class TestExactCommand:
    def test_sperner(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "3", "--poset", "chain:2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 3
        assert payload["exhaustive"] is True
        assert payload["schema"] == 1
        assert len(payload["witness"]) == 3

    def test_two_levels(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "3", "--poset", "chain:3")
        assert json.loads(out)["value"] == 6

    def test_guard_refusal(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--n", "9", "--poset", "diamond:2")
        assert code == 2
        assert "guard" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_refused(self, capsys, budget):
        code, out, err = run_cli(
            capsys, "exact", "--n", "3", "--poset", "chain:2", "--budget", budget
        )
        assert code == 2 and out == ""
        assert err == "error: node budget must be positive\n"

    def test_negative_n_refused(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "-1", "--poset", "chain:3")
        assert code == 2 and out == ""
        assert err == "error: need n >= 0, got -1\n"

    def test_lubell_objective(self, capsys):
        from subposet_lab.posets import chain
        from subposet_lab.solver import lubell_max

        code, out, _ = run_cli(
            capsys, "exact", "--n", "3", "--poset", "chain:2", "--objective", "lubell"
        )
        assert code == 0
        expected = lubell_max(3, chain(2), "weak").as_dict()
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_budget_flags_nonexhaustive(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--n", "4", "--poset", "chain:2", "--budget", "10"
        )
        assert code == 1
        assert json.loads(out)["exhaustive"] is False


class TestAlphaCommand:
    def test_family_file(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("n=3\n{}\n1\n1,2\n1,2,3\n")
        code, out, _ = run_cli(
            capsys, "alpha", "--family", str(path), "--poset", "chain:2"
        )
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_lubell_objective(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("n=2\n{}\n1\n2\n1,2\n")
        code, out, _ = run_cli(
            capsys,
            "alpha",
            "--family",
            str(path),
            "--poset",
            "chain:2",
            "--objective",
            "lubell",
        )
        assert json.loads(out)["value"] == "1"


    def test_host_above_cap_refused(self, capsys, tmp_path):
        from subposet_lab.families import SetFamily, family_to_text

        path = tmp_path / "cube10.txt"
        path.write_text(family_to_text(SetFamily.power_set(10)))
        code, out, err = run_cli(
            capsys, "alpha", "--family", str(path), "--poset", "chain:2", "--budget", "5000"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_oversized_ground_set_refused(self, capsys, tmp_path):
        # Refused at the n= line: SetFamily would build an n-tuple per set.
        path = tmp_path / "huge-n.txt"
        path.write_text("n=100000000\n1\n")
        code, out, err = run_cli(
            capsys, "alpha", "--family", str(path), "--poset", "chain:2"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "above 64" in err

    def test_negative_ground_set_refused(self, capsys, tmp_path):
        path = tmp_path / "negative-n.txt"
        path.write_text("n=-1\n")
        code, out, err = run_cli(
            capsys, "alpha", "--family", str(path), "--poset", "chain:2"
        )
        assert code == 2 and out == ""
        assert err == "error: ground set size must be >= 0, got -1\n"

    def test_largest_ground_set_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "n64.txt"
        path.write_text("n=64\n1\n1,64\n")
        code, out, _ = run_cli(
            capsys, "alpha", "--family", str(path), "--poset", "chain:2"
        )
        assert code == 0 and json.loads(out)["value"] == 1


class TestChainCommand:
    def test_emits_family_file(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--n", "4", "--k", "2")
        assert code == 0
        fam = family_from_text(out)
        assert len(fam) == 8 and fam.n == 4

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "chain.txt"
        code, out, _ = run_cli(
            capsys, "chain", "--n", "5", "--k", "3", "--output", str(target)
        )
        assert code == 0 and out == ""
        # levels 1+3+4+4+3+1 for k=3 over [5]
        assert len(family_from_text(target.read_text())) == 16

    def test_k_range_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "chain", "--n", "10", "--k", "2..4")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("n,k", [(65, 2), (40, 40), (30, 17)])
    def test_oversized_chain_is_refused(self, capsys, n, k):
        code, out, err = run_cli(capsys, "chain", "--n", str(n), "--k", str(k))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_largest_ground_set_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--n", "64", "--k", "2")
        assert code == 0 and family_from_text(out).n == 64


class TestEmbedCommand:
    def test_window_embedding(self, capsys):
        code, out, _ = run_cli(
            capsys, "embed", "--poset", "diamond:2", "--k", "2", "--n", "10"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == 6
        assert payload["allowance"] == 1
        assert len(payload["assignment"]) == 4
        assert max(payload["new_removals"], default=0) <= 1

    def test_family_file_input(self, capsys, tmp_path, monkeypatch):
        chain_code, chain_out, _ = run_cli(capsys, "chain", "--n", "10", "--k", "2")
        fam = family_from_text(chain_out)
        window = fam.restrict_sizes(3, 9)
        from subposet_lab.families import family_to_text

        path = tmp_path / "window.txt"
        path.write_text(family_to_text(window))
        code, out, _ = run_cli(
            capsys, "embed", "--poset", "chain:3", "--k", "2", "--family", str(path)
        )
        assert code == 0
        assert json.loads(out)["total_consumption"] <= len(window)

    def test_k_range_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "embed", "--poset", "diamond:2", "--k", "2..3", "--n", "10"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_format_is_not_an_option(self, capsys, fmt):
        for argv in (
            ["embed", "--poset", "diamond:2", "--k", "2", "--n", "10"],
            ["exact", "--poset", "chain:2", "--n", "3"],
        ):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_needs_n_or_family(self, capsys):
        code, out, err = run_cli(capsys, "embed", "--poset", "diamond:2", "--k", "2")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_too_small_family_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("n=10\n1,2,3\n")
        code, _, err = run_cli(
            capsys, "embed", "--poset", "diamond:2", "--k", "2", "--family", str(path)
        )
        assert code == 2 and "error" in err


class TestVerifyCommand:
    def test_levelsize_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "levelsize", "--k", "2..3", "--n", "10"
        )
        assert code == 0
        assert out.strip().endswith("(2/2 checks)")

    def test_unrelated_suite_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "unrelated", "--k", "2..4", "--n", "13"
        )
        assert code == 0
        for value in ("size 1", "size 8", "size 28"):
            assert value in out

    def test_csv_format_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "recursion", "--format", "csv")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_recursion_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "recursion", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True

    @pytest.mark.parametrize(
        "k, message", [("5..2", "empty k range '5..2'"), ("x", "invalid literal")]
    )
    def test_malformed_k_refused(self, capsys, k, message):
        code, out, err = run_cli(capsys, "verify", "--suite", "levelsize", "--k", k)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_counting_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "counting", "--samples", "3", "--seed", "5"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["levelsize", "--n", "0", "--k", "2"], "levelsize: need n >= 4, got 0"),
            (["levelsize", "--n", "3", "--k", "2"], "levelsize: need n >= 4, got 3"),
            (["levelsize", "--k", "0"], "levelsize: need k >= 1, got 0"),
            (["unrelated", "--k", "1"], "unrelated: need k >= 2, got 1"),
            (["unrelated", "--k", "2", "--n", "3"], "unrelated: need n >= 4, got 3"),
            (["worstset", "--k", "1..2"], "worstset: need k >= 2, got 1"),
            (["counting", "--samples", "-2"], "counting: need samples >= 1, got -2"),
            (["counting", "--samples", "0"], "counting: need samples >= 1, got 0"),
            (["greedy", "--k", "1"], "greedy: need k >= 2, got 1"),
            (["greedy", "--n", "3"], "greedy: need window sets in C_2[3] >= 6, got 0"),
            (["greedy", "--samples", "0"], "greedy: need samples >= 1, got 0"),
            (
                ["soundness", "--k", "3"],
                "soundness: k=3 needs n = min_valid_n(k) = 10, "
                "above the exact-search guard (7)",
            ),
            (["recursion", "--steps", "-1"], "recursion: need steps >= 0, got -1"),
            (["all", "--n", "0"], "levelsize: need n >= 4, got 0"),
            (["greedy", "--k", "2..3"], "greedy: takes one k, got k=2..3"),
            (
                ["soundness", "--k", "2..4"],
                "soundness: k=3 needs n = min_valid_n(k) = 10, "
                "above the exact-search guard (7)",
            ),
            (
                ["levelsize", "--k", "16", "--n", "32"],
                "the chain bound (n-k+1)*2^k = 1114112 at n=32, k=16 is above 1048576",
            ),
            (
                ["worstset", "--k", "2..20", "--n", "40"],
                "the chain bound (n-k+1)*2^k = 22020096 at n=40, k=20 is above 1048576",
            ),
            (
                # k = 17..20 need n >= 64, so k = 16 enumerates the largest chain.
                ["unrelated", "--k", "2..20", "--n", "60"],
                "the chain bound (n-k+1)*2^k = 2949120 at n=60, k=16 is above 1048576",
            ),
            (
                ["greedy", "--k", "20", "--n", "40"],
                "the chain bound (n-k+1)*2^k = 22020096 at n=40, k=20 is above 1048576",
            ),
            (
                ["soundness", "--k", "1000"],
                "soundness: k=1000 needs n = min_valid_n(k) >= 1000, "
                "above the exact-search guard (7)",
            ),
        ],
    )
    def test_bad_suite_input_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", "--suite", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("verify_all.txt", []),
            (
                "verify_all_samples5_seed7.json",
                ["--format", "json", "--samples", "5", "--seed", "7"],
            ),
        ],
    )
    def test_stdout_matches_golden_text(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "levelsize", "--k", "2..3", "--n", "9"],
            ["verify", "--suite", "worstset", "--k", "2", "--n", "8"],
            ["verify", "--suite", "counting", "--samples", "2", "--seed", "3"],
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        def run():
            return subprocess.run(
                [sys.executable, "-m", "subposet_lab", *argv], capture_output=True
            )

        first = run()
        second = run()
        stderr = b"\n".join(proc.stderr for proc in (first, second))
        assert first.returncode == second.returncode == 0, stderr
        assert first.stdout == second.stdout, stderr
