"""Property tests: every subcommand refuses bad input with exit 2 and one line.

Each example is a command line that must be refused before any work: a
malformed or oversized poset spec, a malformed or oversized family file, or a
bad flag. main() runs in process, so an exception that escapes it (a
traceback at the command line) fails the example.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposet_lab.cli import main
from subposet_lab.posets import MAX_SPEC_ELEMENTS

EXAMPLES = settings(max_examples=60, deadline=None)


def refuse(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2, (argv, code, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert out.getvalue() == "", argv


KINDS = ("chain", "antichain", "diamond", "k", "product", "edges")
too_big = st.integers(MAX_SPEC_ELEMENTS + 1, 10**6)
half = st.integers(MAX_SPEC_ELEMENTS // 2 + 1, MAX_SPEC_ELEMENTS)
# Text that is no integer (no digits at all), so no slot accepts it.
junk = st.text(string.ascii_letters + string.punctuation + " ", max_size=12)


def nested_product(depth: int) -> str:
    spec = "chain:1"
    for _ in range(depth):
        spec = f"product:({spec},chain:1)"
    return spec


oversized_specs = st.one_of(
    st.builds("chain:{}".format, too_big),
    st.builds("antichain:{}".format, too_big),
    st.builds("diamond:{}".format, st.integers(MAX_SPEC_ELEMENTS - 1, 10**6)),
    st.lists(st.integers(1, 10**4), min_size=1, max_size=4)
    .filter(lambda sizes: sum(sizes) > MAX_SPEC_ELEMENTS)
    .map(lambda sizes: "K:" + ",".join(map(str, sizes))),
    # Each factor is within the cap; the glued product is not.
    st.builds("product:(chain:{},chain:{})".format, half, half),
)
malformed_specs = st.one_of(
    st.text(string.ascii_letters + string.digits + ",() ", max_size=12),  # no ':'
    st.builds(
        "{}:{}".format,
        st.text(string.ascii_lowercase, min_size=1, max_size=8).filter(
            lambda head: head not in KINDS
        ),
        st.text(max_size=8),
    ),
    st.builds("{}:{}".format, st.sampled_from(KINDS[:4]), junk),
    st.builds(
        "{}:{}".format,
        st.sampled_from(("chain", "antichain", "diamond")),
        st.integers(-5, 0),
    ),
    st.sampled_from(
        [
            "product:(chain:2",
            "product:chain:2,chain:3",
            "product:(chain:2)",
            "product:(antichain:2,chain:2)",
            "product:(chain:2,))",
            "K:2,,2",
            "K:",
            "edges:/nonexistent/poset.txt",
        ]
    ),
    # One element, nested past the cap; unchecked, the deepest overflow the stack.
    st.builds(nested_product, st.integers(MAX_SPEC_ELEMENTS + 1, 1500)),
)

malformed_family_texts = st.one_of(
    st.just(""),
    st.builds("{}\n1,2\n".format, st.text(string.ascii_letters + "=: ", max_size=6)),
    st.builds("n={}\n{{}}\n".format, junk),
    st.builds("n=3\n{}\n".format, st.integers(4, 100)),
    st.builds("n=3\n{}\n".format, st.integers(-100, 0)),
    st.builds("n=3\n1,{}\n".format, junk.filter(lambda t: t.strip() not in ("", "{}"))),
    st.builds("n={}\n".format, st.integers(-100, -1)),
)

# A valid command line per subcommand; bad_flags breaks one flag of one.
VALID = (
    ["bounds", "--poset", "chain:2"],
    ["exact", "--n", "3", "--poset", "chain:2"],
    ["chain", "--n", "5", "--k", "2"],
    ["embed", "--poset", "chain:2", "--k", "2", "--n", "8"],
    ["verify", "--suite", "levelsize", "--k", "2", "--n", "6"],
)


@st.composite
def bad_flags(draw) -> list[str]:
    argv = list(draw(st.sampled_from(VALID)))
    flags = [i for i, tok in enumerate(argv) if tok.startswith("--")]
    i = draw(st.sampled_from(flags))
    how = draw(st.sampled_from(["unknown", "drop", "value", "empty-k", "budget"]))
    if how == "drop" and argv[0] != "verify":  # verify's flags are all optional
        del argv[i : i + 2]
    elif how == "value":
        argv[i + 1] = draw(junk)
    elif how == "empty-k" and "--k" in argv:
        lo = draw(st.integers(2, 9))
        argv[argv.index("--k") + 1] = f"{lo}..{lo - draw(st.integers(1, 3))}"
    elif how == "budget":
        # exact's budget must be positive; no other subcommand takes one.
        argv += ["--budget", str(draw(st.integers(-10, 0)))]
    else:
        argv.append("--" + draw(st.text(string.ascii_lowercase, min_size=3, max_size=8)))
    return argv


def family_text(n: int, sizes) -> str:
    lines = [
        ",".join(map(str, c))
        for w in sizes
        for c in itertools.combinations(range(1, n + 1), w)
    ]
    return f"n={n}\n" + "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("bad-input")


@EXAMPLES
@given(
    spec=st.one_of(oversized_specs, malformed_specs),
    command=st.sampled_from(["bounds", "exact", "alpha", "embed"]),
)
def test_bad_poset_spec_is_refused(files, spec, command):
    good = files / "good.txt"
    good.write_text(family_text(3, (0, 1, 2)))
    argv = {
        "bounds": ["bounds", "--poset", spec],
        "exact": ["exact", "--n", "3", "--poset", spec],
        "alpha": ["alpha", "--family", str(good), "--poset", spec],
        "embed": ["embed", "--poset", spec, "--k", "2", "--n", "8"],
    }[command]
    refuse(argv)


@EXAMPLES
@given(text=malformed_family_texts, command=st.sampled_from(["alpha", "embed"]))
def test_malformed_family_file_is_refused(files, text, command):
    path = files / "family.txt"
    path.write_text(text)
    if command == "alpha":
        refuse(["alpha", "--family", str(path), "--poset", "chain:2"])
    else:
        refuse(["embed", "--family", str(path), "--poset", "chain:2", "--k", "2"])


@EXAMPLES
@given(argv=bad_flags())
def test_bad_flag_is_refused(argv):
    if argv not in VALID:  # "drop" leaves a verify line valid
        refuse(argv)


def test_absent_or_oversized_family_file_is_refused(files):
    refuse(["alpha", "--family", str(files / "absent.txt"), "--poset", "chain:2"])
    big = files / "big.txt"
    big.write_text(family_text(10, (3, 4, 5)))  # 582 sets, above MAX_HOST_SETS
    refuse(["alpha", "--family", str(big), "--poset", "chain:2"])


def test_empty_edge_list_is_refused(files):
    empty = files / "empty-poset.txt"
    empty.write_text("size -1\n")
    refuse(["bounds", "--poset", f"edges:{empty}"])
    refuse(["exact", "--n", "3", "--poset", f"edges:{empty}"])


def test_oversized_ground_set_is_refused(files):
    # No command may start: embed would build n-bit masks for an (n + 1)-set
    # base, alpha an n-tuple sort key per set, chain enumerate 2^40 sets.
    huge = files / "huge-n.txt"
    huge.write_text("n=100000000\n1\n")
    refuse(["embed", "--family", str(huge), "--poset", "chain:2", "--k", "2"])
    refuse(["alpha", "--family", str(huge), "--poset", "chain:2"])
    refuse(["embed", "--n", "65", "--poset", "chain:2", "--k", "2"])
    refuse(["chain", "--n", "40", "--k", "40"])
    refuse(["chain", "--n", "100000000", "--k", "2"])
