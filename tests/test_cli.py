import contextlib
import inspect
import io
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cyclecover.cli
from cyclecover.cli import COMMANDS, main
from cyclecover.dimacs import MAX_VERTICES, emit_dimacs, parse_dimacs
from cyclecover.generators import generate, petersen_graph
from cyclecover.graph import Graph
from cyclecover.oracle import is_vertex_cover
from cyclecover.search import vc_decide, vc_minimum

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "schema" / "result.json").read_text())

K4 = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"


def run(argv, stdin=""):
    """Run the CLI in-process; stdin is text (ASCII) or raw bytes."""
    out = io.StringIO()
    old = sys.stdin
    data = stdin if isinstance(stdin, bytes) else stdin.encode("ascii")
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue()


def run_doc(argv, stdin=""):
    code, out = run(argv, stdin)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_solve_yes_and_no():
    code, doc = run_doc(["solve", "-", "--k", "3"], K4)
    assert code == 0 and doc["answer"] == "YES" and doc["size"] == 3 and doc["k"] == 3
    code, doc = run_doc(["solve", "-", "--k", "2"], K4)
    assert code == 0 and doc["answer"] == "NO" and doc["cover"] is None


def test_minimize_emits_stats_and_cover():
    pet = emit_dimacs(petersen_graph())
    code, doc = run_doc(["minimize", "-"], pet)
    assert code == 0 and doc["answer"] == 6 and len(doc["cover"]) == 6
    stats = doc["stats"]
    assert stats["tau_root"] == 6
    assert stats["envelope_1_15855"] == pytest.approx(1.15855**6)
    assert stats["envelope_1_1504"] == pytest.approx(1.1504**6)
    code, doc = run_doc(["solve", "-", "--k", "5"], pet)
    assert code == 0 and doc["answer"] == "NO"
    # the CLI's stats are the library's on the graph it parses, whose 1-based
    # ids can order a BFS differently from the generator's 0-based ones
    stats = vc_decide(parse_dimacs(pet), 5).stats
    assert doc["stats"]["k_exhausted_leaves"] == stats.k_exhausted_leaves > 0
    assert doc["stats"]["lp_prunes"] == stats.lp_prunes
    assert doc["stats"]["packing_prunes"] == stats.packing_prunes == 1  # a 5-cycle and the LP of the other, at the root
    assert doc["stats"]["late_packing_prunes"] == stats.late_packing_prunes == 1  # the root's check follows its reductions
    text = emit_dimacs(generate("cubic", 60, 1))
    code, doc = run_doc(["solve", "-", "--k", "33"], text)
    assert code == 0 and doc["answer"] == "NO"
    stats = vc_decide(parse_dimacs(text), 33).stats
    assert doc["stats"]["packing_prunes"] == stats.packing_prunes > 0
    assert 0 < doc["stats"]["late_packing_prunes"] == stats.late_packing_prunes < stats.packing_prunes
    assert doc["stats"]["lp_prunes"] == stats.lp_prunes > 0
    assert doc["stats"]["k_exhausted_leaves"] == stats.k_exhausted_leaves


def test_envelopes_beyond_float_range_are_null(tmp_path):
    path = tmp_path / "c.col"
    code, _ = run_doc(["gen", "--model", "cycle", "--n", "12000", "--out", str(path)])
    assert code == 0
    code, doc = run_doc(["minimize", str(path)])
    assert code == 0 and doc["size"] == 6000
    assert doc["stats"]["envelope_1_15855"] is None and doc["stats"]["envelope_1_1504"] is None
    code, doc = run_doc(["solve", "-", "--k", "7000"], K4)
    assert code == 0 and doc["answer"] == "YES"
    assert doc["stats"]["envelope_1_15855"] is None and doc["stats"]["envelope_1_1504"] is None


def test_tau_command():
    pet = emit_dimacs(petersen_graph())
    code, doc = run_doc(["tau", "-"], pet)
    assert code == 0
    assert doc["tau"] == 6 and doc["ex"] == 10 and doc["circuit_rank"] == 6
    assert doc["tau_upper_bound"] == 6


def test_kernelize_command():
    c5 = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
    code, doc = run_doc(["kernelize", "-", "--k", "2"], c5)
    assert code == 0 and doc["feasible"] is False and doc["answer"] == "NO"
    code, doc = run_doc(["kernelize", "-", "--k", "3"], c5)
    assert doc["feasible"] is True and doc["k_residual"] == 3
    assert doc["lp_value"] == 2.5
    assert doc["kernel_dimacs"].startswith("p edge 5 5")
    assert doc["partition"]["halves"] == [1, 2, 3, 4, 5]


def test_analyze_command():
    code, doc = run_doc(["analyze"])
    assert code == 0
    assert doc["worst"]["vector"] == [3, 7]
    assert doc["worst"]["number"] == pytest.approx(1.15855, abs=1e-4)
    assert doc["interleave"]["alpha"] == pytest.approx(0.04799, abs=1e-4)
    assert doc["interleave"]["effective_base"] == pytest.approx(1.1504, abs=1e-3)
    assert len(doc["cases"]) >= 15
    for case in doc["cases"]:
        for vec in case["vectors"]:
            assert vec["number"] > 1.0


def test_gen_deterministic_and_parseable(tmp_path):
    out_path = tmp_path / "g.dimacs"
    code, doc = run_doc(["gen", "--model", "cubic", "--n", "12", "--seed", "4", "--out", str(out_path)])
    assert code == 0
    again = run(["gen", "--model", "cubic", "--n", "12", "--seed", "4"])[1]
    assert json.loads(again)["dimacs"] == doc["dimacs"]
    assert out_path.read_text() == doc["dimacs"]
    code2, tau_doc = run_doc(["tau", str(out_path)])
    assert code2 == 0 and tau_doc["tau"] == 12 // 2 + 1


@pytest.mark.parametrize(
    "model, n, want",
    [
        ("cubic", 5, 2),
        ("tree", 0, 2),
        ("cycle", 2, 2),
        ("cycle", -1, 2),
        ("cubic", MAX_VERTICES + 1, 4),
        ("tree", 10**20, 4),
    ],
)
def test_gen_sizes_end_in_usage_or_resource_errors(model, n, want):
    argv = ["gen", "--model", model, "--n", str(n)]
    start = time.perf_counter()
    code, doc = run_doc(argv)
    assert time.perf_counter() - start < 1.0
    assert code == want and doc["command"] == "gen"
    if want == 2:
        assert doc["error"] == "usage"
        return
    assert doc["error"] == "resource_limit"
    assert any(f"--n {n} is above the limit" in w for w in doc["warnings"])


def test_verify_accepts_minimize_output(tmp_path):
    dim = emit_dimacs(generate("maxdeg3", 20, 9))
    _, mdoc = run_doc(["minimize", "-"], dim)
    graph_path = tmp_path / "g.dimacs"
    cover_path = tmp_path / "c.txt"
    graph_path.write_text(dim)
    cover_path.write_text("".join(f"{v}\n" for v in mdoc["cover"]))
    code, vdoc = run_doc(["verify", str(graph_path), "--cover", str(cover_path)])
    assert code == 0 and vdoc["answer"] is True
    cover_path.write_text("")
    if mdoc["size"] > 0:
        code, vdoc = run_doc(["verify", str(graph_path), "--cover", str(cover_path)])
        assert vdoc["answer"] is False


@pytest.mark.parametrize("line", ["-3", "0", "1_0", "+1", "\u0661"])
def test_verify_rejects_cover_lines_that_are_not_vertex_ids(tmp_path, line):
    graph_path = tmp_path / "g.col"
    cover_path = tmp_path / "c.txt"
    graph_path.write_text(K4)
    cover_path.write_text(f"1\n{line}\n2\n", encoding="utf-8")
    code, doc = run_doc(["verify", str(graph_path), "--cover", str(cover_path)])
    assert code == 3 and doc["error"] == "parse" and doc["cover"] is None


@pytest.mark.parametrize("text", ["p edge 1_0 0\n", "p edge +2 1\ne 1 2\n", "p edge 2 1\ne 1 +2\n"])
def test_signed_or_underscored_numbers_are_parse_errors(text):
    code, doc = run_doc(["minimize", "-"], text)
    assert code == 3 and doc["error"] == "parse"


def test_oracle_command_agrees():
    dim = emit_dimacs(generate("maxdeg3", 16, 2))
    _, odoc = run_doc(["oracle", "-"], dim)
    _, mdoc = run_doc(["minimize", "-"], dim)
    assert odoc["answer"] == mdoc["answer"]


def test_exit_code_parse_error():
    code, doc = run_doc(["tau", "-"], "p edge 2 1\ne 1 9\n")
    assert code == 3 and doc["error"] == "parse"
    assert any("line 2" in w for w in doc["warnings"])


def test_exit_code_resource_limit():
    path = "\n".join(["p edge 30 29"] + [f"e {i} {i + 1}" for i in range(1, 30)]) + "\n"
    code, doc = run_doc(["oracle", "-"], path)
    assert code == 4 and doc["error"] == "resource_limit"


@pytest.mark.parametrize("n", [99999999999999999999, MAX_VERTICES + 1])
def test_oversized_header_is_a_resource_limit(n):
    start = time.perf_counter()
    code, doc = run_doc(["minimize", "-"], f"p edge {n} 0")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and doc["error"] == "resource_limit"
    assert any(f"declares {n} vertices" in w for w in doc["warnings"])


def test_exit_code_usage(tmp_path):
    code, doc = run_doc(["solve", "-"], K4)
    assert code == 2 and doc["error"] == "usage" and doc["command"] == "solve"
    assert any("--k" in w for w in doc["warnings"])
    code, doc = run_doc(["gen", "--model", "nonesuch", "--n", "4"])
    assert code == 2 and doc["error"] == "usage" and doc["command"] == "gen"
    code, doc = run_doc(["minimize", "/nonexistent/graph.col"])
    assert code == 2 and doc["error"] == "usage" and doc["command"] == "minimize"
    for argv in ([], ["nonesuch"], ["--k", "3"]):
        code, doc = run_doc(argv)
        assert code == 2 and doc["error"] == "usage" and doc["command"] is None
    for argv in (["solve", "-", "--k", "3", "--node-budget", "-5"], ["minimize", "-", "--node-budget", "-5"]):
        code, doc = run_doc(argv, K4)
        assert code == 2 and doc["error"] == "usage" and doc["command"] == argv[0]
        assert any("--node-budget" in w for w in doc["warnings"])
    for argv in (["solve", "-", "--k", "-1"], ["kernelize", "-", "--k", "-1"]):
        code, doc = run_doc(argv, K4)
        assert code == 2 and doc["error"] == "usage" and doc["command"] == argv[0]
        assert any("--k" in w for w in doc["warnings"])
    code, doc = run_doc(["minimize", "-", "--node-budget", "0"], K4)
    assert code == 4 and doc["error"] == "resource_limit"
    for out in (tmp_path / "missing" / "g.col", tmp_path):  # no parent directory; a directory
        code, doc = run_doc(["gen", "--model", "cubic", "--n", "8", "--out", str(out)])
        assert code == 2 and doc["error"] == "usage" and doc["command"] == "gen"


def test_every_command_names_itself_in_usage_errors():
    assert set(SCHEMA["properties"]["command"]["enum"]) == set(COMMANDS) | {None}
    for command in COMMANDS:
        code, doc = run_doc([command, "--nonesuch"])
        assert code == 2 and doc["error"] == "usage" and doc["command"] == command


def test_help_keeps_its_text():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert out.getvalue().startswith("usage: cyclecover")


def test_threads_flag_removed():
    code, doc = run_doc(["solve", "-", "--k", "3", "--threads", "4"], K4)
    assert code == 2 and doc["error"] == "usage"


@pytest.mark.parametrize("flag", [["--lp-bound", "on"], ["--interleave-depth", "0"], ["--struction"]])
def test_lp_and_interleave_flags_removed(flag):
    code, doc = run_doc(["solve", "-", "--k", "3", *flag], K4)
    assert code == 2 and doc["error"] == "usage"


def test_non_ascii_file_is_a_parse_error(tmp_path):
    path = tmp_path / "f.col"
    path.write_bytes("c café\n".encode("utf-8") + K4.encode("ascii"))
    code, doc = run_doc(["minimize", str(path)])
    assert code == 3 and doc["error"] == "parse"
    assert any("not ASCII" in w for w in doc["warnings"])


def test_non_ascii_stdin_is_a_parse_error():
    code, doc = run_doc(["minimize", "-"], b"c caf\xff\np edge 2 1\ne 1 2\n")
    assert code == 3 and doc["error"] == "parse"
    assert any("not ASCII text: byte 0xff" in w for w in doc["warnings"])


@st.composite
def _dimacs_like(draw):
    """A header with counts up to 60, then edge lines whose endpoints mostly
    lie in range, mixed with comments and malformed lines, as ASCII bytes."""
    n = draw(st.integers(min_value=-1, max_value=60))
    end = st.integers(min_value=0, max_value=max(n, 0) + 1)
    line = st.one_of(
        st.builds("e {} {}".format, end, end),
        st.builds("c {}".format, st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)),
        st.sampled_from(["", " ", "p edge 3 1", "p col 3 1", "e 1", "e 1 2 3", "e a b", "x 1 2", "\t"]),
    )
    header = f"p edge {n} {draw(st.integers(min_value=-1, max_value=60))}"
    lines = [header] + draw(st.lists(line, max_size=60))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "\n".join(lines).encode("ascii")


# argument lists drawn from the CLI's own vocabulary, with small numbers only;
# FILE stands for a file that holds the input
_MALFORMED_ARGV = st.lists(
    st.sampled_from(
        [
            *COMMANDS, "-", "FILE", "--k", "--n", "--model", "--seed", "--cover", "--struction",
            "--node-budget", "--threads", "cubic", "tree", "0", "3", "12", "-1", "x", "",
        ]
    ),
    max_size=7,
)
_FILE_IDS = itertools.count()


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    data=st.one_of(st.binary(max_size=200), _dimacs_like()),
    argv=st.one_of(
        st.sampled_from(
            [
                ["minimize", "-"],
                ["tau", "-"],
                ["kernelize", "-", "--k", "3"],
                ["solve", "-", "--k", "3"],
                ["oracle", "-"],
                ["minimize", "FILE"],
                ["solve", "FILE", "--k", "3"],
                ["verify", "FILE", "--cover", "-"],
            ]
        ),
        _MALFORMED_ARGV,
    ),
)
def test_any_stdin_ends_in_one_json_document(tmp_path, data, argv):
    """The input arrives on stdin and, as FILE, in a new file of the same bytes."""
    if "FILE" in argv:
        path = tmp_path / f"input{next(_FILE_IDS)}.col"
        path.write_bytes(data)
        argv = [str(path) if a == "FILE" else a for a in argv]
    code, out = run(argv, data)
    assert code in (0, 2, 3, 4)
    jsonschema.validate(json.loads(out), SCHEMA)


def test_budgeted_runs_on_branching_graphs_end_in_one_json_document():
    """Cubic n=60 graphs with a few random edge edits branch for a handful of
    nodes; under a budget of 8 nodes some runs answer and some trip it."""
    codes = []
    for seed in range(8):
        rng = random.Random(seed)
        _, doc = run_doc(["gen", "--model", "cubic", "--n", "60", "--seed", str(seed)])
        g = parse_dimacs(doc["dimacs"])
        edges = set(g.edges())
        for _ in range(rng.randrange(1, 5)):
            u, v = rng.sample(sorted(g.vertices()), 2)
            edges ^= {(min(u, v), max(u, v))}
        g = Graph.from_edges(edges, g.vertices())
        k = rng.randrange(30, 35)
        for argv in (["minimize", "-"], ["solve", "-", "--k", str(k)]):
            code, doc = run_doc([*argv, "--node-budget", "8"], emit_dimacs(g))
            codes.append(code)
            if code == 4:
                assert doc["error"] == "resource_limit" and doc["answer"] is None, (seed, argv)
            elif argv[0] == "minimize":
                assert code == 0 and doc["size"] == vc_minimum(g)[0], seed
                assert is_vertex_cover(g, doc["cover"]), seed
            else:
                assert code == 0 and doc["answer"] == vc_decide(g, k).answer, (seed, k)
                assert doc["cover"] is None or is_vertex_cover(g, doc["cover"]), (seed, k)
    assert set(codes) == {0, 4}, codes


def test_cli_leaves_the_recursion_limit_alone():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(4321)
    try:
        assert run(["minimize", "-"], K4)[0] == 0
        assert sys.getrecursionlimit() == 4321
    finally:
        sys.setrecursionlimit(old)


def test_deep_runs_answer_under_a_low_recursion_limit():
    cubic = emit_dimacs(generate("cubic", 2000, 1))  # the first dive reaches depth 209
    cycle = emit_dimacs(generate("cycle", 20000, 1))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code, doc = run_doc(["solve", "-", "--k", "2000"], cubic)
        assert code == 0 and doc["answer"] == "YES"
        for argv in (["minimize", "-"], ["tau", "-"], ["kernelize", "-", "--k", "10000"]):
            assert run_doc(argv, cycle)[0] == 0, argv
    finally:
        sys.setrecursionlimit(old)


def test_memory_error_is_a_resource_limit(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cyclecover.cli, "vc_minimum", exhausted)
    code, doc = run_doc(["minimize", "-"], K4)
    assert code == 4 and doc["error"] == "resource_limit" and doc["command"] == "minimize"
    assert doc["warnings"] == ["out of memory"]


def test_byte_identical_reruns():
    dim = emit_dimacs(generate("maxdeg3", 24, 7))
    outs = {run(["minimize", "-"], dim)[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run(["solve", "-", "--k", "10"], dim)[1] for _ in range(3)}
    assert len(outs) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecover", "analyze"],
        cwd=Path(__file__).resolve().parent.parent / "src",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "analyze"
