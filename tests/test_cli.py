"""Exit-code contract, JSON output and the documented pipelines."""

import hashlib
import json
import time

import pytest

from ordsem import cli, morphism, semantics, splitting
from ordsem.brouwer import upset_algebra
from ordsem.documents import algebra_to_json, poset_from_json, poset_to_json
from ordsem.errors import InvariantViolation, Report
from ordsem.cli import main
from ordsem.semantics import binary_tree_frame


@pytest.fixture
def fork_path(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text(
        json.dumps({"elements": ["r", "l", "k"], "leq": [["r", "l"], ["r", "k"]]})
    )
    return str(path)


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "leq": [["a", "b"]]}))
    return str(path)


class TestUpsets:
    def test_fork(self, fork_path, capsys):
        assert main(["upsets", fork_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 5

    @pytest.mark.parametrize(
        "name, stdout",
        [
            ("fork", "5 upsets:\n  {}\n  {l}\n  {k}\n  {l,k}\n  {r,l,k}\n"),
            (
                "diamond",
                "6 upsets:\n  {}\n  {top}\n  {m1,top}\n  {m2,top}\n  {m1,m2,top}\n"
                "  {bot,m1,m2,top}\n",
            ),
        ],
    )
    def test_human_output_is_byte_identical(self, name, stdout, tmp_path, capsys):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"fork": FORK, "diamond": DIAMOND}[name]))
        assert main(["upsets", str(path)]) == 0
        assert capsys.readouterr().out == stdout

    def test_member_labels_with_commas_are_quoted(self, tmp_path, capsys):
        # as in the algebra's carrier labels, {a, b} and {"a,b"} differ
        path = tmp_path / "commas.json"
        path.write_text(json.dumps({"elements": ["a", "b", "a,b"], "leq": []}))
        assert main(["upsets", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  {a,b}" in lines and '  {"a,b"}' in lines
        assert '  {a,"a,b"}' in lines
        assert len(set(lines)) == len(lines) == 9

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["upsets", str(bad)]) == 2

    def test_missing_file_exits_two(self):
        assert main(["upsets", "/nonexistent/nope.json"]) == 2

    def test_non_string_leq_member_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"elements": ["a", "b"], "leq": [["a", ["b"]]]}))
        assert main(["upsets", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestAlgebra:
    def test_verify_ok(self, fork_path):
        assert main(["algebra", "verify", fork_path]) == 0

    def test_quotient_emits_dump(self, fork_path, capsys):
        assert main(["algebra", "quotient", fork_path, "-x", "{l}"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {"carrier", "join", "meet", "impl"} <= set(data)

    def test_verify_labels_with_commas(self, tmp_path):
        # the upsets {a, b} and {"a,b"} have distinct labels
        path = tmp_path / "commas.json"
        path.write_text(json.dumps({"elements": ["a", "b", "a,b"], "leq": []}))
        assert main(["algebra", "verify", str(path)]) == 0

    def test_verify_loaded_dump(self, fork_path, tmp_path, capsys):
        main(["algebra", "quotient", fork_path, "-x", "{l}"])
        dump = tmp_path / "alg.json"
        dump.write_text(capsys.readouterr().out)
        assert main(["algebra", "verify", str(dump)]) == 0

    @pytest.mark.parametrize(
        "table, row, col, value",
        [("join", 0, 1, "a"), ("meet", 1, 0, True), ("impl", 0, 0, 1.0), ("carrier", 0, None, 0)],
        ids=["string-cell", "bool-cell", "float-cell", "integer-label"],
    )
    def test_dump_with_bad_cell_exits_two(
        self, table, row, col, value, fork_path, tmp_path, capsys
    ):
        main(["algebra", "quotient", fork_path, "-x", "{l}"])
        data = json.loads(capsys.readouterr().out)
        if col is None:
            data[table][row] = value
        else:
            data[table][row][col] = value
        dump = tmp_path / "alg.json"
        dump.write_text(json.dumps(data))
        assert main(["algebra", "verify", str(dump)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


    def test_non_brouwer_dump_is_not_factored(self, tmp_path, capsys):
        dump = broken_fork_dump(tmp_path)
        assert main(["algebra", "verify", dump]) == 1
        capsys.readouterr()
        assert main(["algebra", "quotient", dump, "-x", "{l}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == NOT_BROUWER

    def test_verify_tree_of_height_four(self, tmp_path, capsys):
        # 677 upsets: 2 * 677 + 3 * 677^2 + 2 * 677^3 instances
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(poset_to_json(binary_tree_frame(4))))
        assert main(["algebra", "verify", str(tree), "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"checked": 621953807, "ok": true, "subject": "algebra", "violations": []}\n'
        )


def broken_fork_dump(tmp_path) -> str:
    """The fork's upset algebra, its meet sending {} (x) {l} to {}."""
    data = algebra_to_json(upset_algebra(poset_from_json(FORK)))
    empty, left = data["carrier"].index("{}"), data["carrier"].index("{l}")
    data["meet"][empty][left] = empty
    dump = tmp_path / "alg.json"
    dump.write_text(json.dumps(data))
    return str(dump)


NOT_BROUWER = "error: not a Brouwer algebra: meet: '{}' (x) '{l}' = '{}' is not the glb\n"


class TestMuchnik:
    def test_chain_ok(self, chain_path):
        assert main(["muchnik", "iso-check", chain_path]) == 0

    def test_fork_is_input_error(self, fork_path):
        assert main(["muchnik", "iso-check", fork_path]) == 2


class TestCheckAndTheory:
    def test_soundness(self, chain_path):
        assert main(["check", "p -> p", "--algebra", chain_path]) == 0

    def test_failing_formula_exits_one(self, chain_path):
        assert main(["check", "p | ~p", "--frame", chain_path]) == 1

    def test_modes_agree(self, fork_path):
        for formula in ("~p | ~~p", "p -> p", "p | ~p"):
            frame = main(["check", formula, "--frame", fork_path])
            algebra = main(["check", formula, "--frame", fork_path, "--mode", "algebra"])
            assert frame == algebra

    def test_theory_witness(self, chain_path, capsys):
        assert main(["theory", "p | ~p", "--frame", chain_path, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["witness"]["point"] == "a"
        assert data["witness"]["valuation"] == {"p": ["b"]}

    @pytest.mark.parametrize("command", ["check", "theory"])
    def test_non_brouwer_dump_is_refused(self, command, tmp_path, capsys):
        assert main([command, "p -> p", "--algebra", broken_fork_dump(tmp_path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == NOT_BROUWER

    def test_parse_error_exits_two(self, chain_path):
        assert main(["check", "p ->", "--frame", chain_path]) == 2

    @pytest.mark.parametrize(
        "formula",
        ["~" * 5000 + "p", "(" * 3000 + "p" + ")" * 3000, "p&" * 3000 + "p"],
        ids=["negations", "parentheses", "conjunctions"],
    )
    def test_deep_formula_exits_two(self, formula, chain_path, capsys):
        assert main(["check", formula, "--frame", chain_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestIpc:
    def test_countermodel_json_on_stdout(self, capsys):
        assert main(["ipc", "p | ~p", "--max-height", "3"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == "countermodel"
        assert data["height"] == 2
        assert data["valuation"] == {"p": ["0"]}

    def test_valid_up_to_bound(self, capsys):
        assert main(["ipc", "p -> p", "--max-height", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result"] == "valid-up-to-bound"

    def test_huge_bound_stops_at_the_fixpoint(self, capsys):
        assert main(["ipc", "p -> p", "--max-height", "1000000000", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "bound": 1000000000,
            "formula": "p -> p",
            "result": "valid-up-to-bound",
        }

    def test_profile_guard_exits_two(self, capsys):
        # 11 variables: 2^11 profiles at height 1, so 2^22 pairings at height 2
        formula = "p0 -> p0 | " + " | ".join(f"q{i}" for i in range(1, 11))
        assert main(["ipc", formula, "--max-height", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: profile guard: ")


class TestPmorphism:
    def test_search_and_verify(self, fork_path, chain_path, tmp_path, capsys):
        assert main(["pmorphism", "search", fork_path, chain_path]) == 0
        out = tmp_path / "m.json"
        out.write_text(capsys.readouterr().out)
        assert main(["pmorphism", "verify", str(out)]) == 0

    def test_search_failure_exits_one(self, tmp_path, fork_path):
        chain3 = tmp_path / "chain3.json"
        chain3.write_text(
            json.dumps(
                {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"]]}
            )
        )
        assert main(["pmorphism", "search", str(chain3), fork_path]) == 1

    @pytest.mark.parametrize("command", ["verify", "export-dot"])
    @pytest.mark.parametrize(
        "pair", [["r", ["a"]], [["r"], "a"]], ids=["list-target", "list-source"]
    )
    def test_non_string_map_member_exits_two(
        self, pair, command, fork_path, chain_path, tmp_path, capsys
    ):
        main(["pmorphism", "search", fork_path, chain_path])
        data = json.loads(capsys.readouterr().out)
        data["map"][0] = pair
        m = tmp_path / "m.json"
        m.write_text(json.dumps(data))
        if command == "verify":
            argv = ["pmorphism", "verify", str(m)]
        else:
            argv = ["export-dot", "pmorphism", str(m), "-o", str(tmp_path / "m.dot")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([["r", "b"], ["r", "a"], ["l", "b"], ["k", "b"]], "source element 'r' twice"),
            ([["r", "a"], ["l", "b"], ["k", "b"], ["zzz", "a"]], "unknown source elements ['zzz']"),
        ],
        ids=["duplicate-source", "unknown-source"],
    )
    def test_map_lists_each_source_element_once(
        self, pairs, message, fork_path, chain_path, tmp_path, capsys
    ):
        main(["pmorphism", "search", fork_path, chain_path])
        data = json.loads(capsys.readouterr().out)
        data["map"] = pairs
        m = tmp_path / "m.json"
        m.write_text(json.dumps(data))
        assert main(["pmorphism", "verify", str(m)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestSplit:
    def test_verify(self):
        assert main(["split", "verify", "--depth", "6"]) == 0

    def test_build_then_verify_pipeline(self, tmp_path, capsys):
        assert main(["split", "build", "--height", "2", "--steps", "8", "--seed", "7"]) == 0
        out = tmp_path / "built.json"
        out.write_text(capsys.readouterr().out)
        assert main(["pmorphism", "verify", str(out)]) == 0

    def test_build_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.ndjson"
        assert (
            main(
                ["split", "build", "--height", "2", "--steps", "4",
                 "--seed", "0", "--trace", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        lines = trace.read_text().strip().splitlines()
        assert all(json.loads(line)["stage"].startswith("R") for line in lines)

    def test_insufficient_steps_exits_one(self, capsys):
        assert main(["split", "build", "--height", "4", "--steps", "2"]) == 1
        assert "incomplete" in capsys.readouterr().out

    @pytest.mark.parametrize("height, code", [(10, 1), (11, 2), (100000, 2)])
    def test_tree_height_limit(self, height, code, capsys):
        # 2^{<10} is the largest target frame; past it the build stops with
        # an input error instead of enumerating 2^height nodes
        argv = ["split", "build", "--height", str(height), "--steps", "1"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error: tree height guard")
        else:
            assert "incomplete" in captured.out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "--steps", "1000000000"], "build steps guard: 1000000000 > 4096"),
            (["verify", "--depth", "128"], "verify depth guard: 128 > 64"),
        ],
    )
    def test_size_guards_exit_two_at_once(self, argv, message, capsys):
        start = time.perf_counter()
        assert main(["split", *argv]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tree_height_guard_comes_before_the_build(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("build_pmorphism was called")

        monkeypatch.setattr(splitting, "build_pmorphism", never)
        trace = tmp_path / "trace.ndjson"
        argv = ["split", "build", "--height", "11", "--steps", "1600", "--seed", "1"]
        assert main([*argv, "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == "error: tree height guard: 11 > 10\n"
        assert not trace.exists()

    def test_deterministic_output(self, capsys):
        main(["split", "build", "--height", "3", "--steps", "24", "--seed", "3"])
        first = capsys.readouterr().out
        main(["split", "build", "--height", "3", "--steps", "24", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestExportDot:
    def test_frame(self, fork_path, tmp_path):
        out = tmp_path / "fork.dot"
        assert main(["export-dot", "frame", fork_path, "-o", str(out)]) == 0
        text = out.read_text()
        assert text.count("->") == 2  # Hasse edges only
        assert text.count("[label=") == 3

    def test_pmorphism(self, fork_path, chain_path, tmp_path, capsys):
        main(["pmorphism", "search", fork_path, chain_path])
        m = tmp_path / "m.json"
        m.write_text(capsys.readouterr().out)
        out = tmp_path / "m.dot"
        assert main(["export-dot", "pmorphism", str(m), "-o", str(out)]) == 0
        assert "cluster_source" in out.read_text()

    def test_countermodel_annotates_atoms(self, tmp_path, capsys):
        main(["ipc", "p | ~p", "--max-height", "3"])
        cm = tmp_path / "cm.json"
        cm.write_text(capsys.readouterr().out)
        out = tmp_path / "cm.dot"
        assert main(["export-dot", "countermodel", str(cm), "-o", str(out)]) == 0
        text = out.read_text()
        assert '"0: p"' in text
        assert "peripheries=2" in text

    @pytest.mark.parametrize(
        "change",
        [
            {"valuation": {"p": [["a"]]}},
            {"valuation": ["p"]},
            {"valuation": {"p": "0"}},
            {"point": None},
        ],
        ids=["nested-list-member", "list-valuation", "string-members", "no-point"],
    )
    def test_malformed_countermodel_exits_two(self, change, tmp_path, capsys):
        main(["ipc", "p | ~p", "--max-height", "3"])
        data = json.loads(capsys.readouterr().out)
        data.update(change)
        if data["point"] is None:
            del data["point"]
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps(data))
        out = tmp_path / "cm.dot"
        assert main(["export-dot", "countermodel", str(cm), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_unwritable_path_exits_two(self, fork_path):
        assert main(["export-dot", "frame", fork_path, "-o", "/nonexistent/x.dot"]) == 2


FORK = {"elements": ["r", "l", "k"], "leq": [["r", "l"], ["r", "k"]]}
DIAMOND = {
    "elements": ["bot", "m1", "m2", "top"],
    "leq": [["bot", "m1"], ["bot", "m2"], ["m1", "top"], ["m2", "top"]],
}
TREE3 = {
    "elements": ["", "0", "1", "00", "01", "10", "11"],
    "leq": [["", "0"], ["", "1"], ["0", "00"], ["0", "01"], ["1", "10"], ["1", "11"]],
}

# Byte-exact --json stdout, each frozen before the rewrite it guards (the
# one evaluator for both semantics; the Muchnik mask kernel; the pruned
# p-morphism search and the bit-sliced frame sweep).
GOLDEN = [
    pytest.param(
        ["muchnik", "iso-check", "diamond"],
        0,
        '{"checked": 1568, "ok": true, "subject": "muchnik-iso", "violations": []}\n',
        id="muchnik-iso-check",
    ),
    pytest.param(
        ["theory", "(p -> q) | (q -> p)", "--frame", "fork"],
        1,
        '{"formula": "(p -> q) | (q -> p)", "holds": false, "mode": "frame", '
        '"witness": {"point": "r", "valuation": {"p": ["l"], "q": ["k"]}}}\n',
        id="theory-refuted-witness",
    ),
    pytest.param(
        ["theory", "~p | ~~p", "--frame", "diamond"],
        0,
        '{"formula": "~p | ~~p", "holds": true, "mode": "frame"}\n',
        id="theory-holds",
    ),
    pytest.param(
        ["check", "~p | ~~p", "--frame", "fork", "--mode", "algebra"],
        1,
        '{"formula": "~p | ~~p", "holds": false}\n',
        id="check-mode-algebra",
    ),
    pytest.param(
        ["check", "(p -> q) | (q -> p)", "--algebra", "diamond"],
        1,
        '{"formula": "(p -> q) | (q -> p)", "holds": false}\n',
        id="check-algebra-input",
    ),
    pytest.param(
        ["ipc", "((p -> q) -> p) -> p", "--max-height", "3"],
        1,
        '{"formula": "((p -> q) -> p) -> p", "frame": {"elements": ["", "0", "1"], '
        '"leq": [["", "0"], ["", "1"]]}, "height": 2, "point": "", '
        '"result": "countermodel", "valuation": {"p": ["0", "1"], "q": []}}\n',
        id="ipc-peirce",
    ),
    pytest.param(
        ["ipc", "(p -> q) | (q -> p)", "--max-height", "3"],
        1,
        '{"formula": "(p -> q) | (q -> p)", "frame": {"elements": ["", "0", "1"], '
        '"leq": [["", "0"], ["", "1"]]}, "height": 2, "point": "", '
        '"result": "countermodel", "valuation": {"p": ["0"], "q": ["1"]}}\n',
        id="ipc-linearity",
    ),
    pytest.param(
        ["theory", "(~p -> q | r) -> (~p -> q) | (~p -> r)", "--frame", "tree3"],
        1,
        '{"formula": "(~p -> q | r) -> (~p -> q) | (~p -> r)", "holds": false, '
        '"mode": "frame", "witness": {"point": "", '
        '"valuation": {"p": ["00"], "q": ["01"], "r": ["1", "10", "11"]}}}\n',
        id="theory-three-variable-witness",
    ),
    pytest.param(
        ["pmorphism", "search", "tree3", "fork"],
        0,
        '{"map": [["", "r"], ["0", "r"], ["1", "r"], ["00", "l"], ["01", "k"], '
        '["10", "l"], ["11", "k"]], "source": {"elements": ["", "0", "1", "00", "01", '
        '"10", "11"], "leq": [["", "0"], ["", "1"], ["0", "00"], ["0", "01"], '
        '["1", "10"], ["1", "11"]]}, "target": {"elements": ["r", "l", "k"], '
        '"leq": [["r", "l"], ["r", "k"]]}}\n',
        id="pmorphism-search-found",
    ),
    pytest.param(
        ["pmorphism", "search", "diamond", "fork"],
        1,
        '{"found": false}\n',
        id="pmorphism-search-none",
    ),
]


class TestGolden:
    @pytest.mark.parametrize("argv, code, stdout", GOLDEN)
    def test_json_stdout_is_byte_identical(self, argv, code, stdout, tmp_path, capsys):
        paths = {}
        for name, poset in (("fork", FORK), ("diamond", DIAMOND), ("tree3", TREE3)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(poset))
        argv = [str(paths[a]) if a in paths else a for a in argv]
        assert main(argv + ["--json"]) == code
        assert capsys.readouterr().out == stdout

    def test_split_build_stdout_and_trace(self, tmp_path, capsys):
        # sha256 of the bytes written before the comparability hook and the
        # image index existed
        trace = tmp_path / "trace.ndjson"
        argv = ["split", "build", "--height", "3", "--steps", "32", "--seed", "1"]
        assert main(argv + ["--json", "--trace", str(trace)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "8ce6e35d9d4c48a1ae79d6826c0843a28c73f064dab1e4128b53321b0ec37f12"
        )
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "ab98848bd7f35cc139198625bcd775f612a51f7950310535b5c92bba19981ccc"
        )

    def test_larger_split_build_stdout_and_trace(self, tmp_path, capsys):
        # sha256 of the bytes written before the invariants were checked by
        # image group
        trace = tmp_path / "trace.ndjson"
        argv = ["split", "build", "--height", "5", "--steps", "100", "--seed", "7"]
        assert main(argv + ["--trace", str(trace)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "2fe4b943ec521f46ad5d8d84f58d7dc0bbce1c7084557863dce5d584e3c29a6a"
        )
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "e50fc797d60e0ebd10657b63ec516b2cadfe9910dc5d5fe4ca4d387e85872ddd"
        )

    def test_split_verify_stdout(self, capsys):
        assert main(["split", "verify", "--depth", "16", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"checked": 70384, "ok": true, "subject": "splitting-class depth=16", '
            '"violations": []}\n'
        )


class TestUsage:
    def test_check_needs_structure(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "p"])
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_internal_error_exits_three(self, fork_path, monkeypatch, capsys):
        def broken(args):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "cmd_upsets", broken)
        assert main(["upsets", fork_path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: KeyError: 'lost'\n")


    def test_failed_internal_check_exits_three(self, tmp_path, fork_path, monkeypatch, capsys):
        # InvariantViolation is an OrdsemError, but it reports a bug, not bad input
        monkeypatch.setattr(
            morphism, "verify_pmorphism", lambda m: Report(1, ("forced failure",))
        )
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"elements": ["a", "b"], "leq": [["a", "b"]]}))
        assert main(["pmorphism", "search", fork_path, str(chain)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: InvariantViolation: "
            "search returned a map that fails: forced failure\n"
        )
        assert "Traceback (most recent call last)" in captured.err

    def test_failed_build_invariant_exits_three(self, monkeypatch, capsys):
        def refuse(self, element, image, outside=frozenset(), siblings=()):
            raise InvariantViolation("forced failure")

        monkeypatch.setattr(splitting.PartialHomomorphism, "check_new_pair", refuse)
        assert main(["split", "build", "--height", "2", "--steps", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: InvariantViolation: forced failure\n")
        assert "Traceback (most recent call last)" in captured.err

    def test_profile_enumeration_disagreement_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(semantics, "frame_witness", lambda *args, **kwargs: None)
        assert main(["ipc", "p | ~p", "--max-height", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: InvariantViolation: "
            "internal disagreement between profile search and enumeration\n"
        )

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        assert main(["upsets", str(deep)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {deep} is not valid JSON: ")

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        latin = tmp_path / "latin.json"
        latin.write_bytes('{"elements": ["é"], "leq": []}'.encode("latin-1"))
        assert main(["upsets", str(latin)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {latin} is not valid JSON: ")

    def test_overlong_integer_exits_two(self, tmp_path, capsys):
        # past Python's 4300-digit limit int() raises a plain ValueError
        big = tmp_path / "big.json"
        big.write_text('{"elements": [], "leq": [], "n": ' + "9" * 5000 + "}")
        assert main(["upsets", str(big)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {big} is not valid JSON: ")

    def test_lone_surrogate_label_exits_two(self, tmp_path, capsys):
        # "\ud800" parses to a string that no UTF-8 output can hold
        poset = tmp_path / "poset.json"
        poset.write_text('{"elements": ["\\ud800"], "leq": []}')
        assert main(["upsets", str(poset)]) == 2
        assert capsys.readouterr().err == 'error: "elements" must be a list of strings\n'

    def test_unwritable_trace_exits_two(self, capsys):
        trace = "/nonexistent/dir/t.ndjson"
        argv = ["split", "build", "--height", "2", "--steps", "4", "--trace", trace]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {trace}: ")

    def test_unwritable_trace_fails_before_the_build(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("build_pmorphism ran before the trace path was checked")

        monkeypatch.setattr(splitting, "build_pmorphism", refuse)
        trace = tmp_path / "missing" / "t.ndjson"
        argv = ["split", "build", "--height", "6", "--steps", "400", "--trace", str(trace)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {trace}: ")
