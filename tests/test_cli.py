"""Exit-code contract, JSON output and the documented pipelines."""

import hashlib
import json

import pytest

from ordsem.cli import main


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

# Byte-exact --json stdout, each frozen before the rewrite it guards (the
# one evaluator for both semantics; the Muchnik mask kernel).
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
]


class TestGolden:
    @pytest.mark.parametrize("argv, code, stdout", GOLDEN)
    def test_json_stdout_is_byte_identical(self, argv, code, stdout, tmp_path, capsys):
        paths = {}
        for name, poset in (("fork", FORK), ("diamond", DIAMOND)):
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


class TestUsage:
    def test_check_needs_structure(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "p"])
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
