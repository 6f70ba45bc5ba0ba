"""End-to-end tests of the command-line interface, via subprocess, and of
the README's decide examples through cli.main."""

import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from regcycle import cli

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "regcycle", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestDecide:
    def test_pair_sets_example(self):
        proc = run_cli(
            "decide", "--group", "sym:10",
            "--element", "(1 2)(3 4 5)(6 7 8 9 10)",
            "--action", "ksets:2",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert list(payload) == [
            "schema", "element", "order", "induced_order", "action",
            "verdict", "witness", "method", "certified", "flags",
        ]
        assert payload["schema"] == 1
        assert payload["order"] == 30
        assert payload["verdict"] is False
        assert payload["witness"] is None
        assert payload["certified"] is True

    def test_twisted_coset_example(self):
        proc = run_cli(
            "decide", "--group", "sym:6",
            "--element", "(1 2 3 4 5 6)",
            "--action", "cosets:pgl2:5",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] is False
        assert payload["order"] == 6
        assert payload["induced_order"] == 6

    def test_affine_witness(self):
        proc = run_cli(
            "decide", "--group", "agl:2,3",
            "--element", "1,1,0,1+2,0",
            "--action", "affine",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] is True
        assert isinstance(payload["witness"], list)
        assert len(payload["witness"]) == 2

    def test_wreath_product(self):
        proc = run_cli(
            "decide", "--group", "wreath:3,2",
            "--element", "(1 2 3)|(1 2)@(1 2)",
            "--action", "product",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["order"] == 4
        assert payload["verdict"] is True

    def test_diagonal(self):
        proc = run_cli(
            "decide", "--group", "diag:5,1",
            "--element", "sigma=(1 2);phi=2;m=7",
            "--action", "diagonal",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["certified"] is True

    def test_combinatorial_above_cap(self):
        proc = run_cli(
            "decide", "--group", "sym:30",
            "--element", "(1 2 3)",
            "--action", "ksets:15",
            "--cap", "1000",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["method"] == "kset_combinatorial"
        assert payload["verdict"] is True
        assert len(payload["witness"]) == 15

    def test_partitions_4x4_past_enumeration(self):
        proc = run_cli(
            "decide", "--group", "sym:16",
            "--element", "(1 2 3)",
            "--action", "partitions:4x4",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["verdict"] is True
        assert payload["certified"] is True
        assert len(payload["witness"]) == 4

    def test_partitions_3x10_past_cap(self):
        proc = run_cli(
            "decide", "--group", "sym:30",
            "--element", "(1 2)",
            "--action", "partitions:3x10",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["method"] == "constructive_proof"
        assert payload["verdict"] is True
        assert payload["certified"] is True
        assert len(payload["witness"]) == 10

    def test_tsv_output(self):
        proc = run_cli(
            "decide", "--group", "sym:5",
            "--element", "(1 2 3 4 5)",
            "--action", "natural",
            "--output", "tsv",
        )
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()
        assert header.split("\t")[0] == "schema"
        cells = row.split("\t")
        assert cells[0] == "1"
        assert cells[5] == "true"

    def test_parse_error_exit_2(self):
        proc = run_cli(
            "decide", "--group", "sym:10",
            "--element", "(1 2 bogus)",
            "--action", "ksets:2",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_unknown_group_exit_2(self):
        proc = run_cli(
            "decide", "--group", "nope:3", "--element", "()",
            "--action", "natural",
        )
        assert proc.returncode == 2

    def test_nonmember_exit_2(self):
        proc = run_cli(
            "decide", "--group", "alt:4", "--element", "(1 2)",
            "--action", "natural",
        )
        assert proc.returncode == 2

    def test_cap_exit_3(self):
        proc = run_cli(
            "decide", "--group", "sym:12",
            "--element", "(1 2 3 4 5 6 7 8 9 10 11 12)",
            "--action", "natural",
            "--cap", "2",
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "group,message",
        [
            ("diag:8,1", "diagonal group alt8 tables has 406425600 points, cap is 10000000"),
            (
                "diag:100000,1",
                "diagonal group alt8 tables (a lower bound for alt100000) has 406425600 points, "
                "cap is 10000000",
            ),
        ],
    )
    def test_diagonal_tables_priced_before_closure(self, group, message):
        # The alt(8) multiplication table alone would be 20160^2 int64 entries.
        start = time.perf_counter()
        proc = run_cli(
            "decide", "--group", group,
            "--element", "sigma=();phi=1;m=2", "--action", "diagonal",
        )
        assert time.perf_counter() - start < 20
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [f"regcycle: {message}"]

    def test_mismatched_action_exit_2(self):
        proc = run_cli(
            "decide", "--group", "gl:2,3", "--element", "1,0,0,1",
            "--action", "ksets:2",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "group, action",
        [
            ("sym:10", "ksets:0"),
            ("sym:10", "ksets:11"),
            ("sym:10", "ksets:x"),
            ("sym:12", "partitions:1x12"),
            ("sym:12", "partitions:12x1"),
            ("sym:12", "partitions:2x5"),
            ("sym:12", "partitions:3"),
            ("sym:6", "cosets:stab:0"),
            ("sym:6", "cosets:stab:7"),
            ("sym:6", "cosets:pair:1,9"),
            ("sym:6", "cosets:pair:1,1"),
            ("sym:4", "cosets:sylow:4"),
            ("sym:6", "cosets:pgl2:6"),
            ("sym:4", "cosets:sylow:5"),
            ("sym:6", "cosets:bogus:1"),
            ("sym:6", "nonsense"),
        ],
    )
    def test_malformed_action_exit_2(self, group, action):
        proc = run_cli(
            "decide", "--group", group, "--element", "(1 2)", "--action", action
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


    @pytest.mark.parametrize(
        "group, element, action",
        [
            ("sym:x", "(1 2)", "natural"),
            ("foo:3", "(1 2)", "natural"),
            ("sym:6", "(1 9)", "natural"),
            ("sym:6", "(1 2", "natural"),
            ("sym:6", "(1 1)", "natural"),
            ("gl:2,3", "1,1,1,1", "vectors"),
            ("agl:2,3", "1,0,0,1+5,0", "affine"),
            ("wreath:3,2", "(1 2)@(1 2)", "product"),
            ("diag:5,1", "sigma=();phi=500;m=1", "diagonal"),
        ],
    )
    def test_malformed_spec_exit_2(self, group, element, action):
        proc = run_cli(
            "decide", "--group", group, "--element", element, "--action", action
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


def readme_decide_examples() -> list[list[str]]:
    """The arguments after `decide` of each README decide example."""
    prefix = ["python", "-m", "regcycle", "decide"]
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        argv[len(prefix):]
        for argv in map(shlex.split, text.splitlines())
        if argv[: len(prefix)] == prefix
    ]


class TestReadmeExamples:
    def test_decide_stdout_matches_reference(self, capsys):
        with open(ROOT / "bench" / "cli_reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        examples = readme_decide_examples()
        assert sorted(" ".join(ex) for ex in examples) == sorted(reference)
        for example in examples:
            assert cli.main(["decide", *example]) == 0
            assert capsys.readouterr().out == reference[" ".join(example)], example


class TestVerify:
    def test_suite_pass_exit_0(self):
        proc = run_cli("verify", "--suite", "s6-exception")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["suite"] == "s6-exception"
        assert payload["all_ok"] is True
        assert len(payload["checks"]) == 3
        assert "pass" in proc.stderr

    def test_tsv_report(self):
        proc = run_cli("verify", "--suite", "gl", "--output", "tsv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "check\tok\tdetail"
        assert all(line.split("\t")[1] == "true" for line in lines[1:])

    def test_unknown_suite_exit_2(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2

    def test_m_outside_ksets_exit_2(self):
        proc = run_cli("verify", "--suite", "product", "--m", "3..4")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "--m" in proc.stderr

    @pytest.mark.parametrize("m", ["3..12", "10..12", "12"])
    def test_ksets_m_must_start_at_2(self, m):
        proc = run_cli("verify", "--suite", "ksets", "--m", m)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "starts at m = 2" in proc.stderr

    def test_ksets_oracle_past_cap_exit_3(self):
        # The m = 17 oracle line brute-forces 65535 k-set points for each
        # of the 297 cycle types: past the default cap of 10**7.
        proc = run_cli("verify", "--suite", "ksets", "--m", "2..20")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            "regcycle: ksets oracle line m=17 has 19463895 points, cap is 10000000"
        ]

    def test_ksets_m_13_runs_the_default_oracle(self):
        proc = run_cli("verify", "--suite", "ksets", "--m", "2..13", "--output", "tsv")
        default = run_cli("verify", "--suite", "ksets", "--output", "tsv")
        assert proc.returncode == default.returncode == 0, proc.stderr

        def oracle(stdout):
            return [line for line in stdout.splitlines() if "_vs_bruteforce_" in line]

        lines = oracle(proc.stdout)
        assert len(lines) == 12 and lines[-1].startswith("combinatorial_vs_bruteforce_m13\ttrue")
        assert lines == oracle(default.stdout)


class TestScan:
    def test_single_row(self):
        proc = run_cli("scan", "--action", "ksets:2", "--m", "10")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "m\taction\ttype\torder\tcover\tnote"
        assert len(lines) == 2
        cells = lines[1].split("\t")
        assert cells[:5] == ["10", "ksets:2", "[5,3,2]", "30", "3"]

    def test_threshold_range(self):
        proc = run_cli("scan", "--action", "ksets:3", "--m", "6..17")
        assert proc.returncode == 0, proc.stderr
        rows = proc.stdout.splitlines()[1:]
        assert all(row.startswith("17\t") for row in rows)
        assert rows[0].split("\t")[2] == "[7,5,3,2]"

    def test_partitions_empty(self):
        proc = run_cli("scan", "--action", "partitions:2x3", "--m", "6")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1

    def test_shape_mismatch_exit_2(self):
        proc = run_cli("scan", "--action", "partitions:2x3", "--m", "8")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "shape, code", [("1x4", 2), ("4x1", 2), ("4x4", 3), ("2x7", 3)]
    )
    def test_partition_shape_out_of_scan_range(self, shape, code):
        proc = run_cli("scan", "--action", f"partitions:{shape}")
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr


    def test_json_output_exit_2(self):
        proc = run_cli("scan", "--action", "ksets:2", "--m", "6", "--output", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "TSV only" in proc.stderr


class TestBounds:
    def test_table_passes(self):
        proc = run_cli("bounds", "--m", "47..50")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "m\tn_value\talpha\tbeta\tproduct\tverdict"
        assert len(lines) == 5
        first = lines[1].split("\t")
        assert first[0] == "47"
        assert first[1] == "5057815230"
        assert first[5] == "pass"
        assert all(line.split("\t")[5] == "pass" for line in lines[1:])

    def test_small_m_fails_exit_1(self):
        proc = run_cli("bounds", "--m", "10..12")
        assert proc.returncode == 1
        assert all(
            line.split("\t")[5] == "fail"
            for line in proc.stdout.splitlines()[1:]
        )


    @pytest.mark.parametrize("m", ["3", "3..10", "6..6"])
    def test_below_first_degree_exit_2(self, m):
        proc = run_cli("bounds", "--m", m)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert "m = 7" in proc.stderr

    def test_json_output_exit_2(self):
        proc = run_cli("bounds", "--m", "47..48", "--output", "json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "TSV only" in proc.stderr


class TestImportPath:
    def test_decide_never_loads_mpmath(self):
        script = (
            "import sys\n"
            "import regcycle.cli as cli\n"
            "assert 'mpmath' not in sys.modules, 'import'\n"
            f"for example in {readme_decide_examples()!r}:\n"
            "    assert cli.main(['decide', *example]) == 0, example\n"
            "    assert 'mpmath' not in sys.modules, example\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr

    def test_bounds_names_resolve_lazily(self):
        import regcycle
        from regcycle import bounds

        assert regcycle.alpha_beta_row is bounds.alpha_beta_row
        namespace = {}
        exec("from regcycle import *", namespace)
        assert all(name in namespace for name in regcycle.__all__)
        with pytest.raises(AttributeError):
            regcycle.no_such_name


class TestUsage:
    def test_no_command_exit_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_help_exit_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "decide" in proc.stdout
