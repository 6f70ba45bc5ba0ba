"""End-to-end tests of the command-line interface via subprocess."""

import json
import subprocess
import sys

import pytest


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


class TestUsage:
    def test_no_command_exit_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_help_exit_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "decide" in proc.stdout
