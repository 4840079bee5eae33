"""Command-line interface: transcripts, formats, exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from flygraph.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_two_node_sweep_transcript(capsys):
    code, out, err = run(capsys, "sample", "--model", "ba", "--n", "2")
    assert code == 0
    assert out == "q 1 -> 1\nq 1 -> 2\nq 1 -> 3\nq 2 -> 1\nq 2 -> 3\n"
    assert err == ""


def test_sample_text_is_reproducible(capsys):
    args = ("sample", "--model", "rrt", "--n", "9", "--seed", "42",
            "--schedule", "roundrobin")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.startswith("q 1 -> ")


def test_sample_json_shape(capsys):
    code, out, _ = run(capsys, "sample", "--model", "ba", "--n", "6",
                       "--seed", "3", "--output", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["model"] == "ba"
    assert blob["n"] == 6
    assert blob["schedule"] == "sweep"
    assert blob["bits_consumed"] > 0
    assert blob["stored_cells"] > 0
    assert all(1 <= j <= 6 and 1 <= r <= 7 for j, r in blob["queries"])


def test_sample_from_queries_file(tmp_path, capsys):
    # The file alone selects its schedule: its queries, and no sweep after.
    path = tmp_path / "queries.txt"
    path.write_text("1\n\n  2\n1\n")
    code, out, err = run(capsys, "sample", "--model", "ba", "--n", "4",
                         "--queries-file", str(path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert [line.split()[1] for line in lines] == ["1", "2", "1"]
    code, out, _ = run(capsys, "sample", "--model", "ba", "--n", "4",
                       "--queries-file", str(path), "--output", "json")
    blob = json.loads(out)
    assert blob["schedule"] == "file"
    assert [j for j, _ in blob["queries"]] == [1, 2, 1]


def test_queries_file_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "queries.txt"
    path.write_text("1\nbogus\n2\n")
    code, out, err = run(capsys, "sample", "--model", "ba", "--n", "4",
                         "--queries-file", str(path))
    assert code == 1
    assert "line 2" in err


def test_queries_file_range_error(tmp_path, capsys):
    path = tmp_path / "queries.txt"
    path.write_text("5\n")
    code, _, err = run(capsys, "sample", "--model", "ba", "--n", "4",
                       "--queries-file", str(path))
    assert code == 1
    assert "line 1" in err


def test_queries_file_excludes_schedule(tmp_path, capsys):
    path = tmp_path / "queries.txt"
    path.write_text("1\n")
    for schedule in ("sweep", "roundrobin", "file"):
        code, out, err = run(capsys, "sample", "--model", "ba", "--n", "4",
                             "--schedule", schedule, "--queries-file", str(path))
        assert (code, out) == (1, "")
        assert "--queries-file" in err
    code, _, err = run(capsys, "sample", "--model", "ba", "--n", "4",
                       "--schedule", "file")
    assert code == 1
    assert "invalid choice" in err


def test_batch_text_and_json(capsys):
    code, out, _ = run(capsys, "batch", "--model", "ba", "--n", "5",
                       "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "1 1"
    code, out, _ = run(capsys, "batch", "--model", "rrt", "--n", "5",
                       "--seed", "1", "--output", "json")
    blob = json.loads(out)
    assert blob["model"] == "rrt"
    assert len(blob["parents"]) == 5


def test_compare_passes_on_honest_sampler(capsys):
    code, out, _ = run(capsys, "compare", "--model", "ba", "--n", "3",
                       "--trials", "4000", "--seed", "0")
    assert code == 0
    assert out.endswith("PASS\n")


def test_compare_fails_on_tiny_sample(capsys):
    code, out, _ = run(capsys, "compare", "--model", "ba", "--n", "5",
                       "--trials", "30", "--seed", "0")
    assert code == 2
    assert out.endswith("FAIL\n")


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--model", "rrt", "--n", "3",
                       "--trials", "4000", "--seed", "1", "--output", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    assert 0 <= blob["tv"] < 0.015


def test_compare_rejects_large_n(capsys):
    code, _, err = run(capsys, "compare", "--model", "ba", "--n", "9",
                       "--trials", "10")
    assert code == 1
    assert "n <= 8" in err


def test_stats_text_and_json(capsys):
    code, out, _ = run(capsys, "stats", "--model", "ba", "--n", "50",
                       "--seeds", "5")
    assert code == 0
    assert "height_mean=" in out
    code, out, _ = run(capsys, "stats", "--model", "rrt", "--n", "6",
                       "--seeds", "50", "--output", "json")
    blob = json.loads(out)
    assert blob["n"] == 6
    assert blob["tv"] is not None
    assert blob["height"] > 0


def test_stats_json_spells_max_fan_out_as_text_does(capsys):
    argv = ("stats", "--model", "rrt", "--n", "6", "--seeds", "20")
    _, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, *argv, "--output", "json")
    fan_out = int(re.search(r"max_fan_out=(\d+)", text).group(1))
    assert json.loads(out)["max_fan_out"] == fan_out


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "sample")[0] == 1
    assert run(capsys, "nope", "--n", "3")[0] == 1
    assert run(capsys, "sample", "--model", "bad", "--n", "3")[0] == 1
    code, _, err = run(capsys, "sample", "--model", "ba", "--n", "0")
    assert code == 1
    assert "positive" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: flygraph")
    assert err == ""
    code, out, _ = run(capsys, "compare", "--help")
    assert code == 0
    assert "{ba,z,rrt}" in out


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("flygraph ")]
    assert len(commands) >= 6
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
