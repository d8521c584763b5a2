import json
import subprocess
import sys

import pytest

from bandtopsis.cli import cli_main


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_writes_reference_positions(social_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(
        ["run", str(social_csv), "--iterations", "10000", "--seed", "42",
         "--custom", ",".join(["0.05"] * 12), "--out", str(out)],
        capsys,
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["positions"] == [1, 2, 6, 3, 4, 5]
    assert "a1: [1]" in stdout
    assert "a3: [6]" in stdout


def test_missing_input_exits_2(capsys):
    code, _, err = run_cli(["run", "missing.csv"], capsys)
    assert code == 2
    assert "cannot open missing.csv" in err


def test_unknown_flag_exits_2(social_csv, capsys):
    code = cli_main(["run", str(social_csv), "--frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_malformed_csv_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("g1,g2\nmax,min\na,1,nope\n")
    code, _, err = run_cli(["run", str(p)], capsys)
    assert code == 2
    assert "row 3" in err


def test_degenerate_problem_exits_1(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    p.write_text("c,g1,g2\n,max,min\na,1,5\nb,1,7\n")  # constant column g1
    code, _, err = run_cli(["run", str(p)], capsys)
    assert code == 1
    assert "g1" in err


def test_out_of_memory_exits_1_without_traceback(social_csv, tmp_path, monkeypatch, capsys):
    def exhausted(matrix, config):
        raise MemoryError

    monkeypatch.setattr("bandtopsis.cli.run_pipeline", exhausted)
    code, _, err = run_cli(
        ["run", str(social_csv), "--iterations", "10000000000000", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: out of memory")


def test_weights_subcommand_prints_bands(social_csv, capsys):
    code, stdout, _ = run_cli(
        ["weights", str(social_csv), "--custom", ",".join(["0.05"] * 12)], capsys
    )
    assert code == 0
    assert "entropy" in stdout and "critic" in stdout
    assert "lower" in stdout and "upper" in stdout
    assert "0.083" in stdout


def test_topsis_subcommand_single_shot(social_csv, capsys):
    weights = "0.093,0.069,0.056,0.119,0.087,0.056,0.116,0.079,0.055,0.127,0.086,0.055"
    code, stdout, _ = run_cli(["topsis", str(social_csv), "--weights", weights], capsys)
    assert code == 0
    ordered = [l.split()[1] for l in stdout.splitlines()[1:] if l.strip()]
    assert ordered[0] == "a1"
    assert ordered[-1] == "a3"


def test_topsis_wrong_weight_count_errors(social_csv, capsys):
    code, _, err = run_cli(["topsis", str(social_csv), "--weights", "0.5,0.5"], capsys)
    assert code != 0
    assert "12" in err


def test_plot_from_run_directory(social_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(
        ["run", str(social_csv), "--iterations", "200",
         "--custom", ",".join(["0.05"] * 12), "--out", str(out)],
        capsys,
    )
    assert code == 0
    code, stdout, _ = run_cli(["plot", str(out)], capsys)
    assert code == 0
    for k in (2, 3, 4, 5):
        assert (out / f"figure{k}.svg").exists()


def test_plot_accepts_summary_path(social_csv, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(["run", str(social_csv), "--iterations", "50",
             "--custom", ",".join(["0.05"] * 12), "--out", str(out)], capsys)
    code, _, _ = run_cli(["plot", str(out / "summary.json")], capsys)
    assert code == 0
    assert (out / "figure2.svg").exists()


def test_no_entropy_no_critic_requires_custom(social_csv, capsys):
    code, _, err = run_cli(
        ["weights", str(social_csv), "--no-entropy", "--no-critic"], capsys
    )
    assert code == 1
    assert "no weight sets" in err


def test_seed_default_is_reproducible(social_csv, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code, _, _ = run_cli(
            ["run", str(social_csv), "--iterations", "300",
             "--custom", ",".join(["0.05"] * 12), "--out", str(out)],
            capsys,
        )
        assert code == 0
    for name in ("weights.csv", "rwm.csv", "ranks.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_console_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "bandtopsis.cli", "--help"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "weights" in out.stdout and "topsis" in out.stdout


_SMALL_JSON = {
    "criteria": [["g1", "max"], ["g2", "min"]],
    "alternatives": ["a1", "a2", "a3"],
    "values": [[0.3, 0.1], [0.2, 0.3], [0.5, 0.2]],
}


@pytest.mark.parametrize(
    "extra, field",
    [
        pytest.param({"seed": "abc"}, "'seed'", id="seed-string"),
        pytest.param({"seed": None}, "'seed'", id="seed-null"),
        pytest.param({"seed": 4.0}, "'seed'", id="seed-float"),
        pytest.param({"seed": True}, "'seed'", id="seed-bool"),
        pytest.param({"iterations": 2.5}, "'iterations'", id="iterations-float"),
        pytest.param({"iterations": "100"}, "'iterations'", id="iterations-string"),
        pytest.param({"custom_sets": [[0.5, "x"]]}, "custom_sets[0][1]", id="custom-string"),
        pytest.param({"custom_sets": [[0.5, 0.5], [None, 1]]}, "custom_sets[1][0]",
                     id="custom-null"),
        pytest.param({"custom_sets": [[False, 1]]}, "custom_sets[0][0]", id="custom-bool"),
    ],
)
def test_mistyped_json_config_exits_2_naming_the_field(tmp_path, capsys, extra, field):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(dict(_SMALL_JSON, **extra)))
    code, _, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert field in err
