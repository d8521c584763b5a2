import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bandtopsis
from bandtopsis import normalize_custom_set
from bandtopsis.cli import cli_main
from conftest import REF_LOWER, REF_UPPER


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


def test_run_writes_three_tables_and_the_summary(social_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(["run", str(social_csv), "--iterations", "50", "--out", str(out)],
                              capsys)
    assert code == 0
    assert stdout.endswith(f"wrote 4 files to {out}\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "ranks.csv", "summary.json", "weights.csv", "weights_display.csv"]


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

    monkeypatch.setattr("bandtopsis.pipeline.run_pipeline", exhausted)
    code, _, err = run_cli(
        ["run", str(social_csv), "--iterations", "10000000000000", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: out of memory")


def test_duplicate_alternative_labels_exit_2(tmp_path, capsys):
    p = tmp_path / "dup.csv"
    p.write_text("c,g1,g2\n,max,min\na,1,5\na,2,7\nb,3,6\n")
    out = tmp_path / "out"
    code, _, err = run_cli(["run", str(p), "--out", str(out)], capsys)
    assert code == 2
    assert "duplicate alternative label 'a'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["weights", "run", "topsis"])
def test_carriage_return_in_a_name_exits_2(command, tmp_path, capsys):
    # a "\r" left unquoted by csv.writer would split the ranks.csv header
    p = tmp_path / "cr.json"
    p.write_text(json.dumps({"criteria": [{"id": "g1", "direction": "max"}],
                             "alternatives": ["a\rb", "x", "y"], "values": [[1], [2], [3]]}))
    out = tmp_path / "out"
    extra = {"run": ["--out", str(out)], "topsis": ["--weights", "1"], "weights": []}[command]
    code, _, err = run_cli([command, str(p), *extra], capsys)
    assert code == 2
    assert "control character in alternative label 'a\\rb'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["weights", "run", "topsis"])
def test_lone_surrogate_in_a_name_exits_2_before_any_output(command, tmp_path, capsys):
    # a JSON "\ud800" escape decodes to a name that no UTF-8 file or stdout can hold
    p = tmp_path / "surrogate.json"
    p.write_text(json.dumps({"criteria": [["g1", "max"], ["g2", "min"]],
                             "alternatives": ["a\ud8001", "a2", "a3"],
                             "values": [[1, 2], [2, 3], [3, 1]]}))
    out = tmp_path / "out"
    extra = {"run": ["--out", str(out)], "topsis": ["--weights", "1,1"], "weights": []}[command]
    code, stdout, err = run_cli([command, str(p), *extra], capsys)
    assert code == 2
    assert stdout == ""
    assert "lone surrogate in alternative label 'a\\ud8001'" in err
    assert not out.exists()


@pytest.mark.parametrize("suffix, text", [
    pytest.param(".csv", b"c,g1,g2\n,max,min\na\xff1,1,5\nb,2,7\nc,3,6\n", id="csv"),
    pytest.param(".json", b'{"criteria": [["g1", "max"], ["g2", "min"]],'
                          b' "alternatives": ["a\xff1", "b", "c"],'
                          b' "values": [[1, 5], [2, 7], [3, 6]]}', id="json"),
])
def test_problem_that_is_not_utf8_exits_2_naming_the_byte(suffix, text, tmp_path, capsys):
    p = tmp_path / f"latin1{suffix}"
    p.write_bytes(b"\xef\xbb\xbf" + text)  # the offset counts the byte order mark too
    out = tmp_path / "out"
    code, _, err = run_cli(["run", str(p), "--out", str(out)], capsys)
    bad = 3 + text.index(b"\xff")
    assert code == 2
    assert f"{p}: not valid UTF-8 at byte offset {bad}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["plot", "rwm"])
def test_summary_that_is_not_utf8_exits_2_naming_the_byte(
        small_summary, tmp_path, capsys, command):
    text = json.dumps(small_summary).encode()
    p = tmp_path / "summary.json"
    p.write_bytes(text + b"\xff")
    code, _, err = run_cli([command, str(tmp_path)], capsys)
    assert code == 2
    assert f"{p}: not valid UTF-8 at byte offset {len(text)}" in err
    assert sorted(q.name for q in tmp_path.iterdir()) == ["summary.json"]


def test_weights_subcommand_prints_bands(social_csv, capsys):
    code, stdout, _ = run_cli(
        ["weights", str(social_csv), "--custom", ",".join(["0.05"] * 12)], capsys
    )
    assert code == 0
    assert "entropy" in stdout and "critic" in stdout
    assert "lower" in stdout and "upper" in stdout
    assert "0.083" in stdout


def test_social_json_weights_print_the_published_band(capsys):
    social_json = Path(__file__).resolve().parent.parent / "data" / "social.json"
    code, stdout, _ = run_cli(["weights", str(social_json)], capsys)
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in stdout.splitlines()[1:]}
    assert rows["lower"] == [f"{v:.3f}" for v in REF_LOWER]
    assert rows["upper"] == [f"{v:.3f}" for v in REF_UPPER]


def test_topsis_subcommand_single_shot(social_csv, capsys):
    weights = "0.093,0.069,0.056,0.119,0.087,0.056,0.116,0.079,0.055,0.127,0.086,0.055"
    code, stdout, _ = run_cli(["topsis", str(social_csv), "--weights", weights], capsys)
    assert code == 0
    ordered = [l.split()[1] for l in stdout.splitlines()[1:] if l.strip()]
    assert ordered[0] == "a1"
    assert ordered[-1] == "a3"


def test_topsis_wrong_weight_count_errors(social_csv, capsys):
    code, _, err = run_cli(["topsis", str(social_csv), "--weights", "0.5,0.5"], capsys)
    assert code == 2
    assert "--weights" in err and "12" in err


@pytest.mark.parametrize("first, fault", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("-0.5", "negative"), ("0", "sum to zero"),
], ids=["nan", "inf", "negative", "zero-sum"])
def test_topsis_bad_weights_exit_2_naming_the_flag(social_csv, capsys, first, fault):
    rest = "0" if fault == "sum to zero" else "1"
    weights = ",".join([first] + [rest] * 11)
    code, _, err = run_cli(["topsis", str(social_csv), f"--weights={weights}"], capsys)
    assert code == 2
    assert "--weights" in err and fault in err


@pytest.mark.parametrize("weights, reason", [
    (["nan"] + ["1"] * 11, "non-finite weight"),
    (["-0.5"] + ["1"] * 11, "negative weight"),
    (["0"] * 12, "weights sum to zero"),
    (["1"] * 11, "wrong length: expected 12 weights, got 11"),
], ids=["nan", "negative", "all-zero", "wrong-length"])
def test_weight_vector_faults_read_the_same_everywhere(social_csv, tmp_path, capsys,
                                                        weights, reason):
    with pytest.raises(ValueError) as e:
        normalize_custom_set([float(w) for w in weights], 12, name="api")
    assert str(e.value) == f"api: {reason}"
    text = ",".join(weights)
    code, _, err = run_cli(["run", str(social_csv), f"--custom={text}", "--iterations", "10",
                            "--out", str(tmp_path)], capsys)
    assert (code, err) == (2, f"error: custom set 1: {reason}\n")
    code, _, err = run_cli(["topsis", str(social_csv), f"--weights={text}"], capsys)
    assert (code, err) == (2, f"error: --weights: {reason}\n")


def test_custom_set_near_the_double_limit_runs(social_csv, tmp_path, capsys):
    huge = ",".join(["1e308", "1e308"] + ["1"] * 10)
    for argv in (["run", str(social_csv), "--custom", huge, "--iterations", "100",
                  "--out", str(tmp_path)],
                 ["topsis", str(social_csv), "--weights", huge]):
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err


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


def test_plot_accepts_summary_with_utf8_bom(small_summary, tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    (tmp_path / "summary.json").write_bytes(bom + json.dumps(small_summary).encode())
    code, _, _ = run_cli(["plot", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "figure2.svg").exists()


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
        assert run_cli(["rwm", str(out)], capsys)[0] == 0
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
        pytest.param({"criteria": 5}, "'criteria'", id="criteria-number"),
        pytest.param({"alternatives": 3}, "'alternatives'", id="alternatives-number"),
        pytest.param({"alternatives": ["a1", {"x": 1}, "a3"]}, "alternatives[1]",
                     id="alternative-object"),
        pytest.param({"alternatives": ["a1", None, "a3"]}, "alternatives[1]",
                     id="alternative-null"),
        pytest.param({"criteria": [{"id": {"x": 1}, "direction": "max"}, ["g2", "min"]]},
                     "criteria[0].id", id="criterion-id-object"),
        pytest.param({"criteria": [["g1", "max"], {"id": "g2", "direction": "min",
                                                   "label": [2]}]},
                     "criteria[1].label", id="criterion-label-list"),
        pytest.param({"criteria": [["g1", "max"], [True, "min"]]}, "criteria[1][0]",
                     id="criterion-pair-id-bool"),
        pytest.param({"seed": 2 ** 64}, "seed must be in [0, 2^64)", id="seed-2^64"),
        pytest.param({"seed": -1}, "seed must be in [0, 2^64)", id="seed-negative"),
    ],
)
def test_mistyped_json_config_exits_2_naming_the_field(tmp_path, capsys, extra, field):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(dict(_SMALL_JSON, **extra)))
    code, _, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert field in err


def test_json_numbers_as_ids_and_labels_become_text(tmp_path, capsys):
    doc = dict(_SMALL_JSON, alternatives=[1, 2.5, "a3"],
               criteria=[{"id": 7, "direction": "max", "label": 8}, [9, "min"]])
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run_cli(["run", str(p), "--iterations", "20", "--out", str(tmp_path / "out")],
                         capsys)
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["alternatives"] == ["1", "2.5", "a3"]
    assert [(c["id"], c["label"]) for c in summary["criteria"]] == [("7", "8"), ("9", "9")]


@pytest.mark.parametrize("seed", [2 ** 64, -1, 2 ** 70])
def test_seed_outside_64_bits_exits_2(social_csv, tmp_path, capsys, seed):
    out = tmp_path / "out"
    code, _, err = run_cli(["run", str(social_csv), "--seed", str(seed), "--out", str(out)],
                           capsys)
    assert code == 2
    assert f"seed must be in [0, 2^64), got {seed}" in err
    assert not out.exists()


def test_largest_seed_runs(social_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(["run", str(social_csv), "--seed", str(2 ** 64 - 1), "--iterations",
                          "20", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["config"]["seed"] == 2 ** 64 - 1


@pytest.fixture(scope="module")
def small_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("summary")
    p = out / "problem.json"
    p.write_text(json.dumps(dict(_SMALL_JSON, iterations=20)))
    assert cli_main(["run", str(p), "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _without(path):
    def edit(doc):
        del _parent(doc, path)[path[-1]]
        return doc
    return edit


def _setting(path, value):
    def edit(doc):
        _parent(doc, path)[path[-1]] = value
        return doc
    return edit


def _renaming(path, table, name):
    """Rename the name at `path`, and its key in the five-number `table`."""
    def edit(doc):
        old = _parent(doc, path)[path[-1]]
        _parent(doc, path)[path[-1]] = name
        doc[table][name] = doc[table].pop(old)
        return doc
    return edit


_BAD_SUMMARIES = [
    pytest.param(lambda doc: [1, 2], "summary: expected an object, got list", id="list"),
    pytest.param(lambda doc: {"config": {}}, "'config.iterations'", id="empty-config"),
    pytest.param(_without(["final"]), "'final'", id="no-final"),
    pytest.param(_without(["criteria", 1, "id"]), "'criteria[1].id'", id="no-criterion-id"),
    pytest.param(_without(["rwm_summary", "g2"]), "'rwm_summary.g2'", id="no-rwm-five"),
    pytest.param(_without(["closeness_summary", "a3", "q1"]), "'closeness_summary.a3.q1'",
                 id="no-quartile"),
    pytest.param(_setting(["config", "seed"], "42"), "'config.seed'", id="seed-string"),
    pytest.param(_setting(["config", "iterations"], 0), "'config.iterations'",
                 id="iterations-zero"),
    pytest.param(_setting(["alternatives"], "a1"), "'alternatives'", id="alternatives-string"),
    pytest.param(_setting(["weights", 0, "values"], [0.5]), "'weights[0].values'",
                 id="weights-short"),
    pytest.param(_without(["weights", -1]), "'weights'", id="no-upper-row"),
    pytest.param(_setting(["final", "positions"], [1, 2]), "'final.positions'",
                 id="positions-short"),
    pytest.param(_setting(["final", "score_histograms", 1], [1, 2, "x"]),
                 "'final.score_histograms[1][2]'", id="histogram-string"),
    pytest.param(_setting(["final", "mean_closeness", 0], None), "'final.mean_closeness[0]'",
                 id="closeness-null"),
    pytest.param(_setting(["weights", -2, "values", 1], float("nan")), "'weights[2].values[1]'",
                 id="bound-nan"),
    pytest.param(_setting(["alternatives"], []), "'alternatives'", id="no-alternatives"),
    pytest.param(_setting(["alternatives"], ["a1"]), "'alternatives'", id="one-alternative"),
    pytest.param(_setting(["criteria"], []), "'criteria'", id="no-criteria"),
    pytest.param(_setting(["alternatives", 2], "a1"), "'alternatives[2]'",
                 id="repeated-alternative"),
    pytest.param(_setting(["criteria", 1, "id"], "g1"), "'criteria[1].id'",
                 id="repeated-criterion-id"),
    pytest.param(_setting(["final", "score_histograms", 0, 0], -1),
                 "'final.score_histograms[0][0]'", id="histogram-negative"),
    pytest.param(_setting(["final", "score_histograms", 1, 0], 21),  # 20 iterations
                 "'final.score_histograms[1]'", id="histogram-sum"),
    pytest.param(_setting(["final", "positions", 0], 99), "'final.positions'",
                 id="position-out-of-range"),
    pytest.param(_setting(["final", "positions"], [1, 1, 2]), "'final.positions'",
                 id="positions-repeated"),
    pytest.param(_setting(["final", "modal_scores", 1], 0), "'final.modal_scores[1]'",
                 id="modal-zero"),
    pytest.param(_setting(["final", "modal_scores", 2], 4), "'final.modal_scores[2]'",
                 id="modal-above-m"),
    pytest.param(_setting(["closeness_summary", "a1"],
                          {"min": 0.0, "q1": 0.9, "median": 5.0, "q3": 0.1, "max": 9.0}),
                 "'closeness_summary.a1'", id="quartiles-unordered"),
    pytest.param(_setting(["rwm_summary", "g2", "min"], 2.0), "'rwm_summary.g2'",
                 id="min-above-max"),
    pytest.param(_setting(["config", "seed"], 2 ** 64), "'config.seed'", id="seed-2^64"),
    pytest.param(_setting(["config", "seed"], -1), "'config.seed'", id="seed-negative"),
    pytest.param(_renaming(["alternatives", 0], "closeness_summary", "a\u00011"),
                 "'alternatives[0]'", id="alternative-control-character"),
    pytest.param(_renaming(["criteria", 0, "id"], "rwm_summary", "g\r1"), "'criteria[0].id'",
                 id="criterion-id-control-character"),
    pytest.param(_renaming(["alternatives", 0], "closeness_summary", "a\ud8001"),
                 "'alternatives[0]': lone surrogate", id="alternative-surrogate"),
    pytest.param(_renaming(["criteria", 0, "id"], "rwm_summary", "g\udfff1"),
                 "'criteria[0].id': lone surrogate", id="criterion-id-surrogate"),
]


@pytest.mark.parametrize("command", ["plot", "rwm"])
@pytest.mark.parametrize("edit, named", _BAD_SUMMARIES)
def test_malformed_summary_exits_2_naming_the_key(
        small_summary, tmp_path, capsys, command, edit, named):
    doc = edit(copy.deepcopy(small_summary))
    (tmp_path / "summary.json").write_text(json.dumps(doc))
    code, _, err = run_cli([command, str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: summary")
    assert named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


_NO_NUMPY_SCRIPT = """
import sys
from pathlib import Path
from bandtopsis.cli import cli_main

run_dir, bad_dir = Path(sys.argv[1]), Path(sys.argv[2])
for argv, code in ((["plot", str(run_dir)], 0), (["--help"], 0), (["plot", str(bad_dir)], 2),
                   (["rwm", str(bad_dir)], 2)):
    assert cli_main(argv) == code, argv
    assert "numpy" not in sys.modules, argv
"""


def test_plot_help_and_summary_errors_import_no_numpy(small_summary, tmp_path):
    run_dir, bad_dir = tmp_path / "run", tmp_path / "bad"
    for d, doc in ((run_dir, small_summary), (bad_dir, {"config": {}})):
        d.mkdir()
        (d / "summary.json").write_text(json.dumps(doc))
    package_root = Path(bandtopsis.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(run_dir), str(bad_dir)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert (run_dir / "figure5.svg").exists()


def test_rwm_rejects_bounds_outside_the_unit_interval(small_summary, tmp_path, capsys):
    doc = copy.deepcopy(small_summary)
    doc["weights"][-1]["values"][0] = 1.5
    (tmp_path / "summary.json").write_text(json.dumps(doc))
    code, _, err = run_cli(["rwm", str(tmp_path)], capsys)
    assert code == 2
    assert "'weights'" in err
