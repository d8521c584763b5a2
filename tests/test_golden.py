"""Pinned output bytes of `bandtopsis run data/social.csv --seed 42` plus
`bandtopsis plot` and `bandtopsis rwm`, the ranks.csv of a run of several
row chunks, and the stdout of a single-shot `bandtopsis topsis
data/social.csv`.

The hashes were taken on x86-64 Linux with numpy 2.4. Any change to
sampling, distances, ranking, aggregation, summaries, table formatting or
chart geometry that moves a single output byte fails here.
"""

import hashlib
from pathlib import Path

from bandtopsis.cli import cli_main
from conftest import IDOCRIW_WEIGHTS

DATA = Path(__file__).resolve().parent.parent / "data" / "social.csv"

GOLDEN_SHA256 = {
    "figure2.svg": "cbe2f43304af86de01b6364e93b7885fb63d72ab6137426bc64dcf58fcf5cd5e",
    "figure3.svg": "480e080a734cdc7b11464d1e2f82bcf2204703d94c72ccb531e4b8a6c794f7e4",
    "figure4.svg": "ada31b24db299307028c49091410815191c0e5831a9ddb0041b9f667cd86325a",
    "figure5.svg": "16b0d5da6bdf1b6ef72b58679229d1f82d22335e396a29710a2b33e1e6b7bb16",
    "ranks.csv": "69cab34ab1480e5777113e3a93c0f6d526f28c8a68d2a71b35da02302ae973f0",
    "rwm.csv": "aba1580a9fa9f33b21bc27df51095f1557d3dcbeff7db93bce790b50e3ea4f82",
    "rwm_display.csv": "a4b5ae140d840d4f9b4b4699ac66ff83062b8c01fcb31b34c09f3349ed0db539",
    "summary.json": "2fd13ce7c1fb50ec8dfcc95726fe8d6459b8fc8072506ca465a6c60904164f72",
    "weights.csv": "6928c458cd1da459744f4b76367526ce074cf9b125e056f3d70154d0dbc576fd",
    "weights_display.csv": "03b01bb7b274d43ed6b4361bc739c14ef36ba0ecbe122d628e774dfa62b53878",
}


def test_run_and_plot_output_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run", str(DATA), "--seed", "42", "--out", str(out)]) == 0
    assert cli_main(["plot", str(out)]) == 0
    assert cli_main(["rwm", str(out)]) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == GOLDEN_SHA256


# t = 50,000 rows of 6 alternatives make 5 chunks of 10,923 rows: the first
# holds rows in more than one order, so the run keeps its rank rows, and each
# of the other four keeps one order, so the run keeps one rank row for it
SEVERAL_CHUNKS_RANKS_SHA256 = "002a931d2ab9b11f78581d55c7281d87aa0fbdade2d1bc600c4d1c8fb3f3390c"


def test_ranks_of_several_chunks_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    custom = ",".join(["0.05"] * 12)
    assert cli_main(["run", str(DATA), "--custom", custom, "--iterations", "50000",
                     "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "ranks.csv").read_bytes()).hexdigest() == \
        SEVERAL_CHUNKS_RANKS_SHA256


TOPSIS_IDOCRIW_STDOUT = """\
rank  alternative      closeness
   1  a1               0.687062
   2  a2               0.536726
   3  a4               0.407920
   4  a5               0.388998
   5  a6               0.270956
   6  a3               0.220238
"""


def test_topsis_stdout_is_pinned(capsys):
    weights = ",".join(str(v) for v in IDOCRIW_WEIGHTS)
    assert cli_main(["topsis", str(DATA), "--weights", weights]) == 0
    assert capsys.readouterr().out == TOPSIS_IDOCRIW_STDOUT
