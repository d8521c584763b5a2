"""The chunked stages give the same bytes for any CPU count: run inline,
on a thread pool, or as one whole-array chunk."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from bandtopsis import (
    ComputationError,
    RankMatrix,
    RunConfig,
    WeightBounds,
    build_summary,
    kernels,
    rank_frequency,
    run_pipeline,
    sample_weight_matrix,
)
from bandtopsis.cli import cli_main
from bandtopsis.io import five_number_columns
from test_golden import DATA, GOLDEN_SHA256

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def pools(monkeypatch):
    """Count the thread pools the chunk runner makes."""
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return made


def _with_cpus(monkeypatch, cpus, fn):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    return fn()


def _one_chunk(monkeypatch, fn):
    """fn() with every call a single chunk: the whole-array computation."""
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 60)
    return fn()


# ------------------------------------------------------------------ kernels

def _bounds(n):
    lower = np.linspace(0.01, 0.2, n)
    return WeightBounds(lower, lower + np.linspace(0.3, 0.05, n))


def _sampling(t):
    b = _bounds(7)
    return lambda: sample_weight_matrix(b, t, 2 ** 64 - 5).rows


def _distances(t):
    rng = np.random.default_rng(t)
    V = rng.uniform(size=(6, 9))
    W = rng.uniform(0.01, 0.3, size=(t, 9))
    return lambda: np.stack(kernels.batch_distances(V, V.max(axis=0), V.min(axis=0), W))


def _tie_heavy(t, m):
    rng = np.random.default_rng(t + m)
    xi = rng.uniform(size=(t, m))
    some = rng.uniform(size=t) < 0.3
    xi[some, 1] = xi[some, 0]  # scattered tied rows
    xi[: t // 3, 2] = xi[: t // 3, 0]  # a run of tied rows
    return xi


def _ranks(m):
    def make(t):
        xi = _tie_heavy(t, m)
        return lambda: kernels.rank_rows(xi)
    return make


def _frequency(t):
    ranks = kernels.rank_rows(_tie_heavy(t, 6))
    return lambda: rank_frequency(RankMatrix(ranks))


def _summaries(k):
    table = np.random.default_rng(k).uniform(size=(4096, k))
    return lambda: np.array([list(d.values()) for d in five_number_columns(table)])


# kernel -> (its rows per chunk, a maker of the call at a given number of rows)
KERNELS = {
    "sample_weight_matrix": (lambda: kernels._chunk_rows(7), _sampling),
    "batch_distances": (lambda: kernels._chunk_rows(6), _distances),
    "rank_rows/stable": (lambda: kernels._chunk_rows(6), _ranks(6)),
    "rank_rows/fixed-up": (lambda: kernels._chunk_rows(12), _ranks(12)),
    "rank_frequency": (lambda: kernels._chunk_rows(6), _frequency),
    "five_number_columns": (lambda: kernels._chunk_rows(4096), _summaries),
}


ROWS = {"step - 1": lambda s: s - 1, "step": lambda s: s, "step + 1": lambda s: s + 1,
        "3 step + 5": lambda s: 3 * s + 5}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("rows", sorted(ROWS))
def test_threaded_kernel_equals_inline_and_whole_array(kernel, rows, monkeypatch, pools):
    step_of, make = KERNELS[kernel]
    step = step_of()
    total = ROWS[rows](step)
    call = make(total)
    threaded = _with_cpus(monkeypatch, 3, call)
    inline = _with_cpus(monkeypatch, 1, call)
    assert bool(pools) == (total >= 2 * step)  # two full chunks or more go to threads
    whole = _one_chunk(monkeypatch, call)
    assert threaded.tobytes() == inline.tobytes() == whole.tobytes()


def test_more_workers_than_cpus_with_frequent_switches_match_inline(monkeypatch):
    # rank counting and the summaries fill one shared list from every chunk
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 8)
    xi = _tie_heavy(5000, 12)
    table = np.random.default_rng(3).uniform(size=(300, 40))

    def stages():
        ranks = kernels.rank_rows(xi)
        return (sample_weight_matrix(_bounds(7), 3000, 1).rows.tobytes(), ranks.tobytes(),
                rank_frequency(RankMatrix(ranks)).tobytes(), five_number_columns(table))

    inline = _with_cpus(monkeypatch, 1, stages)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _with_cpus(monkeypatch, 8, stages) == inline
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------- pipeline

def _report_bytes(report):
    arrays = (report.rwm.rows, report.closeness, report.rank_matrix.ranks,
              report.final.positions, report.final.modal_scores,
              report.final.score_histograms, report.final.mean_scores,
              report.final.mean_closeness)
    return [a.tobytes() for a in arrays], json.dumps(build_summary(report))


def test_pipeline_and_summary_do_not_depend_on_the_cpu_count(social_matrix, monkeypatch, pools):
    config = RunConfig(iterations=200_003, seed=9)
    one = _with_cpus(monkeypatch, 1, lambda: _report_bytes(run_pipeline(social_matrix, config)))
    assert not pools
    three = _with_cpus(monkeypatch, 3, lambda: _report_bytes(run_pipeline(social_matrix, config)))
    assert len(pools) >= 6  # sampling, two kernels, rank counting, both summaries
    assert one == three


@pytest.mark.parametrize("cpus", [1, 3])
def test_golden_files_do_not_depend_on_the_cpu_count(cpus, tmp_path, monkeypatch, capsys, pools):
    # small chunks, so the t = 10^4 golden run has many chunks on each stage
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 9)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: cpus)
    out = tmp_path / "out"
    assert cli_main(["run", str(DATA), "--seed", "42", "--out", str(out)]) == 0
    assert cli_main(["plot", str(out)]) == 0
    assert cli_main(["rwm", str(out)]) == 0
    capsys.readouterr()
    assert bool(pools) == (cpus > 1)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == GOLDEN_SHA256


# ------------------------------------------------------------------- errors

@pytest.mark.parametrize("error", [ComputationError("chunk failed"), MemoryError()],
                         ids=["ComputationError", "MemoryError"])
def test_error_in_a_worker_chunk_exits_1_without_traceback(
        error, social_csv, tmp_path, monkeypatch, capsys, pools):
    real = kernels._rank_stable
    raised = []

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raised.append(error)
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "_rank_stable", failing)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 3)
    code = cli_main(["run", str(social_csv), "--iterations", "200000",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert raised and pools
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_first_failed_chunk_cancels_the_rest_and_is_raised(monkeypatch):
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 2)
    threads = threading.active_count()
    started = []

    def chunk(lo, hi):
        started.append(lo)
        if lo == 0:
            raise ValueError("chunk 0")
        time.sleep(0.01)

    with pytest.raises(ValueError, match="chunk 0"):
        kernels._for_chunks(1000, 1, chunk)
    assert len(started) < 100
    assert threading.active_count() == threads  # no thread outlives the call


# --------------------------------------------------------------------- fork

FORK_SCRIPT = textwrap.dedent("""
    import os, signal, sys, time
    from bandtopsis import RunConfig, parse_problem, run_pipeline
    matrix, _ = parse_problem(sys.argv[1])
    config = RunConfig(iterations=200_000, seed=1)
    before = run_pipeline(matrix, config).final.positions.tolist()
    pid = os.fork()
    if pid == 0:
        same = run_pipeline(matrix, config).final.positions.tolist() == before
        os._exit(0 if same else 3)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            sys.exit(os.waitstatus_to_exitcode(status))
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    sys.exit("forked child did not finish")
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork with threads, Linux")
def test_forked_child_runs_the_pipeline_after_the_parent():
    proc = subprocess.run([sys.executable, "-c", FORK_SCRIPT, str(DATA)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
