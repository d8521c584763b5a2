"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one warm-up
operation in ``__init__`` (set-up), and then offers:

* ``op()``: one timed operation, the same every time;
* ``check(result)``: the untimed output checks of one operation, raising
  ``CheckFailed``;
* ``peak_rss_kib()``: peak RSS of the process that did the work;
* ``traced_op(rec)``: the same operation driven stage by stage, with one
  span per public call recorded in ``rec``, and ``check_traced(result)``;
* ``matrix`` and ``config``: the problem its pipeline runs on.
"""

from __future__ import annotations

import dataclasses
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from bandtopsis import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    RunConfig,
    build_summary,
    charts_from_summary,
    emit_tables,
    kernels,
    load_summary,
    parse_problem,
    run_pipeline,
)

import replay
from oracle import SOCIAL_POSITIONS, check_rows, check_summary, require, stable_view

CUSTOM_SET = (0.05,) * 12
FIGURES = ("figure2.svg", "figure3.svg", "figure4.svg", "figure5.svg")
_POSITION_LINE = re.compile(r"^(.+): \[(\d+)\]$")


class InProcess:
    """run_pipeline + build_summary on a matrix already in memory."""

    reference: list[int] | None = None

    def __init__(self, matrix: DecisionMatrix, config: RunConfig):
        self.matrix, self.config = matrix, config
        self.m, self.n, self.t = matrix.m, matrix.n, config.iterations
        self.expected = None
        self.check(self.op())

    def op(self):
        report = run_pipeline(self.matrix, self.config)
        return report, build_summary(report)

    def check(self, result) -> None:
        report, summary = result
        check_summary(summary, self.t, report.final.positions.tolist(), self.reference)
        check_rows(report, self.config.seed)
        view = stable_view(summary)
        if self.expected is None:
            self.expected = view
        require(view == self.expected, "summary differs from the first run")

    check_traced = check

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_op(self, rec):
        report = replay.pipeline(self.matrix, self.config, rec)
        with rec.span("io.summary"):
            summary = build_summary(report)
        return report, summary

    def close(self) -> None:
        pass


class SyntheticApi(InProcess):
    """200 alternatives x 40 criteria from the splitmix64 stream, values in
    (0.01, 1.01], every third criterion a cost."""

    M, N, T = 200, 40, 20_000
    MATRIX_STREAM = 0x6D6174726978   # keeps the matrix stream apart from sampling

    def __init__(self, root: Path, seed: int, scratch: Path):
        u = kernels.unit_uniforms(seed ^ self.MATRIX_STREAM, 0, self.M * self.N)
        values = 1.01 - u.reshape(self.M, self.N)
        criteria = tuple(
            CriterionSpec(id=f"c{j + 1}", direction=Direction.COST if j % 3 == 2 else Direction.BENEFIT)
            for j in range(self.N)
        )
        matrix = DecisionMatrix(tuple(f"s{i + 1}" for i in range(self.M)), criteria, values)
        # CRITIC rejects a constant column and entropy a non-positive cost
        # entry; either would abort every operation.
        if not np.all(np.ptp(matrix.values, axis=0) > 0):
            raise SystemExit("synthetic matrix has a constant column")
        if not np.all(matrix.values[:, ~matrix.is_benefit] > 0):
            raise SystemExit("synthetic matrix has a non-positive cost entry")
        super().__init__(matrix, RunConfig(iterations=self.T, seed=seed))


class SocialDeep(InProcess):
    """data/social.csv with the 0.05 custom set at t = 10^6."""

    T = 1_000_000
    reference = SOCIAL_POSITIONS

    def __init__(self, root: Path, seed: int, scratch: Path):
        matrix, cfg = parse_problem(root / "data" / "social.csv")
        super().__init__(matrix, dataclasses.replace(
            cfg, custom_sets=(CUSTOM_SET,), iterations=self.T, seed=seed))


def _spawn(cmd, root: Path, stdout_path: Path) -> tuple[int, int]:
    """Run a child to completion; (exit code, peak RSS in KiB)."""
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, cwd=root)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class SocialCli:
    """Cold `bandtopsis run` then `bandtopsis plot` on data/social.csv,
    each in a fresh interpreter, default t."""

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root, self.seed = root, seed
        self.csv = root / "data" / "social.csv"
        self.scratch = Path(tempfile.mkdtemp(prefix="social-cli-", dir=scratch))
        self.ops = 0
        matrix, cfg = parse_problem(self.csv)
        self.config = dataclasses.replace(cfg, custom_sets=(CUSTOM_SET,), seed=seed)
        self.matrix = matrix
        self.m, self.n, self.t = matrix.m, matrix.n, self.config.iterations
        # The in-process run the CLI output must equal, itself checked.
        report = run_pipeline(matrix, self.config)
        summary = build_summary(report)
        check_rows(report, seed)
        check_summary(summary, self.t, report.final.positions.tolist(), SOCIAL_POSITIONS)
        self.expected = stable_view(summary)
        self.check(self.op())

    def _cli(self, *args) -> list[str]:
        return [sys.executable, "-m", "bandtopsis.cli", *args]

    def op(self):
        self.ops += 1
        out = self.scratch / f"op{self.ops}"
        run = _spawn(self._cli("run", str(self.csv), "--custom", ",".join(map(str, CUSTOM_SET)),
                               "--seed", str(self.seed), "--out", str(out)),
                     self.root, self.scratch / f"op{self.ops}-run.txt")
        plot = _spawn(self._cli("plot", str(out)), self.root, self.scratch / f"op{self.ops}-plot.txt")
        self._peak_rss_kib = max(run[1], plot[1])
        return out, run[0], plot[0]

    def peak_rss_kib(self) -> int:
        return self._peak_rss_kib

    def check(self, result) -> None:
        out, run_code, plot_code = result
        try:
            require(run_code == 0, f"run exited {run_code}")
            require(plot_code == 0, f"plot exited {plot_code}")
            stdout = (out.parent / f"{out.name}-run.txt").read_text().splitlines()
            seen = {}
            for line in stdout:
                hit = _POSITION_LINE.match(line)
                if hit:
                    seen[hit.group(1)] = int(hit.group(2))
            require(list(seen) == list(self.matrix.alternatives), "stdout positions")
            self._check_outputs(out, list(seen.values()))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, out: Path, positions: list[int]) -> None:
        summary = load_summary(out)
        require(stable_view(summary) == self.expected, "summary.json differs from the API run")
        check_summary(summary, self.t, positions, SOCIAL_POSITIONS)
        for name in FIGURES:
            require(ET.parse(out / name).getroot().tag.endswith("svg"), f"{name} is not SVG")

    def traced_op(self, rec):
        self.ops += 1
        out = self.scratch / f"op{self.ops}"
        # one interpreter start and package import for each of the two commands
        for command in ("run", "plot"):
            with rec.span("cli.import"):
                code, _ = _spawn([sys.executable, "-c", "import bandtopsis.cli"], self.root,
                                 self.scratch / f"import-{command}.txt")
            require(code == 0, "import bandtopsis.cli failed")
        with rec.span("io.parse"):
            matrix, cfg = parse_problem(self.csv)
            config = dataclasses.replace(cfg, custom_sets=(CUSTOM_SET,), seed=self.seed)
        report = replay.pipeline(matrix, config, rec)
        # emit_tables builds the summary again inside io.emit
        with rec.span("io.summary"):
            build_summary(report)
        with rec.span("io.emit"):
            paths = emit_tables(report, out)
        rec.sizes["io.emit_bytes"] = sum(p.stat().st_size for p in paths.values())
        with rec.span("charts.render"):
            for name, svg in charts_from_summary(load_summary(out)).items():
                with open(out / name, "w", encoding="utf-8", newline="") as f:
                    f.write(svg)
        return out, [int(p) for p in report.final.positions]

    def check_traced(self, result) -> None:
        out, positions = result
        try:
            self._check_outputs(out, positions)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {
    "social-cli": SocialCli,
    "synthetic-api": SyntheticApi,
    "social-deep": SocialDeep,
}
