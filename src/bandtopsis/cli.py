"""Command-line interface.

Subcommands:
  weights  print the weight table (objective sets, custom sets, band limits)
  run      full randomized-band ranking, writing tables + summary.json
  plot     regenerate the SVG figures from a prior run's summary
  rwm      regenerate a prior run's sampled weight tables from its summary
  topsis   single-shot ranking under an explicit weight vector

Exit codes: 0 success, 1 computation error (degenerate problem),
2 usage or input/output error.

Each handler imports the modules it uses, so `plot`, `--help` and usage
errors run without loading numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .base import (
    DEFAULT_ITERATIONS,
    DEFAULT_SEED,
    ComputationError,
    ProblemFormatError,
    ValidationError,
)
from .summary import load_summary

if TYPE_CHECKING:
    from .model import RunConfig


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bandtopsis",
        description="Rank alternatives with TOPSIS over randomized per-criterion weight bands.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("input", help="problem file (.csv or .json)")
        sp.add_argument("--format", choices=["csv", "json"], default=None,
                        help="input format (default: by file extension)")

    def add_set_flags(sp):
        sp.add_argument("--no-entropy", action="store_true",
                        help="exclude the entropy weighter from the bounds")
        sp.add_argument("--no-critic", action="store_true",
                        help="exclude the CRITIC weighter from the bounds")
        sp.add_argument("--custom", action="append", default=[], metavar="W1,...,WN",
                        help="additional custom weight set (repeatable)")

    w = sub.add_parser("weights", help="print the weight table and band limits")
    add_input(w)
    add_set_flags(w)

    r = sub.add_parser("run", help="run the full pipeline and write result tables")
    add_input(r)
    add_set_flags(r)
    r.add_argument("--iterations", type=int, default=None,
                   help=f"number of sampled weight rows (default {DEFAULT_ITERATIONS})")
    r.add_argument("--seed", type=int, default=None,
                   help=f"sampling seed (default {DEFAULT_SEED})")
    r.add_argument("--out", default="out", help="output directory (default ./out)")

    pl = sub.add_parser("plot", help="draw figures from a prior run")
    pl.add_argument("summary", help="summary.json path or the run's output directory")

    rw = sub.add_parser("rwm", help="write rwm.csv and rwm_display.csv of a prior run")
    rw.add_argument("summary", help="summary.json path or the run's output directory")

    t = sub.add_parser("topsis", help="single ranking under an explicit weight vector")
    add_input(t)
    t.add_argument("--weights", required=True, metavar="W1,...,WN",
                   help="comma-separated weight vector")
    return p


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ProblemFormatError(f"cannot parse weight vector {text!r}") from None


def _merged_config(file_cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if getattr(args, "iterations", None) is not None:
        updates["iterations"] = args.iterations
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if args.no_entropy:
        updates["include_entropy"] = False
    if args.no_critic:
        updates["include_critic"] = False
    extra = tuple(tuple(_parse_vector(c)) for c in args.custom)
    if extra:
        updates["custom_sets"] = file_cfg.custom_sets + extra
    return dataclasses.replace(file_cfg, **updates)


def _cmd_weights(args) -> int:
    from .io import parse_problem
    from .model import validate_problem
    from .pipeline import _weight_rows, collect_weight_sets
    from .sampling import compute_bounds

    matrix, cfg = parse_problem(args.input, args.format)
    cfg = _merged_config(cfg, args)
    validate_problem(matrix, cfg)
    sets = collect_weight_sets(matrix, cfg)
    rows = _weight_rows(sets, compute_bounds(sets))
    name_w = max(len(name) for name, _ in rows)
    print(" " * (name_w + 2) + "  ".join(f"{i:>7s}" for i in matrix.criterion_ids()))
    for name, vec in rows:
        print(f"{name:<{name_w}}  " + "  ".join(f"{v:7.3f}" for v in vec))
    return 0


def _cmd_run(args) -> int:
    from .io import emit_tables, parse_problem
    from .pipeline import run_pipeline

    matrix, cfg = parse_problem(args.input, args.format)
    cfg = _merged_config(cfg, args)
    report = run_pipeline(matrix, cfg)
    paths = emit_tables(report, args.out)
    final = report.final
    for j, alt in enumerate(matrix.alternatives):
        print(f"{alt}: [{final.positions[j]}]")
    print(f"wrote {len(paths)} files to {Path(args.out)}")
    return 0


def _run_dir(summary_arg: str) -> Path:
    target = Path(summary_arg)
    return target if target.is_dir() else target.parent


def _cmd_plot(args) -> int:
    from .charts import charts_from_summary

    docs = charts_from_summary(load_summary(args.summary))
    out = _run_dir(args.summary)
    for name, svg in docs.items():
        with open(out / name, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
    print(f"wrote {len(docs)} figures to {out}")
    return 0


def _cmd_rwm(args) -> int:
    summary = load_summary(args.summary)  # a malformed summary exits before numpy loads
    from .io import emit_rwm

    out = _run_dir(args.summary)
    paths = emit_rwm(summary, out)
    print(f"wrote {len(paths)} files to {out}")
    return 0


def _cmd_topsis(args) -> int:
    from .io import parse_problem
    from .model import validate_problem
    from .topsis import topsis_run
    from .weighting import normalize_custom_set

    matrix, _ = parse_problem(args.input, args.format)
    validate_problem(matrix)
    raw = _parse_vector(args.weights)
    try:
        w = normalize_custom_set(raw, matrix.n, name="--weights")
    except ValueError as e:  # a bad flag value is a usage error, as in `run --custom`
        raise ProblemFormatError(str(e)) from None
    result = topsis_run(matrix, w.weights)
    order = sorted(range(matrix.m), key=lambda j: result.ranks[j])
    print(f"{'rank':>4}  {'alternative':<16} closeness")
    for j in order:
        print(f"{result.ranks[j]:>4}  {matrix.alternatives[j]:<16} {result.closeness[j]:.6f}")
    return 0


_COMMANDS = {
    "weights": _cmd_weights,
    "run": _cmd_run,
    "plot": _cmd_plot,
    "rwm": _cmd_rwm,
    "topsis": _cmd_topsis,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"error: cannot open {e.filename}", file=sys.stderr)
        return 2
    except (ProblemFormatError, ValidationError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ComputationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory (try fewer iterations)", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
