"""Command-line entry points.

Subcommands:

* ``simulate <config.json>``            run a closed-loop scenario
* ``hil-replay <config.json> <csv>``    run with one agent replayed from a
                                        sensor capture
* ``ledger inspect <snapshot>``         verify a ledger snapshot
* ``position <file>``                   solve position fixes from a ranging
                                        file and emit them as CSV

Exit codes: 0 success, 2 configuration error, 3 invariant breach,
4 I/O error.  Log verbosity comes from the ``MASKSIM_LOG`` environment
variable (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys

from .positioning import TwrTimestamps, distance, multilaterate, time_of_flight
from .runner import InvariantBreach, inspect_snapshot, run_hil_replay, run_scenario
from .scenario import DEFAULT_ANCHORS, ConfigError, load_scenario, parse_anchors

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

log = logging.getLogger("masksim.cli")    # under -m, __name__ is "__main__"


def _setup_logging() -> None:
    level = os.environ.get("MASKSIM_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")


def _load(args):
    # ``--seed``/``--steps`` replace the file's fields before the one parse
    overrides = {name: getattr(args, name) for name in ("seed", "steps")
                 if getattr(args, name) is not None}
    try:
        return load_scenario(args.config, overrides)
    except OSError as exc:
        print(f"i/o error: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from None


def _run_and_report(fn, out_dir):
    try:
        result = fn(out_dir)
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    s = result.summary
    print(f"mode={s.mode} steps={s.steps} agents={s.n_agents}")
    print(f"final counts: {s.final_counts}")
    print(f"time-avg compliance: {s.time_avg_compliance:.4f}")
    print(f"tokens forfeited: {s.tokens_forfeited}  returned: {s.tokens_returned}")
    print(f"ledger: {s.ledger['transactions']} transactions, "
          f"{s.ledger['tips']} tips; bridge: {s.bridge}")
    if out_dir is not None:
        print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load(args)
    out_dir = args.out_dir or config.outputs.directory
    return _run_and_report(lambda out: run_scenario(config, out_dir=out), out_dir)


def cmd_hil_replay(args) -> int:
    config = _load(args)
    out_dir = args.out_dir or config.outputs.directory

    def fn(out):
        try:
            return run_hil_replay(config, args.replay, out_dir=out)
        except ValueError as exc:
            print(f"replay error: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_CONFIG) from None

    return _run_and_report(fn, out_dir)


def cmd_ledger_inspect(args) -> int:
    try:
        stats, problems = inspect_snapshot(args.snapshot)
    except OSError as exc:
        print(f"i/o error: cannot read snapshot: {exc}", file=sys.stderr)
        return EXIT_IO
    if stats:
        print(f"transactions:      {stats['transactions']}")
        print(f"tips:              {stats['tips']}")
        print(f"channels:          {stats['channels']}")
        print(f"channel messages:  {stats['channel_messages']}")
        if stats["messages_per_channel"]:
            print(f"messages/channel:  {stats['messages_per_channel'][:10]}")
    if problems:
        for p in problems:
            print(f"VIOLATION: {p}", file=sys.stderr)
        return EXIT_INVARIANT
    print("all ledger invariants hold")
    return EXIT_OK


def _parse_anchor_arg(text: str) -> list[list[float]]:
    """``x1,y1;x2,y2;...`` split into [x, y] pairs for the scenario's
    anchor rule (:func:`parse_anchors`) to check."""
    try:
        return [[float(v) for v in part.split(",")] for part in text.split(";")]
    except ValueError:
        raise ConfigError("--anchors: expected 'x1,y1;x2,y2;...'") from None


DISTANCE_HEADER = ["fix_id", "anchor_id", "distance_m"]
TIMESTAMP_HEADER = ["fix_id", "anchor_id", "t_sp", "t_rp", "t_sr", "t_rr",
                    "t_sf", "t_rf"]


def cmd_position(args) -> int:
    try:
        anchors = (parse_anchors(_parse_anchor_arg(args.anchors), "--anchors")
                   if args.anchors is not None else list(DEFAULT_ANCHORS))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: ranging file is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except csv.Error as exc:
        print(f"error: ranging file line {reader.line_num}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not rows:
        print("error: empty ranging file", file=sys.stderr)
        return EXIT_CONFIG
    header = [h.strip() for h in rows[0]]
    if header == DISTANCE_HEADER:
        timestamped = False
    elif header == TIMESTAMP_HEADER:
        timestamped = True
    else:
        print(f"error: unrecognized header {header}; expected "
              f"{DISTANCE_HEADER} or {TIMESTAMP_HEADER}", file=sys.stderr)
        return EXIT_CONFIG

    fixes: dict[str, dict[int, float]] = {}
    order: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            fix_id, anchor_id = row[0], int(row[1])
            if timestamped:
                ts = TwrTimestamps(*(float(v) for v in row[2:8]))
                d = distance(time_of_flight(ts))
            else:
                d = float(row[2])
            if not 0 <= d < math.inf:
                raise ValueError(f"distance {d} is negative or not finite")
            if not 0 <= anchor_id < len(anchors):
                raise ValueError(f"anchor_id {anchor_id} out of range")
        except (ValueError, IndexError) as exc:
            log.warning("line %d skipped: %s", lineno, exc)
            continue
        if fix_id not in fixes:
            order.append(fix_id)
        fixes.setdefault(fix_id, {})[anchor_id] = d

    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out \
            else sys.stdout
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        out.write("fix_id,x,y,rms_residual_m,iterations,converged\n")
        for fix_id in order:
            dd = fixes[fix_id]
            ids = sorted(dd)
            fix = multilaterate([anchors[i] for i in ids], [dd[i] for i in ids])
            if fix.converged:
                out.write(f"{fix_id},{fix.position[0]!r},{fix.position[1]!r},"
                          f"{fix.rms_residual!r},{fix.iterations},1\n")
            else:
                log.warning("no position fix for %s: %s", fix_id, fix.reason)
                out.write(f"{fix_id},,,,{fix.iterations},0\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masksim",
        description="smart-mask compliance simulator (ledger, controller, "
                    "escrow, epidemic, positioning, sensing)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a closed-loop scenario")
    sim.add_argument("config")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--steps", type=int, default=None)
    sim.add_argument("--out-dir", default=None)
    sim.set_defaults(fn=cmd_simulate)

    hil = sub.add_parser("hil-replay",
                         help="closed loop with one agent replayed from a "
                              "sensor capture")
    hil.add_argument("config")
    hil.add_argument("replay")
    hil.add_argument("--seed", type=int, default=None)
    hil.add_argument("--steps", type=int, default=None)
    hil.add_argument("--out-dir", default=None)
    hil.set_defaults(fn=cmd_hil_replay)

    ledger = sub.add_parser("ledger", help="ledger tooling")
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ins = ledger_sub.add_parser("inspect", help="verify a snapshot")
    ins.add_argument("snapshot")
    ins.set_defaults(fn=cmd_ledger_inspect)

    pos = sub.add_parser("position",
                         help="solve fixes from a ranging CSV "
                              "(distances or TWR timestamps)")
    pos.add_argument("file")
    pos.add_argument("--anchors", default=None,
                     help="anchor layout as 'x1,y1;x2,y2;...' "
                          "(default: 20x10 room corners)")
    pos.add_argument("--out", default=None, help="output CSV (default stdout)")
    pos.set_defaults(fn=cmd_position)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
