"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (corrupt chain, undecodable frame,
internal error), 2 unusable arguments or configuration.

Only ``run`` imports the harness and the scenario config, and with them the
simulator; ``frame decode`` adds only ``metrics`` for its output, and
``ledger verify`` loads the chain layers alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .frames import DIR_UP, EncryptedJoinAccept, JoinRequest, MalformedFrameError, parse_frame
from .ledger import ChainIntegrityError, load_chain


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loraledger",
        description="Dual-ledger LoRa network simulator and chain tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a canned load experiment")
    run_p.add_argument("--experiment", type=int, choices=(1, 2, 3), required=True)
    run_p.add_argument("--devices", type=int, help="total end devices")
    run_p.add_argument("--mode", choices=("edge", "traditional"))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", required=True, help="output directory for CSVs and summary")
    run_p.add_argument(
        "--compare",
        action="store_true",
        help="run both modes and write a comparison report",
    )
    run_p.add_argument("--config", dest="config_file", help="key=value config file")
    run_p.add_argument("--duration", type=int, dest="duration_s", help="seconds of load")
    run_p.add_argument(
        "--warmup", type=int, dest="warmup_s", help="seconds excluded from steady-state stats"
    )
    run_p.add_argument(
        "--time-compress",
        type=int,
        dest="time_compress",
        help="divide all device timers by this factor",
    )

    ledger_p = sub.add_parser("ledger", help="chain file tools")
    ledger_sub = ledger_p.add_subparsers(dest="ledger_command", required=True)
    verify_p = ledger_sub.add_parser("verify", help="validate a chain dump end to end")
    verify_p.add_argument("file")

    frame_p = sub.add_parser("frame", help="frame tools")
    frame_sub = frame_p.add_subparsers(dest="frame_command", required=True)
    decode_p = frame_sub.add_parser("decode", help="pretty-print a hex-encoded frame")
    decode_p.add_argument("hex")

    return parser


def _check_out_dir(path: str) -> None:
    """Refuse an output path that cannot become a directory, before anything runs."""
    from .scenario import ConfigError

    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError("--out %s: %s exists and is not a directory" % (path, existing))


def _cmd_run(args: argparse.Namespace) -> int:
    from .scenario import ConfigError

    try:
        return _run(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    from .harness import compare_modes, run_experiment
    from .metrics import report_text
    from .scenario import build_config, parse_config_file

    _check_out_dir(args.out)
    file_overrides = parse_config_file(args.config_file) if args.config_file else {}
    flag_overrides = {
        "experiment": args.experiment,
        "n_devices": args.devices,
        "mode": args.mode,
        "seed": args.seed,
        "duration_s": args.duration_s,
        "warmup_s": args.warmup_s,
        "time_compress": args.time_compress,
    }
    config = build_config(file_overrides, flag_overrides)
    if args.compare:
        result = compare_modes(config)
        report = result.comparison
    else:
        result = run_experiment(config)
        report = result.summary
    result.emit(args.out)
    print(report_text(report), end="")
    print("results written to %s" % args.out)
    return 0


def _cmd_ledger_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print("cannot read %s: %s" % (args.file, exc), file=sys.stderr)
        return 2
    try:
        ledger, directory = load_chain(data)
    except ChainIntegrityError as exc:
        print("INVALID: %s" % exc)
        return 1
    tx_count = sum(len(block.txs) for block in ledger.blocks)
    print(
        "OK: %s chain, height %d, %d transactions, %d known entities"
        % (ledger.kind, ledger.height, tx_count, len(directory.entities()))
    )
    return 0


def _cmd_frame_decode(args: argparse.Namespace) -> int:
    from .metrics import report_text

    try:
        data = bytes.fromhex(args.hex)
    except ValueError:
        print("not a hex string: %r" % args.hex, file=sys.stderr)
        return 2
    try:
        frame = parse_frame(data)
    except MalformedFrameError as exc:
        print("undecodable frame: %s" % exc)
        return 1
    if isinstance(frame, JoinRequest):
        fields = {
            "type": "join request",
            "app_eui": frame.app_eui.hex(),
            "dev_eui": frame.dev_eui.hex(),
            "dev_nonce": frame.dev_nonce.hex(),
            "mic": frame.mic.hex(),
        }
    elif isinstance(frame, EncryptedJoinAccept):
        fields = {
            "type": "join accept (encrypted under the device's root key)",
            "cipher": frame.cipher.hex(),
        }
    else:
        fields = {
            "type": "data %s" % ("uplink" if frame.direction == DIR_UP else "downlink"),
            "dev_addr": frame.dev_addr.hex(),
            "fcnt": frame.fcnt,
            "fport": frame.fport,
            "payload (%d bytes)" % len(frame.payload): frame.payload.hex(),
            "mic": frame.mic.hex(),
        }
    print(report_text(fields), end="")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "ledger":
            return _cmd_ledger_verify(args)
        if args.command == "frame":
            return _cmd_frame_decode(args)
    except Exception:  # pragma: no cover - safety net for the console script
        traceback.print_exc()
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
