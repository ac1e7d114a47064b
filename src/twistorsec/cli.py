"""Command-line front end: verification suites and energy/degree tables.

The files it reads and writes are read and laid out by ``report``; this
module parses the arguments, computes the flat-demo values and dispatches.

Output is deterministic for a fixed seed and is written atomically, so a
failing run never leaves a partial report behind.  Exit status is 0 exactly
when every executed check passes; failing suite names go to stderr.
"""

from __future__ import annotations

import argparse
import random
import reprlib
import sys

from . import flat_model as fm
from .constants import REALITY_SIGN
from .report import (FORMATS, RunConfig, atomic_write, failing_suites,
                     flat_demo_report, format_value, hyperhol_degree_report,
                     load_vhs_dataset, verify_report, vhs_energy_report)
from .scalars import QQi
from .suites import SUITES, run_suites


class _Once(argparse.Action):
    """Store an option's value; giving the option twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


def _add_output_flags(sub):
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.add_argument("--format", choices=FORMATS, default=None,
                     help="output format (default json)")


def _emit(text: str, out_path):
    if out_path:
        atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistorsec",
        description="exact verification runs for the section/energy toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run named verification suites")
    verify.add_argument("--suite", action="append", default=None,
                        metavar="NAME", help="suite to run (repeatable; "
                        "default: all suites)")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--order", type=int, default=None,
                        help="series truncation order")
    verify.add_argument("--modes", type=int, default=None,
                        help="Fourier mode bound")
    verify.add_argument("--rank", type=int, default=None, help="rank bound")
    verify.add_argument("--cases", type=int, default=None,
                        help="random cases per suite")
    verify.add_argument("--dataset", action=_Once, default=None,
                        metavar="PATH", help="block dataset file")
    verify.add_argument("--config", default=None,
                        help="JSON run configuration file")
    _add_output_flags(verify)

    table = subs.add_parser("vhs-energy",
                            help="energy/degree table for a block dataset")
    table.add_argument("--dataset", action=_Once, default=None,
                       help="dataset file (default: shipped samples)")
    _add_output_flags(table)

    degrees = subs.add_parser("hyperhol-degree",
                              help="pullback degrees for paired dataset entries")
    degrees.add_argument("--dataset", action=_Once, default=None,
                         help="dataset file (default: shipped samples)")
    _add_output_flags(degrees)

    demo = subs.add_parser("flat-demo",
                           help="energy bookkeeping on one random flat section")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--blocks", type=int, default=2,
                      help="number of 4-dimensional blocks")
    _add_output_flags(demo)
    return parser


def _verify_config(args) -> RunConfig:
    doc = (RunConfig.from_file(args.config) if args.config else RunConfig()).to_json()
    if args.suite is not None:
        doc["suites"] = args.suite
    elif not doc["suites"]:
        doc["suites"] = sorted(SUITES)
    overrides = {"seed": args.seed, "order": args.order,
                 "mode_bound": args.modes, "rank_bound": args.rank,
                 "cases": args.cases,
                 "datasets": None if args.dataset is None else [args.dataset],
                 "out_format": args.format, "out_path": args.out}
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    return RunConfig.from_json(doc)


def _cmd_verify(args) -> int:
    config = _verify_config(args)
    records = run_suites(config)
    _emit(verify_report(config, records), config.out_path)
    bad = failing_suites(records)
    if bad:
        print("failing suites: " + " ".join(bad), file=sys.stderr)
        return 1
    return 0


def _cmd_vhs_energy(args) -> int:
    _emit(vhs_energy_report(args.format, load_vhs_dataset(args.dataset)), args.out)
    return 0


def _cmd_hyperhol_degree(args) -> int:
    _emit(hyperhol_degree_report(args.format, load_vhs_dataset(args.dataset)), args.out)
    return 0


def _cmd_flat_demo(args) -> int:
    rng = random.Random(args.seed)
    s = fm.random_section(rng, args.blocks)
    v = fm.random_section(rng, args.blocks)
    field = fm.fundamental_field(s)
    moment = fm.d_energy(s, v) == QQi(0, 1) * fm.omega0_killing(s, field, v)
    reality = (fm.energy(fm.real_involution(s)).conjugate()
               == REALITY_SIGN * fm.energy(s))
    doc = {
        "seed": args.seed,
        "blocks": args.blocks,
        "section": s.to_json(),
        "energy": format_value(fm.energy(s)),
        "energy_infinity": format_value(fm.energy_infinity(s)),
        "rotation_field": field.to_json(),
        "moment_map_identity": moment,
        "reality_identity": reality,
    }
    _emit(flat_demo_report(args.format, doc), args.out)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "vhs-energy": _cmd_vhs_energy,
    "hyperhol-degree": _cmd_hyperhol_degree,
    "flat-demo": _cmd_flat_demo,
}


def _describe(err) -> str:
    """The message of an error, with any file names of an OSError shortened."""
    if not isinstance(err, OSError) or err.filename is None:
        return str(err)
    names = (reprlib.repr(name) for name in (err.filename, err.filename2)
             if name is not None)
    return f"[Errno {err.errno}] {err.strerror}: {' -> '.join(names)}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {_describe(err)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
