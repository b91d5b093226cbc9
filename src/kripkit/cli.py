"""Command-line entry point.

Verbs cover the whole workbench: frame validation, formula checking,
translation, the two frame constructions, reduction search, enumeration, and
the named experiments.  Exit codes: 0 all checks passed, 1 a check failed
(with a printed witness), 2 usage or input error.

One table, `_VERBS`, gives each verb its help line and the function that
adds its arguments and handler to a parser.  The parser of a call that
starts with a verb holds that verb's subparser alone; any other call gets
every verb.  Either way the messages are the full parser's: it hands
everything after the verb to that verb's subparser, and its usage line
shows only `command`.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import syntax
from .enumeration import EnumerationConfig, enumerate_frames
from .frames import (
    FRAME_TYPES,
    MAX_POINTS,
    Frame,
    frame_to_json_dict,
    frames_to_json_lines,
    validate_frame,
)
from .functors import sigma, skeleton
from .morphisms import enumerate_reductions
from .semantics import LANGUAGE, countermodel
from .workbench import (
    experiment_ids,
    load_frame,
    run_all,
    run_experiment,
    save_frame,
)

_FORCED_LETTER_CAP = 8
_WITNESS_DISPLAY_CAP = 5


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _load(args) -> Frame:
    return load_frame(args.frame, raw=args.raw)


def _cmd_check_frame(args) -> int:
    frame = load_frame(args.frame, raw=True)
    report = validate_frame(frame)
    if args.json:
        _print_json(report.to_json_dict())
    elif report.ok:
        print("ok: all frame conditions hold")
    else:
        for violation in report.violations:
            names = ", ".join(frame.points[i] for i in violation.witness)
            print(f"violation {violation.condition} at ({names}): {violation.detail}")
    return 0 if report.ok else 1


def _cmd_validate_formula(args) -> int:
    frame = _load(args)
    phi = syntax.parse(args.formula, LANGUAGE[frame.kind])
    caps = {}
    if args.force:
        caps = {"letter_cap": _FORCED_LETTER_CAP, "point_cap": MAX_POINTS}
    found = countermodel(frame, phi, **caps)
    if found is None:
        if args.json:
            _print_json({"valid": True, "formula": syntax.print_formula(phi)})
        else:
            print(f"valid: {syntax.print_formula(phi)}")
        return 0
    if args.json:
        _print_json({"valid": False, "countermodel": found.to_json_dict()})
    else:
        print(f"invalid: {syntax.print_formula(phi)}")
        print(found.describe())
    return 1


def _cmd_translate(args) -> int:
    phi = syntax.parse(args.formula, syntax.INT)
    translated = syntax.godel_translate(phi)
    payload = {
        "input": syntax.print_formula(phi),
        "godel": syntax.print_formula(translated),
        "star": syntax.star_translate(phi),
    }
    if args.json:
        _print_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _emit_frame(frame, args, extra: dict | None = None) -> None:
    if args.out:
        save_frame(frame, args.out)
        return
    if args.json:
        _print_json({"frame": frame_to_json_dict(frame), **(extra or {})})
    else:
        _print_json(frame_to_json_dict(frame))


def _cmd_skeleton(args) -> int:
    quotient, projection = skeleton(_load(args))
    _emit_frame(quotient, args, {"projection": projection.to_json_dict()})
    return 0


def _cmd_sigma(args) -> int:
    _emit_frame(sigma(_load(args)), args)
    return 0


def _cmd_morphisms(args) -> int:
    source = load_frame(args.source, raw=args.raw)
    target = load_frame(args.target, raw=args.raw)
    reductions = enumerate_reductions(source, target)
    if args.json:
        _print_json(
            {
                "source": frame_to_json_dict(source),
                "target": frame_to_json_dict(target),
                "reductions": [list(f.image) for f in reductions],
            }
        )
    else:
        print(f"{len(reductions)} reduction(s)")
        for f in reductions:
            print(f"  {f.describe()}")
    return 0


def _cmd_enumerate(args) -> int:
    config = EnumerationConfig(args.kind, args.bound, frozenset(args.filter))
    frames_found = enumerate_frames(config)
    if args.json:
        _print_json([frame_to_json_dict(f) for f in frames_found])
    else:
        sys.stdout.write(frames_to_json_lines(frames_found))
    return 0


def _cmd_experiment(args) -> int:
    if args.id == "all":
        reports = run_all(args.bound)
    else:
        reports = [run_experiment(args.id, args.bound)]
    if args.json:
        payload = [r.to_json_dict() for r in reports]
        _print_json(payload if args.id == "all" else payload[0])
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{status} {report.id}: {report.instances} instances, "
                f"{report.millis} ms"
            )
            shown = report.failures[:_WITNESS_DISPLAY_CAP]
            for failure in shown:
                print(f"  {failure}")
            hidden = len(report.failures) - len(shown)
            if hidden:
                print(f"  ... and {hidden} more")
    return 0 if all(r.passed for r in reports) else 1


def _add_check_frame(p) -> None:
    p.add_argument("frame", help="path to a frame JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_check_frame)


def _add_validate_formula(p) -> None:
    p.add_argument("frame", help="path to a frame JSON file")
    p.add_argument("formula", help="formula text in the frame's language")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.add_argument(
        "--force",
        action="store_true",
        help="lift the letter and point caps on the valuation search",
    )
    p.set_defaults(handler=_cmd_validate_formula)


def _add_translate(p) -> None:
    p.add_argument("formula", help="intuitionistic formula text")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_translate)


def _add_skeleton(p) -> None:
    p.add_argument("frame", help="path to an ms4 frame JSON file")
    p.add_argument("--json", action="store_true", help="include the projection classes")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.add_argument("-o", "--out", help="write the resulting frame to this file")
    p.set_defaults(handler=_cmd_skeleton)


def _add_sigma(p) -> None:
    p.add_argument("frame", help="path to an int frame JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.add_argument("-o", "--out", help="write the resulting frame to this file")
    p.set_defaults(handler=_cmd_sigma)


def _add_morphisms(p) -> None:
    p.add_argument("source", help="path to the source frame JSON file")
    p.add_argument("target", help="path to the target frame JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--raw", action="store_true", help="skip frame validation on load")
    p.set_defaults(handler=_cmd_morphisms)


def _add_enumerate(p) -> None:
    p.add_argument("--kind", choices=FRAME_TYPES, required=True)
    p.add_argument("--bound", type=int, default=3, help="largest point count (default 3)")
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="NAME",
        help="keep only frames passing this named filter (repeatable)",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON array instead")
    p.set_defaults(handler=_cmd_enumerate)


def _add_experiment(p) -> None:
    p.add_argument(
        "id",
        metavar="id",
        help="experiment id or 'all': " + ", ".join(experiment_ids()),
    )
    p.add_argument("--bound", type=int, default=None, help="override the size bound")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=_cmd_experiment)


# Each verb: its help line in the command list, and the function that adds
# its arguments and handler to a parser.
_VERBS = {
    "check-frame": ("report which frame conditions a file violates", _add_check_frame),
    "validate-formula": ("search a frame for a countermodel", _add_validate_formula),
    "translate": ("print the boxed and predicate translations", _add_translate),
    "skeleton": ("quotient an ms4 frame by its r-clusters", _add_skeleton),
    "sigma": ("expand an int frame to an ms4 frame", _add_sigma),
    "morphisms": ("enumerate the reductions between two frames", _add_morphisms),
    "enumerate": ("list frames up to isomorphism, one JSON per line", _add_enumerate),
    "experiment": ("run a named experiment (or all of them)", _add_experiment),
}


@cache
def _build_parser(verbs: tuple[str, ...]) -> argparse.ArgumentParser:
    """The command-line parser with a subparser for each of `verbs`, built
    once per process and tuple.  Parsing leaves it unchanged: argparse
    copies the `--filter` default before appending to it."""
    parser = argparse.ArgumentParser(
        prog="kripkit",
        description="finite-model workbench for monadic intuitionistic and modal logics",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in verbs:
        help, add_arguments = _VERBS[name]
        add_arguments(sub.add_parser(name, help=help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verbs = (argv[0],) if argv and argv[0] in _VERBS else tuple(_VERBS)
    try:
        args = _build_parser(verbs).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
