"""Command-line front end.

Eight verbs cover the protocol surface: decompose, keygen-common,
keygen-almost, keygen-correlated, verify-rsbs, bounds, simulate, and
report. All file I/O uses the structured text formats; --format selects
human-readable text or the structured document on stdout/--out.

Exit codes: 0 when every checked bound holds (or the verb checks none),
2 when a checked bound is violated, 3 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import formats
from .common import alice_keygen, bob_keygen, engine_for
from .errors import StopkeyError
from .harness import (
    PLANS,
    ExperimentConfig,
    agreed,
    bound_line_text,
    bounds_dashboard,
    run_simulation,
    transcript_label,
)
from .keylaws import verify_rsbs
from .randomsource import RandomSource


def _seed_value(text: str) -> int | str:
    stripped = text.lstrip("-")
    return int(text) if stripped.isdigit() and stripped else text


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_output_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="write output to this file instead of stdout")
    sp.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="human-readable text or the structured document format",
    )


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are input errors: exit 3, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _decompose_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--dist", required=True)
    sp.add_argument("--w-max", type=int, default=8)


def _keygen_common_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--dist", required=True)
    sp.add_argument("--role", choices=("alice", "bob"), required=True)
    sp.add_argument("--x", required=True, help="the shared symbol's label")
    sp.add_argument("--w", type=int, help="round index (bob only)")
    sp.add_argument("--seed", type=_seed_value, default=0)


def _keygen_almost_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--joint", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument(
        "--hash", dest="hash_spec", help="fixed:FILE or random:SEED (default: derandomized)"
    )
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=_seed_value, default=0)
    sp.set_defaults(reconciler=None)


def _keygen_correlated_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--joint", required=True)
    sp.add_argument(
        "--reconciler", help="identity, constant, or hashmap:BITS (default: identity)"
    )
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=_seed_value, default=0)
    sp.set_defaults(hash_spec=None)


def _verify_rsbs_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--law", required=True)
    sp.add_argument("--max-depth", type=int, default=64)
    sp.add_argument("--tail-slack", help="allowed tail mass, as a rational")


def _bounds_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--dist")
    sp.add_argument("--joint")
    sp.add_argument("--m", type=int, default=1)


def _run_args(sp: argparse.ArgumentParser, trials: int) -> None:
    """simulate and report: the same options, different default trials."""
    sp.add_argument("--dist")
    sp.add_argument("--joint")
    sp.add_argument(
        "--protocol", choices=tuple(PLANS),
        help="default: common for --dist, almost or correlated for --joint",
    )
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--w-max", type=int, default=30)
    sp.add_argument("--trials", type=int, default=trials)
    sp.add_argument("--seed", type=_seed_value, default=0)
    sp.add_argument("--reconciler")
    sp.add_argument("--hash", dest="hash_spec")


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser. Every verb is registered, so the top-level help,
    usage and choice errors never change; only ``only``'s options are
    added when it is given (None adds every verb's)."""
    parser = _Parser(
        prog="stopkey",
        description="secret key agreement via randomly stopped bit sequences",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, add_args, _) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        if only is None or verb == only:
            add_args(sp)
            _add_output_args(sp)
    return parser


def _config(args, protocol: str, path: str, **extra) -> ExperimentConfig:
    """The run simulate, report or a keygen verb describes; the config
    checks every option."""
    return ExperimentConfig(
        protocol=protocol,
        source_path=path,
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        reconciler=args.reconciler,
        hash_spec=args.hash_spec,
        **extra,
    )


def _source_args(args: argparse.Namespace) -> tuple[str, str]:
    if bool(args.dist) == bool(args.joint):
        raise StopkeyError("exactly one of --dist/--joint is required")
    if args.dist:
        return "dist", args.dist
    return "joint", args.joint


def _cmd_decompose(args) -> int:
    p = formats.load_distribution(args.dist)
    doc = formats.decomposition_document(engine_for(p), args.w_max)
    if args.format == "structured":
        _emit(formats.dumps(doc), args.out)
        return 0
    lines = [f"alphabet: {' '.join(doc['alphabet'])}"]
    for rnd in doc["rounds"]:
        words = " ".join(f'{label}="{code}"' for label, code in rnd["codewords"].items())
        lines.append(f"w={rnd['w']} weight={rnd['weight']} codewords: {words}")
    lines.append(f"tail: {doc['tail']}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_keygen_common(args) -> int:
    p = formats.load_distribution(args.dist)
    x = p.index(args.x)
    if args.role == "alice":
        if args.w is not None:
            raise StopkeyError("--w is for --role bob only")
        key, w = alice_keygen(p, x, RandomSource(args.seed).substream("keygen-common"))
    else:
        if args.w is None:
            raise StopkeyError("--w is required for --role bob")
        w = args.w
        key = bob_keygen(p, x, w)
    if args.format == "structured":
        _emit(formats.dumps({"key": key, "w": w}), args.out)
    else:
        _emit(f"key={key} w={w}\n", args.out)
    return 0


def _cmd_keygen_trials(args) -> int:
    """keygen-almost and keygen-correlated: the trials simulate plays."""
    cfg = _config(args, args.verb[len("keygen-"):], args.joint)
    plan = cfg.plan()
    runs = list(plan.runs())
    errors = sum(not agreed(run) for run in runs)
    if args.format == "structured":
        doc = {
            "protocol": cfg.protocol,
            "m": cfg.m,
            **plan.header,
            "trials": cfg.trials,
            "errors": errors,
            "runs": [formats.run_record(*run) for run in runs],
        }
        _emit(formats.dumps(doc), args.out)
        return 0
    lines = [
        f"trial={i} transcript={transcript_label(t)} "
        f"alice={a!r} bob={b!r} ideal={ideal!r}"
        for i, (t, a, b, ideal) in enumerate(runs)
    ]
    rate = errors / cfg.trials if cfg.trials else 0.0
    lines.append(f"trials={cfg.trials} errors={errors} error_rate={rate:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify_rsbs(args) -> int:
    law = formats.parse_key_law(formats.read_object(args.law))
    slack = None if args.tail_slack is None else formats.parse_rational(args.tail_slack)
    verdict = verify_rsbs(law, max_depth=args.max_depth, tail_slack=slack)
    if args.format == "structured":
        _emit(formats.dumps(formats.rsbs_verdict_document(verdict)), args.out)
    else:
        lines = [
            f"valid: {verdict.valid}",
            f"checked prefixes: {verdict.checked_prefixes}",
            f"tail: {verdict.tail}",
        ]
        for v in verdict.violations:
            lines.append(
                f"violation at position {v.position} prefix {v.prefix!r}: "
                f"P(0)={v.p_zero} P(1)={v.p_one}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict.valid else 2


def _cmd_bounds(args) -> int:
    _, path = _source_args(args)
    dash = bounds_dashboard(formats.load_source(path), args.m)
    if args.format == "structured":
        _emit(formats.dumps(dash), args.out)
        return 0
    lines = [
        f"p = {dash['p_agree']}  I(X;Y) = {dash['mutual_information']:.10g}",
    ]
    if dash["conditional_entropy"] is not None:
        lines.append(
            f"H(X|X=Y) = {dash['conditional_entropy']:.10g}"
            f"  kappa = {dash['kappa']:.10g}"
        )
    lines.extend(bound_line_text(line) for line in dash["lines"])
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    kind, path = _source_args(args)
    protocol = args.protocol
    if protocol is None:
        if kind == "dist":
            protocol = "common"
        else:
            protocol = "correlated" if args.reconciler else "almost"
    report = run_simulation(_config(args, protocol, path, w_max=args.w_max))
    text = report.to_json() if args.format == "structured" else report.render_text()
    _emit(text, args.out)
    return 2 if report.violated else 0


# verb -> (help, options, handler), in the order help lists them
_VERBS = {
    "decompose": ("dyadic decomposition dump", _decompose_args, _cmd_decompose),
    "keygen-common": ("one common-randomness key", _keygen_common_args, _cmd_keygen_common),
    "keygen-almost": ("hash-check protocol trials", _keygen_almost_args, _cmd_keygen_trials),
    "keygen-correlated": (
        "two-stage pipeline trials", _keygen_correlated_args, _cmd_keygen_trials
    ),
    "verify-rsbs": ("check a key-law file", _verify_rsbs_args, _cmd_verify_rsbs),
    "bounds": ("bound lines for a source", _bounds_args, _cmd_bounds),
    "simulate": (
        "Monte Carlo run with bound checks",
        functools.partial(_run_args, trials=10000),
        _cmd_simulate,
    ),
    "report": (
        "full report (bounds, exact sections, optional trials)",
        functools.partial(_run_args, trials=0),
        _cmd_simulate,
    ),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading verb name is the subcommand argparse dispatches to, so only
    # its options are built; anything else builds them all
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = _build_parser(verb).parse_args(argv)
    try:
        return _VERBS[args.verb][2](args)
    except (StopkeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
