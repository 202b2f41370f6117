"""Command-line interface.

Exit codes: 0 = no violations, 2 = a violation was found (for a campaign
also a slice-identity, peel-contract or resolution failure), 3 = an
inconclusive verdict remained at the precision cap
(quality.DEFAULT_PRECISION_CAP, 2^14 bits), 4 = an input or resource error
(a malformed instance or generator config, a parameter outside its domain
such as --precision outside [16, 2^14], --precision given to certify
--campaign, a cap exceeded, any PaircertError; an unwritable output path,
any OSError), reported as one line on stderr. A rational option (--t,
--K, --x, --gamma) that does not parse as a fraction with a nonzero
denominator, an empty one included, is such an input error. A usage error
(an unknown option, an integer option that is not an integer, a missing
required option, certify without --instance or --campaign) also exits 4,
after argparse's usage text and one error line; --help exits 0.
--precision overrides precision_bits in the params of every instance a
command loads or gen writes; a campaign's instances take theirs from the
generator.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .anatomy import (
    count_chain_report,
    divisor_chain_report,
    mertens_product,
    rankin_sum,
    ratio_to_log_power,
)
from .arith import Interval, fraction_str, interval_json
from .errors import InvalidParameter, PaircertError
from .compress import slice_system, verify_slice_identities
from .diagonal import (
    bilinear_check,
    concentrate,
    decay_hypothesis_report,
    diagonal_measure,
    find_center,
    peel,
)
from .harness import (
    GeneratorConfig,
    canonical_json,
    certify_campaign,
    generate_instance,
    instance_document,
    load_instance,
    read_json,
    write_campaign_csv,
)
from .model import _check_precision
from .quality import (
    DEGENERATE_EMPTY,
    HOLDS,
    INCONCLUSIVE,
    PRECONDITION_FAILED,
    VIOLATED,
    build_edge_set,
    main_bound_check,
)
from .resolution import resolution_check

# the exit code of one verdict: check, certify --instance and resolve
_EXIT_CODES = {
    HOLDS: 0, DEGENERATE_EMPTY: 0, VIOLATED: 2, PRECONDITION_FAILED: 2, INCONCLUSIVE: 3
}


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _override(args, params):
    if args.precision is not None:
        params = replace(params, precision_bits=args.precision)
    return params


def _rational(text: str | None, option: str, default=None):
    """The rational an option spells, or default when it is absent."""
    if text is None:
        return default
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter(f"{option} is not a rational number: {text!r}") from None


def _load(args):
    system, params = load_instance(args.instance)
    return system, _override(args, params)


def _interval_json(iv: Interval) -> dict:
    lo, hi = interval_json(iv)
    return {"lo": lo, "hi": hi, "precision_bits": iv.precision_bits}


def _cmd_gen(args) -> int:
    config = GeneratorConfig.from_json(read_json(args.config))
    system, params = generate_instance(config, args.index)
    doc = instance_document(system, _override(args, params), auto_edges=args.auto_edges)
    Path(args.out).write_text(canonical_json(doc))
    return 0


def _cmd_edges(args) -> int:
    system, params = _load(args)
    t = _rational(args.t, "--t", params.t)
    K = _rational(args.K, "--K", params.K)
    edges = build_edge_set(system.psi, system.theta, t, K, literal_lcm=args.literal_lcm)
    _emit({"t": str(t), "K": str(K), "edges": sorted(list(e) for e in edges)}, args.out)
    return 0


def _cmd_check(args) -> int:
    system, params = _load(args)
    report = main_bound_check(system, params, verify_preconditions=args.verify)
    _emit(report.to_json(), args.out)
    return _EXIT_CODES[report.verdict]


def _cmd_compress(args) -> int:
    system, params = _load(args)
    s = slice_system(system, args.p, args.i, args.j)
    slice_doc = instance_document(s.tilde, params)
    if args.out:
        Path(args.out).write_text(canonical_json(slice_doc))
    payload = {"slice": {"p": s.p, "i": s.i, "j": s.j}, "instance": slice_doc}
    rc = 0
    if args.verify:
        rep = verify_slice_identities(system, s, params.t)
        payload["identities"] = rep.to_json()
        if not rep.all_hold:
            rc = 2
    sys.stdout.write(json.dumps(payload, indent=2, default=str) + "\n")
    return rc


def _cmd_diagonal(args) -> int:
    system, params = _load(args)
    dm = diagonal_measure(system, system.edges, args.p)
    center = find_center(dm)
    doc = dm.to_json()
    doc["center"] = {"k": center.k, "tail_mass": fraction_str(center.tail_mass)}
    doc["bilinear"] = [
        {
            "i": c.i,
            "j": c.j,
            "m": fraction_str(c.mass),
            "bound": (
                _interval_json(c.bound) if isinstance(c.bound, Interval) else fraction_str(c.bound)
            ),
            "verdict": c.verdict,
        }
        for c in bilinear_check(dm, params)
    ]
    if args.decay:
        rep = decay_hypothesis_report(dm, params)
        doc["decay"] = {
            "lambda_in_range": rep.lambda_in_range,
            "c1_lower_ok": rep.c1_lower_ok,
            "hypothesis_holds": rep.hypothesis_holds,
            "tail_ratio": _interval_json(rep.tail_ratio) if rep.tail_ratio else None,
        }
    _emit(doc, args.out)
    return 0


def _cmd_concentrate(args) -> int:
    system, params = _load(args)
    res = concentrate(system, system.edges, params)
    _emit(res.to_json(), args.out)
    return 0


def _cmd_peel(args) -> int:
    system, params = _load(args)
    result = peel(system, system.edges, params)
    doc = {
        "edges": sorted(list(e) for e in result.edges),
        "steps": result.steps,
    }
    if args.trace:
        Path(args.trace).write_text(
            json.dumps([st.to_json() for st in result.trace], indent=2) + "\n"
        )
        doc["trace"] = args.trace
    _emit(doc, args.out)
    return 0


def _cmd_resolve(args) -> int:
    system, params = _load(args)
    gamma = _rational(args.gamma, "--gamma")
    report = resolution_check(
        system,
        system.edges,
        args.N,
        params,
        majorant_gamma=gamma,
        compute_bridged=args.bridged,
        compute_ratio=args.ratio,
    )
    _emit(report.to_json(), args.out)
    return _EXIT_CODES[report.verdict]


def _cmd_anatomy(args) -> int:
    from .model import MultiplicativeFunction

    f = MultiplicativeFunction.totient()
    gamma = _rational(args.gamma, "--gamma", Fraction(2))
    t = _rational(args.t, "--t", Fraction(10))
    K = _rational(args.K, "--K", Fraction(1))
    x = _rational(args.x, "--x", Fraction(100))
    if args.operation == "count":
        doc = count_chain_report(x, t, K, gamma).to_json()
        doc.update({"x": str(x), "t": str(t), "K": str(K)})
    elif args.operation == "rankin":
        doc = {
            "x": str(x),
            "t": str(t),
            "gamma": str(gamma),
            "rankin_sum": fraction_str(rankin_sum(x, t, gamma)),
        }
    elif args.operation == "divisor":
        M = 12 if args.M is None else args.M
        doc = divisor_chain_report(M, t, K, gamma, f).to_json()
        doc.update({"M": M, "t": str(t), "K": str(K)})
    else:  # mertens
        bits = 256 if args.precision is None else args.precision
        iv = ratio_to_log_power(t, gamma, bits)
        doc = {
            "t": str(t),
            "gamma": str(gamma),
            "product": fraction_str(mertens_product(t, gamma)),
            "ratio_to_log_power": _interval_json(iv),
        }
    _emit(doc, args.out)
    return 0


def _cmd_certify(args) -> int:
    if args.instance:
        return _cmd_check(args)
    if args.precision is not None:
        raise InvalidParameter(
            "certify --campaign takes precision_bits from the generator "
            "config's params, not from --precision"
        )
    for path in (args.out, args.csv):  # fail before the campaign, not after it
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory", str(Path(path).parent))
    config = GeneratorConfig.from_json(read_json(args.campaign))
    report = certify_campaign(config, args.count, out_dir=args.out_dir)
    _emit(report.to_json(), args.out)
    if args.csv:
        write_campaign_csv(report, args.csv)
    if (
        report.violated
        or report.slice_identity_failures
        or report.peel_contract_failures
        or report.resolution_failures
    ):
        return 2
    if report.inconclusive:
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 4, the input-error code;
    its subparsers are made from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paircert",
        description="Exact-arithmetic certifier for weighted integer-pair systems.",
    )
    parser.add_argument(
        "--precision", type=int, default=None, help="override precision_bits"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--auto-edges", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("edges", help="emit the (t, K) edge set")
    p.add_argument("--instance", required=True)
    p.add_argument("--t", default=None)
    p.add_argument("--K", default=None)
    p.add_argument("--literal-lcm", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("check", help="certify the main inequality")
    p.add_argument("--instance", required=True)
    p.add_argument("--verify", action="store_true", help="verify preconditions first")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compress", help="slice out one prime at a valuation cell")
    p.add_argument("--instance", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None, help="write the slice as an instance file")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("diagonal", help="cell measure, center, bilinear checks")
    p.add_argument("--instance", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--decay", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("concentrate", help="center N and the filtered E*")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_concentrate)

    p = sub.add_parser("peel", help="peel to the proportional-neighborhood core")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_peel)

    p = sub.add_parser("resolve", help="structured-set resolution checks")
    p.add_argument("--instance", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--gamma", default=None, help="rational gamma for the majorant")
    p.add_argument("--bridged", action="store_true", help="majorant at gamma = e^(40C)")
    p.add_argument("--ratio", action="store_true", help="report the headline ratio")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("anatomy", help="exact anatomy chains")
    p.add_argument("operation", choices=["count", "rankin", "divisor", "mertens"])
    p.add_argument("--x", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--K", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_anatomy)

    p = sub.add_parser("certify", help="certify one instance or a campaign")
    p.add_argument("--instance", default=None)
    p.add_argument("--campaign", default=None, help="generator config file")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out-dir", default=None, help="witness directory")
    p.add_argument("--csv", default=None, help="per-instance CSV rows")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify, verify=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "certify" and not (args.instance or args.campaign):
        parser.error("certify needs --instance or --campaign")
    try:
        if args.precision is not None:
            _check_precision(args.precision, "--precision")
        return args.func(args)
    except (PaircertError, OSError) as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"paircert: {type(exc).__name__}: {message}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
