"""Command-line surface: verification suites, lifting constructions,
orbit <-> ideal round trips, and field invariants, with JSON I/O and
deterministic seeding.

Exit codes: 0 all certificates pass; 1 a verified mathematical identity
failed or a certificate came back false; 2 usage or input error; 3 a
witness-search bound was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import serialize as ser
from .cns import H3CNS, cns_axioms_check
from .composition import CompAlgebra, comp_axioms_check, comp_preset
from .freudenthal import WSpace
from .lifting import (
    NoLiftError,
    gan_savin_cns,
    lift_wa_refined,
    lift_wj,
    pair_lift,
    rank2_h3_lift,
    rank2_w_lift,
    rank3_w_lift,
    second_lift,
    utilde_cns,
)
from .presets import bhargava_pair, cns_preset, second_kind_preset, thm_diag_pair
from .rings_ideals import (
    balanced_check_sa,
    balanced_check_tc,
    balanced_to_cube,
    balanced_to_pair,
    cube_to_balanced,
    field_invariant_b1,
    field_invariant_b2,
    pair_to_balanced,
)
from .scalars import (
    BoundExceededError,
    Certificate,
    DescriptorError,
    IdentityError,
    PreconditionError,
    qq,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


class UsageError(Exception):
    pass


def _load_json(spec: Optional[str]):
    if spec is None:
        raise UsageError("--input is required")
    try:
        if spec == "-":
            text = sys.stdin.read()
        elif spec.lstrip().startswith(("{", "[")):
            text = spec
        else:
            with open(spec.removeprefix("@"), "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {spec!r}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _structure(spec: Optional[str], allow_comp: bool = False):
    """preset:NAME, comp:NAME, or an inline/loaded JSON descriptor; a
    composition algebra (comp:NAME or {"comp": ...}) only if ``allow_comp``."""
    if spec is None:
        raise UsageError("--structure is required")
    if spec.startswith("preset:"):
        return cns_preset(spec.split(":", 1)[1])
    if spec.startswith("comp:"):
        struct = comp_preset(spec.split(":", 1)[1])
    else:
        data = _load_json(spec)
        comp = isinstance(data, dict) and "comp" in data and "cns" not in data
        struct = (ser.dec_comp_desc(ser._at(data, "comp", what="structure")) if comp
                  else ser.dec_cns_desc(data))
    if isinstance(struct, CompAlgebra) and not allow_comp:
        raise UsageError("a composition-algebra structure is accepted by verify only")
    return struct


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            print(f"{key}:")
            for k in sorted(val):
                print(f"  {k}: {val[k]}")
        elif isinstance(val, list):
            print(f"{key}:")
            for item in val:
                print(f"  - {item}")
        else:
            print(f"{key}: {val}")


def _emit_certified(cert: Certificate, as_json: bool, fields: Optional[dict] = None) -> int:
    """Emit the JSON of ``cert``, or ``fields`` with its bare certificate
    entries and verdict, and exit on the verdict."""
    _emit(cert.to_json() if fields is None else {**fields, **Certificate.to_json(cert)}, as_json)
    return EXIT_OK if cert.ok() else EXIT_IDENTITY


# -- subcommands --------------------------------------------------------------


def cmd_verify(args) -> int:
    struct = _structure(args.structure, allow_comp=True)
    if isinstance(struct, CompAlgebra):
        report = comp_axioms_check(struct, trials=args.trials, seed=args.seed)
    else:
        report = cns_axioms_check(struct, trials=args.trials, seed=args.seed)
    return _emit_certified(report, args.json)


def cmd_lift(args) -> int:
    if args.law in ("second", "utilde"):
        sk = second_kind_preset(args.second_kind)
        W = WSpace(sk.J)
        v = ser.dec_w_elt(_load_json(args.input), W)
        if args.law == "second":
            res = second_lift(sk, v, cap=args.bound, seed=args.seed)
            return _emit_certified(res, args.json,
                                   {"lambda": ser.enc_base_elt(res.lam),
                                    "S": [ser.enc_base_elt(c) for c in res.S.coords]})
        return _emit_certified(utilde_cns(sk, v), args.json)
    J = _structure(args.structure)
    W = WSpace(J)
    v = ser.dec_w_elt(_load_json(args.input), W)
    if args.law == "wj":
        res = lift_wj(W, v)
    elif args.law == "wa":
        res = lift_wa_refined(W, v)
    else:
        res = gan_savin_cns(J, v)
    return _emit_certified(res, args.json)


def cmd_cube(args) -> int:
    W = ser.cube_space()
    if args.to == "ideals":
        v = ser.dec_w_elt(_load_json(args.input), W)
        ring, ideal, cert = cube_to_balanced(W.J, v, cap=args.bound, seed=args.seed)
        return _emit_certified(cert, args.json, {"ideal": ser.enc_ideal_sa(ideal)})
    ideal = ser.dec_ideal_sa(_load_json(args.input))
    cert = balanced_check_sa(ideal)
    v, _ = balanced_to_cube(ideal, cert)
    checks = {e.name: e.ok for e in cert.certificate}
    _emit({"cube": ser.w_to_cube(v), "checks": checks}, args.json)
    return EXIT_OK


def _pair_input(args):
    if not args.preset:
        J = _structure(args.structure)
        data = _load_json(args.input)
        A = ser.dec_cns_elt(ser._at(data, "A", what="pair"), J)
        B = ser.dec_cns_elt(ser._at(data, "B", what="pair"), J)
        return J, A, B
    if args.preset not in ("bhargava-a1b1", "thm-diag"):
        raise UsageError(f"unknown pair preset {args.preset!r}")
    J = _structure(args.structure) if args.structure else cns_preset("h3-rational")
    if not isinstance(J, H3CNS):
        raise UsageError("the pair commands need a Hermitian structure")
    if args.preset == "thm-diag":
        d = qq(args.coeffs) if args.coeffs else qq(1)
        A, B = thm_diag_pair(J, d)
    else:
        coeffs = [qq(c) for c in args.coeffs.split(",")] if args.coeffs else [1, 0, -1, 0]
        if len(coeffs) != 4:
            raise UsageError(f"--coeffs needs four values a,b,c,d, got {len(coeffs)}")
        A, B = bhargava_pair(J, *coeffs)
    return J, A, B


def cmd_pair(args) -> int:
    if args.to == "pair":
        ideal = ser.dec_ideal_tc(_load_json(args.input))
        cert = balanced_check_tc(ideal)
        A, B = balanced_to_pair(ideal, cert)
        payload = {
            "A": [ser.enc_base_elt(c) for c in A.coords],
            "B": [ser.enc_base_elt(c) for c in B.coords],
            "checks": {e.name: e.ok for e in cert.certificate},
        }
        _emit(payload, args.json)
        return EXIT_OK
    if args.invariant:
        return _invariant_b2(args)
    J, A, B = _pair_input(args)
    if args.to == "ideals":
        ring, ideal, cert = pair_to_balanced(J, A, B, cap=args.bound, seed=args.seed)
        return _emit_certified(cert, args.json, {"ideal": ser.enc_ideal_tc(ideal)})
    return _emit_certified(pair_lift(J, A, B), args.json)


def _invariant_b2(args) -> int:
    J, A, B = _pair_input(args)
    out = field_invariant_b2(J, A, B, cap=args.bound, seed=args.seed)
    payload = {
        "mu": ser.enc_base_elt(out["mu"]),
        "det_identity": out["det_identity"],
        "norm_witness_found": out["norm_witness"] is not None,
        "cubic": [ser.enc_scalar(c) for c in out["ring"].coeffs],
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_invariant(args) -> int:
    if args.kind == "b1":
        J = _structure(args.structure)
        W = WSpace(J)
        v = ser.dec_w_elt(_load_json(args.input), W)
        out = field_invariant_b1(J, v, cap=args.bound, seed=args.seed)
        payload = {
            "E_modulus": [ser.enc_scalar(c) for c in out["E"].modulus],
            "lambda": ser.enc_base_elt(out["lambda"]),
            "witness_identity": out["witness_identity"],
            "norm_witness_found": out["norm_class_witness"] is not None,
        }
        _emit(payload, args.json)
        return EXIT_OK
    return _invariant_b2(args)


def cmd_lowrank(args) -> int:
    if args.kind == "h3-rank2":
        J = _structure(args.structure)
        x = ser.dec_cns_elt(_load_json(args.input), J)
        res = rank2_h3_lift(J, x, cap=args.bound, seed=args.seed)
    elif args.kind == "w-rank2":
        J = _structure(args.structure)
        W = WSpace(J)
        x = ser.dec_w_elt(_load_json(args.input), W)
        res = rank2_w_lift(W, x, cap=args.bound, seed=args.seed)
    else:
        sk = second_kind_preset(args.second_kind)
        W = WSpace(sk.J)
        x = ser.dec_w_elt(_load_json(args.input), W)
        res = rank3_w_lift(sk, x, cap=args.bound, seed=args.seed)
    return _emit_certified(res, args.json)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cubicnorm",
                                description="exact verification of cubic norm structures, "
                                            "lifting constructions, and orbit parametrizations")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--structure", help="preset:NAME, comp:NAME, JSON, or @file")
        sp.add_argument("--input", help="JSON value, @file, file path, or - for stdin")
        sp.add_argument("--trials", type=_positive_int, default=100)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--bound", type=_positive_int, default=300,
                        help="witness search cap (exit 3 when exceeded)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("verify", help="run the identity suite on a structure")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("lift", help="run a lifting construction with its certificate")
    common(sp)
    sp.add_argument("--law", choices=["wj", "wa", "second", "utilde", "gansavin"],
                    default="wj")
    sp.add_argument("--second-kind", default="matrix:-1",
                    help="matrix:D or tensor:D[:inner] for the second law")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("cube", help="cube <-> balanced-ideal correspondence")
    common(sp)
    sp.add_argument("--to", choices=["ideals", "cube"], required=True)
    sp.set_defaults(func=cmd_cube)

    sp = sub.add_parser("pair", help="pair <-> balanced-ideal correspondence")
    common(sp)
    sp.add_argument("--preset", help="bhargava-a1b1 or thm-diag")
    sp.add_argument("--coeffs", help="a,b,c,d for bhargava-a1b1; d for thm-diag")
    sp.add_argument("--invariant", action="store_true")
    sp.add_argument("--to", choices=["ideals", "pair"])
    sp.set_defaults(func=cmd_pair)

    sp = sub.add_parser("invariant", help="field-orbit invariants")
    common(sp)
    sp.add_argument("--kind", choices=["b1", "b2"], required=True)
    sp.add_argument("--preset")
    sp.add_argument("--coeffs")
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("lowrank", help="lower-rank lifts")
    common(sp)
    sp.add_argument("--kind", choices=["h3-rank2", "w-rank2", "w-rank3"], required=True)
    sp.add_argument("--second-kind", default="matrix:-1")
    sp.set_defaults(func=cmd_lowrank)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DescriptorError, PreconditionError, NoLiftError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except IdentityError as exc:
        print(f"identity failure (bug): {exc}", file=sys.stderr)
        return EXIT_IDENTITY


if __name__ == "__main__":
    sys.exit(main())
