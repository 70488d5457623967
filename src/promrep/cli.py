"""Command-line front end.

Exit codes: 0 the property holds / the structure is valid; 1 refuted, with
the violated axiom and a serialized witness; 2 usage or input errors.

Summaries go to stdout as line-oriented key:value pairs and are
byte-deterministic for a fixed configuration; wall-clock time is reported
on stderr so it never perturbs the stdout contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import workspace
from .adjunction import counit, lift, lower, unit
from .functors import prom_to_rep, rep_to_prom
from .harness import CATALOG, ConfigError, SearchConfig, search
from .rel import DEFAULT_POWERSET_CAP, PowersetCapExceeded
from .structures import (
    CheckResult,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
    check_preorder,
    check_prom,
    check_prom_morphism,
    check_rep_morphism,
    check_representation,
)

#: Structure kind → (axioms in check order, checker).
_CHECKS = {
    "preorder": (("reflexivity", "transitivity"), lambda s: check_preorder(s.rel)),
    "prom": (("x preorder", "y preorder", "order preservation"), check_prom),
    "representation": (("ord preorder", "soundness"), check_representation),
    "prom_morphism": (
        ("phi order preservation", "psi order preservation", "commuting square"),
        check_prom_morphism,
    ),
    "rep_morphism": (("phi order preservation", "commuting square"), check_rep_morphism),
}


class InputError(Exception):
    """Anything that should terminate with exit code 2."""


def _load(path: str) -> workspace.Workspace:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(str(e)) from None
    try:
        return workspace.loads(text)
    except workspace.WorkspaceError as e:
        raise InputError(f"{path}: {e}") from None


def _named(ws: workspace.Workspace, name: str):
    obj = ws.structures.get(name)
    if obj is None:
        raise InputError(f"no structure named {name!r}")
    return obj


def cmd_check(args) -> int:
    ws = _load(args.file)
    obj = _named(ws, args.name)
    kind = workspace.KIND_OF[type(obj)]
    axioms, checker = _CHECKS[kind]
    res: CheckResult = checker(obj)
    print(f"structure: {args.name}")
    print(f"kind: {kind}")
    if res.ok:
        for axiom in axioms:
            print(f"{axiom}: ok")
        print("result: ok")
        return 0
    print(f"axiom: {res.axiom}")
    print(f"witness: {res.witness}")
    print("result: fail")
    return 1


def _find_prom_preimage(ws: workspace.Workspace, rep: Representation) -> Prom:
    for obj in ws.structures.values():
        if isinstance(obj, Prom) and prom_to_rep(obj) == rep:
            return obj
    raise InputError(
        "psi needs a prom in the file whose representation image is the morphism source"
    )


def _find_rep_preimage(ws: workspace.Workspace, prom: Prom, cap: int) -> Representation:
    for obj in ws.structures.values():
        if isinstance(obj, Representation) and rep_to_prom(obj, cap) == prom:
            return obj
    raise InputError(
        "tee needs a representation in the file whose prom image is the morphism destination"
    )


#: Functor → (class of its input, its image given workspace, input, cap).
#: psi and tee also look up, in the workspace, the object their map needs.
_FUNCTORS = {
    "R": (Prom, lambda ws, p, cap: prom_to_rep(p)),
    "M": (Representation, lambda ws, r, cap: rep_to_prom(r, cap)),
    "MR": (Prom, lambda ws, p, cap: rep_to_prom(prom_to_rep(p), cap)),
    "RM": (Representation, lambda ws, r, cap: prom_to_rep(rep_to_prom(r, cap))),
    "unit": (Prom, lambda ws, p, cap: unit(p, cap)),
    "counit": (Representation, lambda ws, r, cap: counit(r, cap)),
    "psi": (RepMorphism, lambda ws, m, cap: lift(m, _find_prom_preimage(ws, m.src), cap)),
    "tee": (
        PromMorphism,
        lambda ws, m, cap: lower(m, _find_rep_preimage(ws, m.dst, cap), m.src, cap),
    ),
}

FUNCTORS = tuple(_FUNCTORS)


def _apply(functor: str, ws: workspace.Workspace, obj, cap: int):
    cls, image = _FUNCTORS[functor]
    if not isinstance(obj, cls):
        raise InputError(f"functor {functor} applies to a {workspace.KIND_OF[cls]}")
    return image(ws, obj, cap)


def cmd_apply(args) -> int:
    ws = _load(args.file)
    obj = _named(ws, args.name)
    try:
        image = _apply(args.functor, ws, obj, args.powerset_cap)
        out = workspace.build({f"{args.functor}({args.name})": image})
        text = workspace.dumps(out)
    except ValueError as e:
        # the cap, carriers that do not connect, an unserializable image, or
        # subsets that print alike (with a label "", {""} and {} are both "{}")
        raise InputError(str(e)) from None
    sys.stdout.write(text)
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"--max-size wants comma-separated integers, got {text!r}") from None
    if not sizes or any(s < 0 for s in sizes):
        raise InputError("--max-size wants nonnegative integers")
    return sizes


def cmd_verify(args) -> int:
    config = SearchConfig(
        law=args.law,
        mode=args.mode,
        bounds=_parse_sizes(args.max_size) if args.max_size else None,
        trials=args.trials,
        seed=args.seed,
        parallelism=args.jobs,
        powerset_cap=args.powerset_cap,
    )
    started = time.monotonic()
    try:
        summary = search(config)
    except (ConfigError, PowersetCapExceeded) as e:
        raise InputError(str(e)) from None
    elapsed = time.monotonic() - started
    lines = summary.lines()
    if args.pretty:
        width = max(len(line.split(":", 1)[0]) for line in lines)
        for line in lines:
            key, value = line.split(":", 1)
            print(f"  {key.ljust(width)} {value.strip()}")
    else:
        for line in lines:
            print(line)
    if summary.witness is not None:
        print(json.dumps(summary.witness.to_doc(), indent=2))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0 if summary.passed else 1


def cmd_laws(_args) -> int:
    for law, spec in CATALOG.items():
        print(f"{law}: {spec.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promrep",
        description="Check, transform and verify finite preorder morphisms and representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a structure's axioms")
    p_check.add_argument("file")
    p_check.add_argument("name")
    p_check.set_defaults(func=cmd_check)

    p_apply = sub.add_parser("apply", help="apply a functor or transformation")
    p_apply.add_argument("functor", choices=FUNCTORS)
    p_apply.add_argument("file")
    p_apply.add_argument("name")
    p_apply.add_argument("--powerset-cap", type=int, default=DEFAULT_POWERSET_CAP)
    p_apply.set_defaults(func=cmd_apply)

    p_verify = sub.add_parser("verify", help="search a law for counterexamples")
    p_verify.add_argument("law", choices=tuple(CATALOG))
    p_verify.add_argument("--mode", choices=("seeded", "exhaustive"), default="seeded")
    p_verify.add_argument("--max-size", default=None, metavar="N[,N...]")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=1, help="at least 1; trials run serially for now")
    p_verify.add_argument("--pretty", action="store_true")
    p_verify.add_argument("--powerset-cap", type=int, default=DEFAULT_POWERSET_CAP)
    p_verify.set_defaults(func=cmd_verify)

    p_laws = sub.add_parser("laws", help="list the law catalog")
    p_laws.set_defaults(func=cmd_laws)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
