"""Command-line front end.

Exit codes: 0 the property holds / the structure is valid; 1 refuted, with
the violated axiom and a serialized witness; 2 usage or input errors, or a
stdout closed before the report was written.

Summaries go to stdout as line-oriented key:value pairs and are
byte-deterministic for a fixed configuration; wall-clock time is reported
on stderr so it never perturbs the stdout contract.

`main` builds its parser on its first call, not at import, and reuses it
later: a one-command `promrep` process builds it once either way, and a
caller that runs many commands in process saves about 1 ms a call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import workspace
from .adjunction import counit, lift, lower, unit
from .functors import prom_to_rep, rep_to_prom
from .harness import CATALOG, ConfigError, SearchConfig, search
from .rel import PowersetCapExceeded
from .structures import (
    AXIOMS,
    InvalidStructure,
    Prom,
    PromMorphism,
    Representation,
    RepMorphism,
    validate,
)

class InputError(Exception):
    """Anything that should terminate with exit code 2."""


def _load(path: str) -> workspace.Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(str(e)) from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8: {e}") from None
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
    print(f"structure: {args.name}")
    print(f"kind: {kind}")
    try:
        validate(obj)
    except InvalidStructure as e:
        print(f"axiom: {e.result.axiom}")
        print(f"witness: {e.result.witness}")
        print("result: fail")
        return 1
    for axiom in AXIOMS[type(obj)]:
        print(f"{axiom}: ok")
    print("result: ok")
    return 0


def _find_prom_preimage(ws: workspace.Workspace, rep: Representation) -> Prom:
    for obj in ws.structures.values():
        if isinstance(obj, Prom) and prom_to_rep(obj) == rep:
            validate(obj)  # R(p) can be valid when p is not: y⨾f^* reads y only at f's image
            return obj
    raise InputError(
        "psi needs a prom in the file whose representation image is the morphism source"
    )


def _find_rep_preimage(ws: workspace.Workspace, prom: Prom) -> Representation:
    # r needs no check of its own: M(r) has r's order, and its f preserves order iff r is sound
    for obj in ws.structures.values():
        # M(r) has r's order and 2^|M| points: build it only for an r that can match
        if not isinstance(obj, Representation) or obj.ord != prom.x or 1 << len(obj.M) != len(prom.B):
            continue
        if rep_to_prom(obj) == prom:
            return obj
    raise InputError(
        "tee needs a representation in the file whose prom image is the morphism destination"
    )


#: Functor → (class of its input, its image given workspace and input).
#: psi and tee also look up, in the workspace, the object their map needs.
#: Every input is validated first, as `check` would.
_FUNCTORS = {
    "R": (Prom, lambda ws, p: prom_to_rep(p)),
    "M": (Representation, lambda ws, r: rep_to_prom(r)),
    "MR": (Prom, lambda ws, p: rep_to_prom(prom_to_rep(p))),
    "RM": (Representation, lambda ws, r: prom_to_rep(rep_to_prom(r))),
    "unit": (Prom, lambda ws, p: unit(p)),
    "counit": (Representation, lambda ws, r: counit(r)),
    "psi": (RepMorphism, lambda ws, m: lift(m, _find_prom_preimage(ws, m.src))),
    "tee": (PromMorphism, lambda ws, m: lower(m, _find_rep_preimage(ws, m.dst))),
}

FUNCTORS = tuple(_FUNCTORS)


def _apply(functor: str, ws: workspace.Workspace, obj):
    cls, image = _FUNCTORS[functor]
    if not isinstance(obj, cls):
        raise InputError(f"functor {functor} applies to a {workspace.KIND_OF[cls]}")
    validate(obj)
    return image(ws, obj)


def cmd_apply(args) -> int:
    ws = _load(args.file)
    obj = _named(ws, args.name)
    try:
        image = _apply(args.functor, ws, obj)
        out = workspace.build({f"{args.functor}({args.name})": image})
        text = workspace.dumps(out)
    except ValueError as e:
        # an invalid input, the cap, carriers that do not connect, or an unserializable image
        raise InputError(str(e)) from None
    sys.stdout.write(text)
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"--max-size wants comma-separated integers, got {text!r}") from None
    if any(s < 0 for s in sizes):
        raise InputError("--max-size wants nonnegative integers")
    return sizes


def cmd_verify(args) -> int:
    config = SearchConfig(
        law=args.law,
        mode=args.mode,
        bounds=None if args.max_size is None else _parse_sizes(args.max_size),
        trials=args.trials,
        seed=args.seed,
    )
    started = time.monotonic()
    try:
        summary = search(config)
    except (ConfigError, PowersetCapExceeded) as e:
        raise InputError(str(e)) from None
    elapsed = time.monotonic() - started
    for line in summary.lines():
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
    p_apply.set_defaults(func=cmd_apply)

    p_verify = sub.add_parser("verify", help="search a law for counterexamples")
    p_verify.add_argument("law", choices=tuple(CATALOG))
    p_verify.add_argument("--mode", choices=("seeded", "exhaustive"), default="seeded")
    p_verify.add_argument("--max-size", default=None, metavar="N[,N...]")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_laws = sub.add_parser("laws", help="list the law catalog")
    p_laws.set_defaults(func=cmd_laws)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: no verdict was delivered, so this is not a
        # refutation; send what is still buffered to devnull, so that the
        # flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
