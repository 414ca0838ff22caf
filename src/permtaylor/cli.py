"""Batch command-line front end.

Each command reads one JSON instance file, writes a single JSON document
to stdout, and keeps human-readable diagnostics on stderr. Exit status:
0 success, 1 parse/IO error, 2 inadmissible input, 3 size-cap exceeded
or out of memory.
All floats in output are rendered with 17 significant digits. Each
command's parser, and the full tree, is built once per process and reused
by every later `run` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .collapse import collapse
from .core import (
    ApproxConfig,
    InadmissibleInputError,
    SizeCapError,
    _entries_from_json,
    check_sizes,
    dense_entries_exceed,
    identity_tensor,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    pair,
    tensor_from_json,
    tensor_to_json,
)
from .dominance import check_dominance_tensor, diagonal_normal_form
from .exact import permanent_ryser, permanent_tensor
from .generators import (
    block_extremal_matrix,
    random_admissible_tensor,
    random_dominant_matrix,
    random_hypergraph,
)
from .hypergraph import hypergraph_from_json, matching_stats, normalize_base_matching
from .taylor import WORK_CAP, approx_log_permanent, zero_scan


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_array(path: str):
    """Matrix or tensor, distinguished by the presence of the "d" key."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "d" in obj:
        return tensor_from_json(obj)
    return matrix_from_json(obj)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        radial, angular = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f'grid must look like "64x64", got {text!r}') from None
    return radial, angular


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(_pretty_lines(doc))
    else:
        sys.stdout.write(json_dumps(doc) + "\n")


def _pretty_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".10g")
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return f"{v[0]:.10g} {v[1]:+.10g}i"
    return str(v)


def _pretty_lines(doc: dict) -> str:
    lines = []
    width = max(len(k) for k in doc)
    for key, val in doc.items():
        if isinstance(val, list) and val and isinstance(val[0], list) and (
            len(val[0]) != 2 or isinstance(val[0][0], list)
        ):
            lines.append(f"{key}:")
            for row in val:
                lines.append("  " + "  ".join(_pretty_scalar(v) for v in row))
        elif isinstance(val, list) and val and isinstance(val[0], list):
            lines.append(f"{key}:")
            for i, item in enumerate(val):
                lines.append(f"  [{i}] {_pretty_scalar(item)}")
        elif isinstance(val, list):
            lines.append(f"{key:<{width}}  " + "  ".join(_pretty_scalar(v) for v in val))
        else:
            lines.append(f"{key:<{width}}  {_pretty_scalar(val)}")
    return "\n".join(lines) + "\n"


def _cmd_exact(args) -> dict:
    arr = _load_array(args.input)
    if not args.raw:
        # instance files carry the perturbation A; the quantity every other
        # command addresses is per(I + A)
        arr = arr + identity_tensor(arr.ndim, arr.shape[0])
    # each exact engine takes its one cap second: Ryser steps or tensor products
    value = (permanent_ryser if arr.ndim == 2 else permanent_tensor)(arr, args.work_cap)
    if not np.isfinite(value):
        name = ("per" if arr.ndim == 2 else "PER") + ("(A)" if args.raw else "(I + A)")
        raise ValueError(f"the permanent {name} overflows float64")
    return {"permanent": pair(value)}


def _cmd_approx(args) -> dict:
    arr = _load_array(args.input)
    cfg = ApproxConfig(lam=args.lam, epsilon=args.epsilon, order_override=args.order)
    result = approx_log_permanent(arr, cfg, work_cap=args.work_cap)
    sizes = result.components
    print(
        f"n = {arr.shape[0]}, components {len(sizes)} (largest {max(sizes)}), "
        f"order m = {result.order_m}, certified bound {result.error_bound:.3g}, "
        f"lambda {result.lam:.4g} (raw {result.raw_lam:.4g})",
        file=sys.stderr,
    )
    return result.to_json()


def _cmd_dominance(args) -> dict:
    arr = _load_array(args.input)
    if args.scaled:
        return diagonal_normal_form(arr).report.to_json()
    return check_dominance_tensor(arr).to_json()


def _cmd_matching_stats(args) -> dict:
    h, m0 = hypergraph_from_json(_load_json(args.input))
    if m0 is not None:
        h = normalize_base_matching(h, m0)
    return matching_stats(h, args.lam, epsilon=args.epsilon, work_cap=args.work_cap).to_json()


def _cmd_zero_scan(args) -> dict:
    arr = _load_array(args.input)
    radial, angular = _parse_grid(args.grid)
    report = zero_scan(
        arr, radius=args.radius, radial=radial, angular=angular, work_cap=args.work_cap
    )
    return report.to_json()


def _cmd_collapse_demo(args) -> dict:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "alphas" not in obj or "zs" not in obj:
        raise ValueError('collapse input must have keys "alphas" and "zs"')
    alphas, zs = _entries_from_json(obj["alphas"]), _entries_from_json(obj["zs"])
    out = collapse(alphas, zs)
    return {
        "z_star": [pair(z) for z in out],
        "value_before": pair(complex(np.sum(alphas * zs))),
        "value_after": pair(complex(np.sum(alphas * out))),
        "l1_before": float(np.abs(zs).sum()),
        "l1_after": float(np.abs(out).sum()),
    }


def _cmd_gen(args) -> dict:
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    if args.kind == "tensor":
        check_sizes(args.d, args.n)
    if args.kind != "hypergraph":
        if not (math.isfinite(args.lam) and args.lam > 0):
            raise ValueError(f"--lambda must be finite and positive, got {args.lam}")
        # the array is drawn whole, so its n^d entries are charged first
        d = args.d if args.kind == "tensor" else 2
        if dense_entries_exceed(args.n, d, WORK_CAP):
            raise SizeCapError(
                f"gen {args.kind} needs n^d = {args.n}^{d} entries, cap is {WORK_CAP}"
            )
    rng = np.random.default_rng(args.seed)
    if args.kind == "block":
        sign = 1 if args.sign == "plus" else -1
        return matrix_to_json(block_extremal_matrix(args.n, args.lam, sign))
    if args.kind == "matrix":
        return matrix_to_json(random_admissible_tensor(2, args.n, args.lam, rng))
    if args.kind == "tensor":
        return tensor_to_json(random_admissible_tensor(args.d, args.n, args.lam, rng))
    if args.kind == "dominant":
        return matrix_to_json(random_dominant_matrix(args.n, args.lam, rng))
    if args.kind == "hypergraph":
        h = random_hypergraph(args.d, args.n, args.extra, rng, delta_cap=args.delta_cap)
        return h.to_json()
    raise ValueError(f"unknown generator {args.kind!r}")


def _common(p, fn) -> None:
    """The arguments every command but gen takes, and the handler fn."""
    p.add_argument("input", help="path to the instance JSON file")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--work-cap", type=int, default=WORK_CAP, dest="work_cap",
                   help="enumeration budget before failing fast")
    p.add_argument("--pretty", action="store_true", help="aligned table instead of JSON")
    p.set_defaults(fn=fn)


def _exact_args(p) -> None:
    _common(p, _cmd_exact)
    p.add_argument("--raw", action="store_true",
                   help="permanent of the stored array itself, without the identity shift")


def _approx_args(p) -> None:
    _common(p, _cmd_approx)
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="dominance bound (default: measured effective lambda)")
    p.add_argument("--epsilon", type=float, default=0.01, help="target additive error on the log")
    p.add_argument("--order", type=int, default=None, help="force the Taylor order m")


def _dominance_args(p) -> None:
    _common(p, _cmd_dominance)
    p.add_argument("--scaled", action="store_true",
                   help="off-diagonal mass relative to |b_i...i| (strong-dominance check "
                        "for a general matrix or tensor B)")


def _matching_stats_args(p) -> None:
    _common(p, _cmd_matching_stats)
    p.add_argument("--lambda", type=float, required=True, dest="lam", help="distance weight")
    p.add_argument("--epsilon", type=float, default=0.01, help="target additive error on the log")


def _zero_scan_args(p) -> None:
    _common(p, _cmd_zero_scan)
    p.add_argument("--radius", type=float, default=None,
                   help="scan radius (default 0.99 / effective lambda)")
    p.add_argument("--grid", default="64x64", help="radial x angular resolution")


def _gen_args(p) -> None:
    p.add_argument("kind", choices=["block", "matrix", "tensor", "dominant", "hypergraph"])
    p.add_argument("--n", type=int, default=10, help="side length / vertices per part")
    p.add_argument("--d", type=int, default=3, help="tensor dimension / parts")
    p.add_argument("--lambda", type=float, default=0.5, dest="lam", help="dominance target")
    p.add_argument("--sign", choices=["plus", "minus"], default="plus",
                   help="block family sign: per(I+A) = (1 +/- lambda^2)^(n//2)")
    p.add_argument("--extra", type=int, default=6, help="off-diagonal hypergraph edges")
    p.add_argument("--delta-cap", type=int, default=None, dest="delta_cap",
                   help="max edges through a first-part vertex")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_gen)


# name -> (help line, function that adds the command's arguments and handler)
COMMANDS = {
    "exact": ("exact permanent per(I + A) of an instance A", _exact_args),
    "approx": ("Taylor approximation of the log-permanent", _approx_args),
    "dominance": ("row/slice dominance report", _dominance_args),
    "matching-stats": ("weighted perfect-matching count of a hypergraph", _matching_stats_args),
    "zero-scan": ("modulus of per(I + zA) over a polar grid", _zero_scan_args),
    "collapse-demo": ("collapse a linear form onto one coordinate",
                      lambda p: _common(p, _cmd_collapse_demo)),
    "gen": ("generate instances", _gen_args),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command, whose help and usage read as in the full
    tree, or with no command the full tree of subcommands.

    Each parser is built once per process and shared by every caller, so
    treat it as read-only: parse with it, never add to it. Parsing leaves
    it unchanged, and help is sized to the terminal when it is formatted,
    not when the parser is built."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"permtaylor {command}")
        COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="permtaylor",
        description="Log-permanent approximation for row-dominated complex "
        "matrices and tensors, with exact oracles and hypergraph "
        "matching statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return parser


def run(argv=None) -> int:
    """One call; returns the exit status. A call that names a command parses
    with that command's parser alone; the full tree parses any other argv.
    Both come from `build_parser`, built on first use in the process."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        _emit(args.fn(args), args.pretty)
    except InadmissibleInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
