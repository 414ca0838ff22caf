"""Batch command-line front end.

Each command reads one JSON instance file, writes a single JSON document
to stdout, and keeps human-readable diagnostics on stderr. Exit status:
0 success, 1 parse/IO error, 2 inadmissible input, 3 size-cap exceeded.
All floats in output are rendered with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .collapse import collapse
from .core import (
    ApproxConfig,
    InadmissibleInputError,
    SizeCapError,
    _entries_from_json,
    identity_tensor,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    pair,
    tensor_from_json,
    tensor_to_json,
)
from .dominance import check_dominance_tensor, require_admissible, scaled_dominance_report
from .exact import permanent_ryser, permanent_tensor
from .generators import (
    block_extremal_matrix,
    random_admissible_matrix,
    random_admissible_tensor,
    random_dominant_matrix,
    random_hypergraph,
)
from .hypergraph import hypergraph_from_json, matching_stats, normalize_base_matching
from .taylor import WORK_CAP, approx_log_permanent, minor_sum_work, zero_scan


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
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f'grid must look like "64x64", got {text!r}')
    return int(parts[0]), int(parts[1])


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
    if arr.ndim == 2:
        value = permanent_ryser(arr)
    else:
        value = permanent_tensor(arr, product_cap=args.work_cap)
    return {"permanent": pair(value)}


def _cmd_approx(args) -> dict:
    arr = _load_array(args.input)
    lam = args.lam if args.lam is not None else require_admissible(arr).effective_lambda
    cfg = ApproxConfig(lam=lam, epsilon=args.epsilon, order_override=args.order)
    result = approx_log_permanent(arr, cfg, threads=args.threads, work_cap=args.work_cap)
    print(
        f"n = {arr.shape[0]}, order m = {result.order_m}, "
        f"certified bound {result.error_bound:.3g}",
        file=sys.stderr,
    )
    return result.to_json()


def _cmd_dominance(args) -> dict:
    arr = _load_array(args.input)
    if args.scaled:
        if arr.ndim != 2:
            raise ValueError("--scaled applies to matrices only")
        return scaled_dominance_report(arr).to_json()
    return check_dominance_tensor(arr).to_json()


def _cmd_matching_stats(args) -> dict:
    h, m0 = hypergraph_from_json(_load_json(args.input))
    if m0 is not None:
        h = normalize_base_matching(h, m0)
    result = matching_stats(
        h, args.lam, epsilon=args.epsilon, threads=args.threads, work_cap=args.work_cap
    )
    return result.to_json()


def _cmd_zero_scan(args) -> dict:
    arr = _load_array(args.input)
    radial, angular = _parse_grid(args.grid)
    report = zero_scan(
        arr,
        radius=args.radius,
        radial=radial,
        angular=angular,
        threads=args.threads,
        work_cap=args.work_cap,
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
    rng = np.random.default_rng(args.seed)
    if args.kind == "block":
        sign = 1 if args.sign == "plus" else -1
        return matrix_to_json(block_extremal_matrix(args.n, args.lam, sign))
    if args.kind == "matrix":
        return matrix_to_json(random_admissible_matrix(args.n, args.lam, rng))
    if args.kind == "tensor":
        return tensor_to_json(random_admissible_tensor(args.d, args.n, args.lam, rng))
    if args.kind == "dominant":
        return matrix_to_json(random_dominant_matrix(args.n, args.lam, rng))
    if args.kind == "hypergraph":
        h = random_hypergraph(args.d, args.n, args.extra, rng, delta_cap=args.delta_cap)
        return h.to_json()
    raise ValueError(f"unknown generator {args.kind!r}")


def _cmd_bench(args) -> dict:
    """Measured scaling of the minor-sum engine over (n, m) pairs."""
    sizes = [int(s) for s in args.sizes.split(",")]
    orders = [int(s) for s in args.orders.split(",")]
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in sizes:
        arr = random_admissible_matrix(n, 0.5, rng)
        for m in orders:
            cfg = ApproxConfig(lam=0.5, epsilon=0.01, order_override=m)
            start = time.perf_counter()
            approx_log_permanent(arr, cfg, threads=args.threads, work_cap=args.work_cap)
            elapsed = time.perf_counter() - start
            ops = minor_sum_work(n, 2, m)
            rows.append({"n": n, "m": m, "subset_ops": ops, "seconds": elapsed})
            print(f"n={n:3d} m={m:2d}  {elapsed:8.3f}s  ({ops} ops)", file=sys.stderr)
    return {"rows": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permtaylor",
        description="Log-permanent approximation for row-dominated complex "
        "matrices and tensors, with exact oracles and hypergraph "
        "matching statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="path to the instance JSON file")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--work-cap", type=int, default=WORK_CAP, dest="work_cap",
                       help="enumeration budget before failing fast")
        p.add_argument("--pretty", action="store_true", help="aligned table instead of JSON")

    p = sub.add_parser("exact", help="exact permanent per(I + A) of an instance A")
    common(p)
    p.add_argument("--raw", action="store_true",
                   help="permanent of the stored array itself, without the identity shift")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("approx", help="Taylor approximation of the log-permanent")
    common(p)
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="dominance bound (default: measured effective lambda)")
    p.add_argument("--epsilon", type=float, default=0.01, help="target additive error on the log")
    p.add_argument("--order", type=int, default=None, help="force the Taylor order m")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("dominance", help="row/slice dominance report")
    common(p)
    p.add_argument("--scaled", action="store_true",
                   help="off-diagonal mass relative to |b_ii| (strong-dominance check "
                        "for a general matrix B)")
    p.set_defaults(fn=_cmd_dominance)

    p = sub.add_parser("matching-stats", help="weighted perfect-matching count of a hypergraph")
    common(p)
    p.add_argument("--lambda", type=float, required=True, dest="lam", help="distance weight")
    p.add_argument("--epsilon", type=float, default=0.01, help="target additive error on the log")
    p.set_defaults(fn=_cmd_matching_stats)

    p = sub.add_parser("zero-scan", help="modulus of per(I + zA) over a polar grid")
    common(p)
    p.add_argument("--radius", type=float, default=None,
                   help="scan radius (default 0.99 / effective lambda)")
    p.add_argument("--grid", default="64x64", help="radial x angular resolution")
    p.set_defaults(fn=_cmd_zero_scan)

    p = sub.add_parser("collapse-demo", help="collapse a linear form onto one coordinate")
    common(p)
    p.set_defaults(fn=_cmd_collapse_demo)

    p = sub.add_parser("gen", help="generate instances")
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

    p = sub.add_parser("bench", help="time the approximation over a grid of (n, m)")
    common(p, needs_input=False)
    p.add_argument("--sizes", default="10,15,20", help="comma-separated n values")
    p.add_argument("--orders", default="4,6,8", help="comma-separated m values")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.fn(args), args.pretty)
    except InadmissibleInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
