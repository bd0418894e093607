"""Command-line front end: file I/O, configuration and reports over all
modules.

Subcommands: gate, paths, fuchsian, synth, kz, universality, pipeline.
Each handler `_cmd_*` returns (exit status, report body); `main` alone opens
every report with its `command` and `config` and emits it once, as JSON or
as indented text.  Reports are bit-identical across runs for a fixed seed
and a fixed BLAS thread count; another thread count may move the last bits.
Exit codes: 0 success, 1 input validation, 2 numerical failure (divisor
contact, non-convergence), 3 verification deviation above tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import fuchsian, kz, lappo_danilevski as ld, paths, universality
from .gate_core import parse_gate_name
from .matrices import (
    complex_to_json,
    matrix_from_json,
    matrix_to_json,
    random_hermitian,
    unitarity_defect,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; input errors are 1 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INPUT) from ValueError(message)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _separated_points(flag: str, texts) -> tuple[complex, ...]:
    """The values typed for a points flag, parsed; two that the divisor
    would not separate are an input error naming both as typed."""
    points = tuple(_parse_complex(t) for t in texts)
    try:
        paths.PointsDivisor(points)
    except ValueError:
        a, b = min(combinations(range(len(points)), 2), key=lambda ab: abs(points[ab[0]] - points[ab[1]]))
        raise ValueError(f"{flag} values {texts[a]} and {texts[b]} are not separated") from None
    return points


def _command(args) -> str:
    """The report's command name: the subcommand, then the value of its
    `*_command` destination when it has one (`kz verify`)."""
    return " ".join([args.command] + [v for k, v in vars(args).items() if k.endswith("_command")])


def _config(args) -> dict:
    """The parsed options of the subcommand, in parser order: the namespace
    without the destinations that route to a handler."""
    return {
        k: v for k, v in vars(args).items()
        if k not in ("command", "func") and not k.endswith("_command")
    }


def _flag(dest: str) -> str:
    """The option string of an argparse destination (`lam` is `--lambda`)."""
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def _validate_args(args) -> None:
    for key, value in vars(args).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{_flag(key)} must be finite, got {value}")
    for key in ("tol", "verify_tol", "relation_tol", "eps", "radius"):
        value = getattr(args, key, None)
        if value is not None and value <= 0:
            raise ValueError(f"{_flag(key)} must be positive, got {value}")
    for key in ("order", "maxlen", "samples", "budget", "generators", "dim", "i"):
        value = getattr(args, key, None)
        if value is not None and value < 1:
            raise ValueError(f"{_flag(key)} must be >= 1, got {value}")


def _render_text(obj, indent: int = 0) -> str:
    """Indented `key: value` lines.  Every list item is marked `- `, and an
    item that is itself a dict or a list starts on its marker's line; an
    empty list is `[]`.  Tuples render as lists, and None, True and False
    as JSON writes them."""
    pad = "  " * indent
    if isinstance(obj, tuple):
        obj = list(obj)
    if obj is None or isinstance(obj, bool):
        return f"{pad}{json.dumps(obj)}"
    if not isinstance(obj, (dict, list)) or not obj:
        return f"{pad}{obj}"
    if isinstance(obj, list):
        return "\n".join(f"{pad}- " + _render_text(v, indent + 1)[len(pad) + 2:] for v in obj)
    lines = []
    for k, v in obj.items():
        if isinstance(v, (dict, list, tuple)) and v:
            lines += [f"{pad}{k}:", _render_text(v, indent + 1)]
        else:
            lines.append(f"{pad}{k}: {_render_text(v)}")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "text":
        payload = _render_text(report)
    else:
        payload = json.dumps(report)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(payload)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_gateset(args) -> universality.GateSet:
    if getattr(args, "names", None):
        gates = [parse_gate_name(n) for n in args.names.split(",")]
        return universality.GateSet(
            tuple(g.matrix for g in gates), tuple(args.names.split(","))
        )
    if not getattr(args, "gates", None):
        raise ValueError("provide --gates FILE or --names LIST")
    obj = _load_json(args.gates)
    mats, labels = [], []
    for entry in obj["gates"]:
        mats.append(matrix_from_json(entry["matrix"]))
        labels.append(entry.get("label", f"g{len(labels)+1}"))
    return universality.GateSet(tuple(mats), tuple(labels))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit status, report body).
# ---------------------------------------------------------------------------

def _cmd_gate(args) -> tuple[int, dict]:
    gate = parse_gate_name(args.name)
    return EXIT_OK, {
        "qubits": gate.qubits,
        "unitarity_defect": unitarity_defect(gate.matrix),
        "matrix": matrix_to_json(gate.matrix),
    }


def _cmd_paths(args) -> tuple[int, dict]:
    if args.paths_command == "braid":
        path = paths.braid_word_path(args.n, [args.i])
        payload = paths.path_to_json(path)
    elif args.paths_command == "pure-braid":
        word = paths.pure_braid_word(args.n, args.i, args.j)
        path = paths.braid_word_path(args.n, word)
        payload = paths.path_to_json(path)
        payload["word"] = word
    elif args.paths_command == "loop":
        path = paths.generator_loop(
            _parse_complex(args.basepoint), _parse_complex(args.puncture), args.radius
        )
        payload = paths.path_to_json(path)
    else:  # loops: the standard generator system around several punctures
        punctures = _separated_points("--punctures", args.punctures)
        loops = fuchsian.x4_generator_loops(
            punctures, _parse_complex(args.basepoint), args.radius
        )
        payload = paths.loops_to_json(loops)
    return EXIT_OK, payload


def _cmd_fuchsian(args) -> tuple[int, dict]:
    conn = fuchsian.connection_from_json(_load_json(args.conn))
    loops = paths.loops_from_json(_load_json(args.loops))
    rep = fuchsian.monodromy_representation(conn, loops, tol=args.tol)
    return EXIT_OK, {
        "labels": list(rep.labels),
        "basepoint": [complex_to_json(z) for z in rep.basepoint],
        "matrices": [matrix_to_json(m) for m in rep.matrices],
        "deviations": {
            "product_defect": rep.product_defect(),
            "unitarity_defects": [unitarity_defect(m) for m in rep.matrices],
        },
    }


def _cmd_synth(args) -> tuple[int, dict]:
    targets = ld.family_from_json(_load_json(args.targets))
    loops = paths.loops_from_json(_load_json(args.loops))
    points = _separated_points("--points", args.points)
    reference = None if args.reference in (None, "inf") else _parse_complex(args.reference)
    try:
        forms = ld.DifferenceForms(points, reference=reference)
    except ValueError:
        near = min(args.points, key=lambda p: abs(_parse_complex(p) - reference))
        raise ValueError(f"--reference {args.reference} is not separated from --points value {near}") from None
    family = ld.synthesize(targets, forms, loops, args.order, tol=args.tol)
    radius = family.radius_estimate()
    body = {
        "family": ld.connection_family_to_json(family),
        "radius_estimate": radius if np.isfinite(radius) else None,
    }
    if not args.verify:
        return EXIT_OK, body
    verification = ld.verify_match(targets, family, args.lam, loops, tol=args.tol)
    failed = verification.max_deviation > args.verify_tol
    return EXIT_VERIFY if failed else EXIT_OK, {
        **body,
        "deviations": verification.as_dict(),
        "verdict": "deviation-above-tolerance" if failed else "verified",
    }


def _cmd_kz(args) -> tuple[int, dict]:
    sys_ = kz.build_kz([kz.SpinModule(args.spin) for _ in range(args.n)], args.lam)
    if args.kz_command == "braid":
        if args.unitarize:
            res = kz.unitarize_kz(sys_, tol=args.tol)
            out_mats = res.matrices
        else:
            res, out_mats = None, kz.braid_matrices(sys_, range(1, args.n), tol=args.tol)
        body = {
            "gates": [
                {"label": f"sigma_{i}", "matrix": matrix_to_json(m)}
                for i, m in enumerate(out_mats, start=1)
            ],
        }
        if res is not None:
            body["radical_dim"] = res.radical_dim
        return EXIT_OK, body
    # kz verify
    blocks = kz._gate_blocks(sys_, range(1, args.n), args.tol)
    mats = [kz._from_hw_blocks(sys_, b) for b in blocks]
    relations = kz.verify_braid_relations(mats, args.n)
    fulls = kz._full_twists(sys_, blocks, args.tol)
    twist_devs = [float(np.linalg.norm(b @ b - full)) for b, full in zip(mats, fulls)]
    res = kz.unitarize_kz(sys_, mats)
    worst = max([relations.max_deviation] + twist_devs)
    failed = worst > args.relation_tol or res.defect > 1e-8
    return EXIT_VERIFY if failed else EXIT_OK, {
        "deviations": {
            "braid_relations": list(relations.braid_deviations),
            "far_commutation": list(relations.commutation_deviations),
            "half_twist_squared": twist_devs,
            "unitarized_defect": res.defect,
        },
        "radical_dim": res.radical_dim,
        "quotient_dim": res.matrices[0].shape[0],
        "verdict": "deviation-above-tolerance" if failed else "verified",
    }


def _cmd_universality(args) -> tuple[int, dict]:
    gs = _load_gateset(args)
    if args.universality_command == "screen":
        result = universality.density_screen(gs, maxlen=args.maxlen, node_budget=args.budget)
    else:
        result = universality.epsilon_net_coverage(
            gs, args.maxlen, args.eps, args.samples, seed=args.seed, node_budget=args.budget
        )
    return EXIT_OK, {"labels": list(gs.labels), **asdict(result)}


def _cmd_pipeline(args) -> tuple[int, dict]:
    """End-to-end: targets near identity -> synthesis -> forward verification
    -> density screen -> one verdict."""
    rng = np.random.default_rng(args.seed)
    m = args.generators
    punctures = tuple(float(k) for k in range(m))
    basepoint = (m - 1) / 2.0 - 1.5j
    loops = paths.puncture_loops(punctures, basepoint, args.radius)
    forms = ld.DifferenceForms(punctures, reference=None)
    if args.zero_targets:
        hams = [np.zeros((args.dim, args.dim)) for _ in range(m)]
    else:
        hams = [random_hermitian(args.dim, rng) for _ in range(m)]
    targets = ld.RepresentationFamily.exponential_targets(hams, args.order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = ld.synthesize(targets, forms, loops, args.order, tol=args.tol)
        verification = ld.verify_match(targets, family, args.lam, loops, tol=args.tol)
    gates = [expm(2j * np.pi * args.lam * h) for h in hams]
    screen = universality.density_screen(
        universality.GateSet(tuple(gates)), maxlen=args.maxlen, node_budget=args.budget
    )
    zero = all(np.linalg.norm(h) == 0.0 for h in hams)
    if zero:
        verdict = "trivially-consistent"
        status = EXIT_OK
    elif verification.max_deviation <= args.verify_tol:
        verdict = "consistent"
        status = EXIT_OK
    else:
        verdict = "deviation-above-tolerance"
        status = EXIT_VERIFY
    return status, {
        "deviations": verification.as_dict(),
        "screen": asdict(screen),
        "gates": [{"label": f"target_{j+1}", "matrix": matrix_to_json(g)} for j, g in enumerate(gates)],
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# Argument wiring.
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--format", choices=("json", "text"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every `main`
    call: parsing does not change it."""
    root = _Parser(prog="monogate", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gate", help="emit a named gate matrix")
    p.add_argument("--name", required=True, help="X, Y, Z, H, H_std, PHASE:<alpha>, CNOT, CCNOT")
    _add_common(p)
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("paths", help="build contours")
    psub = p.add_subparsers(dest="paths_command", required=True)
    pb = psub.add_parser("braid", help="braid generator path")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--i", type=int, required=True)
    _add_common(pb)
    pp = psub.add_parser("pure-braid", help="expanded pure braid tau_ij")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--i", type=int, required=True)
    pp.add_argument("--j", type=int, required=True)
    _add_common(pp)
    pl = psub.add_parser("loop", help="puncture generator loop")
    pl.add_argument("--basepoint", required=True)
    pl.add_argument("--puncture", required=True)
    pl.add_argument("--radius", type=float, required=True)
    _add_common(pl)
    pls = psub.add_parser("loops", help="generator loops around several punctures")
    pls.add_argument("--basepoint", required=True)
    pls.add_argument("--punctures", nargs="+", required=True)
    pls.add_argument("--radius", type=float, required=True)
    _add_common(pls)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("fuchsian", help="monodromy of a logarithmic connection")
    fsub = p.add_subparsers(dest="fuchsian_command", required=True)
    fm = fsub.add_parser("monodromy")
    fm.add_argument("--conn", required=True)
    fm.add_argument("--loops", required=True)
    fm.add_argument("--tol", type=float, default=1e-10)
    _add_common(fm)
    p.set_defaults(func=_cmd_fuchsian)

    p = sub.add_parser("synth", help="Lappo-Danilevski synthesis")
    p.add_argument("--targets", required=True)
    p.add_argument("--loops", required=True)
    p.add_argument("--points", nargs="+", required=True, help="puncture per generator")
    p.add_argument("--reference", default="inf", help="reference puncture or 'inf'")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--verify-tol", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("kz", help="Knizhnik-Zamolodchikov braid gates")
    ksub = p.add_subparsers(dest="kz_command", required=True)
    kb = ksub.add_parser("braid")
    kb.add_argument("--n", type=int, required=True)
    kb.add_argument("--spin", type=float, default=0.5)
    kb.add_argument("--lambda", dest="lam", type=float, required=True)
    kb.add_argument("--tol", type=float, default=1e-10)
    kb.add_argument("--unitarize", action="store_true")
    _add_common(kb)
    kv = ksub.add_parser("verify")
    kv.add_argument("--n", type=int, required=True)
    kv.add_argument("--spin", type=float, default=0.5)
    kv.add_argument("--lambda", dest="lam", type=float, required=True)
    kv.add_argument("--tol", type=float, default=1e-10)
    kv.add_argument("--relation-tol", type=float, default=1e-6)
    _add_common(kv)
    p.set_defaults(func=_cmd_kz)

    p = sub.add_parser("universality", help="density screening")
    usub = p.add_subparsers(dest="universality_command", required=True)
    us = usub.add_parser("screen")
    us.add_argument("--gates")
    us.add_argument("--names", help="comma-separated gate names")
    us.add_argument("--maxlen", type=int, default=16)
    us.add_argument("--budget", type=int, default=20000)
    _add_common(us)
    uc = usub.add_parser("coverage")
    uc.add_argument("--gates")
    uc.add_argument("--names")
    uc.add_argument("--maxlen", type=int, default=12)
    uc.add_argument("--eps", type=float, default=0.5)
    uc.add_argument("--samples", type=int, default=200)
    uc.add_argument("--seed", type=int, default=7)
    uc.add_argument("--budget", type=int, default=200000)
    _add_common(uc)
    p.set_defaults(func=_cmd_universality)

    p = sub.add_parser("pipeline", help="targets -> synthesis -> verification -> screen")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--generators", type=int, default=2)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--verify-tol", type=float, default=1e-4)
    p.add_argument("--maxlen", type=int, default=10)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--zero-targets", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_pipeline)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate_args(args)
        status, body = args.func(args)
        _emit({"command": _command(args), "config": _config(args), **body}, args)
        return status
    except fuchsian.NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
