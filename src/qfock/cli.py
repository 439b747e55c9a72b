"""Command-line interface: JSON in, JSON out, deterministic for fixed seed.

Every invocation writes a single result document to stdout with the echoed
inputs, the outputs, a status, and the elapsed time; floats carry 17
significant digits so golden files are byte-stable (the elapsed_ms field is
the one run-dependent value).  Exit codes: 0 ok, 1 usage error, 2
computation error (including failed verification suites).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import combinat, fock, jsonio, polywick, qsde, verify, wickalg
from .fock import MAX_TENSOR_ENTRIES, refuse_large_tensor

DEFAULT_SEED = 12345
MAX_PAIRINGS = 1 << 18  # the largest table pairings and moment enumerate (n = 12 has 140,152)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QFOCK_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _read_input(args) -> dict | None:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"--input must hold a JSON object, got {type(doc).__name__}")
        return doc
    return None


def _field(doc: dict, key: str):
    """``doc[key]``; a document without it is refused by a ValueError that names the key."""
    if key not in doc:
        raise ValueError(f"the --input document must hold {key!r}")
    return doc[key]


def _q_grid(text: str) -> tuple[float, ...]:
    """The ``--q-grid`` values: at least one, each finite and in [-1, 1] like ``--q``."""
    grid = tuple(float(x) for x in text.split(",") if x.strip())
    if not grid or not all(-1.0 <= q <= 1.0 for q in grid):
        raise ValueError(f"--q-grid must list one or more finite values in [-1, 1], got {text!r}")
    return grid


def _refuse_large_table(count: int, rows: str = "pairings") -> None:
    """Refuse, before enumerating, a table of more than ``MAX_PAIRINGS`` rows."""
    if count > MAX_PAIRINGS:
        raise ValueError(f"the table would list {count} {rows}, more than {MAX_PAIRINGS}")


def _vectors(doc: dict) -> list:
    """The document's ``vectors``: a nonempty list of equal-length lists of finite numbers."""
    vectors = doc.get("vectors")
    if not (isinstance(vectors, list) and vectors and all(
            isinstance(v, list) and len(v) == len(vectors[0]) > 0
            and all(fock.is_finite_number(x) for x in v) for v in vectors)):
        raise ValueError("'vectors' must be a nonempty list of equal-length lists of numbers")
    return vectors


def _is_int_pairs(value) -> bool:
    """Whether a JSON value is a list of ``[s, t]`` integer pairs."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(i) is int for i in p) for p in value)


def _word_vectors(word: str, gram: str):
    letters = sorted(set(word))
    if gram != "identity":
        raise ValueError("only --gram identity is built in; pass vectors via --input")
    d = len(letters)
    basis = {c: np.eye(d)[i] for i, c in enumerate(letters)}
    return [basis[c] for c in word]


# -- subcommand implementations ------------------------------------------------


def _cmd_pairings(args):
    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    ks = range(args.n // 2 + 1) if args.k is None else [args.k]
    # a negative --k is left to pairing_table, which refuses it
    _refuse_large_table(sum(math.comb(args.n, 2 * k) * combinat.double_factorial_odd(k)
                            for k in ks if k >= 0))
    table = combinat.pairing_table(tuple(range(args.n)), (), args.k)
    out = [{"pairs": [[s + 1, t + 1] for s, t in pairs], "cr": cr, "sp": sp, "crb": cr + sp}
           for pairs, cr, sp in table]
    return {"count": len(out), "pairings": out}


def _cmd_cosets(args):
    if 0 <= args.k <= args.n:  # coset_reps refuses any other k
        _refuse_large_table(math.comb(args.n, args.k), "representatives")
    reps = combinat.coset_reps(args.n, args.k)
    return {"count": len(reps),
            "reps": [{"perm": list(r.permutation), "inversions": r.inversions}
                     for r in reps]}


def _cmd_moment(args):
    doc = _read_input(args)
    if doc is not None:
        vectors = [np.asarray(v, dtype=float) for v in _vectors(doc)]
    else:
        if not args.word:
            raise ValueError("need --word or --input")
        vectors = _word_vectors(args.word, args.gram)
    if len(vectors) % 2 == 0:  # an odd moment is 0 and lists no pairings
        _refuse_large_table(combinat.double_factorial_odd(len(vectors) // 2))
    return {"value": wickalg.moment(vectors, args.q)}


def _cmd_wick_expand(args):
    doc = _read_input(args)
    if doc is None:
        raise ValueError("--input with {'vectors': [...]} required")
    vectors = _vectors(doc)
    refuse_large_tensor(len(vectors[0]), len(vectors))
    return {"element": wickalg.expand_field_product(vectors, args.q).to_json()}


def _cmd_multiply(args):
    doc = _read_input(args)
    if doc is None:
        raise ValueError("--input with {'a': ..., 'b': ...} required")
    A = wickalg.WickElement.from_json(_field(doc, "a"))
    B = wickalg.WickElement.from_json(_field(doc, "b"))
    return {"element": wickalg.multiply(A, B, args.q).to_json()}


def _cmd_norm(args):
    doc = _read_input(args)
    if doc is None:
        raise ValueError("--input with {'element': ...} required")
    A = wickalg.WickElement.from_json(_field(doc, "element"))
    out = {"triple_norm": wickalg.triple_norm(A, args.q)}
    if args.cutoff is not None:
        op = wickalg.to_operator(A, args.q, args.cutoff)
        sectors = sorted(op.exact_sectors)
        out["operator_norm_estimate"] = fock.operator_norm(op, sectors)
        out["sectors"] = sectors
    return out


def _cmd_delta_r(args):
    doc = _read_input(args)
    if doc is None:
        raise ValueError("--input document required")
    pattern = polywick.InsertionPattern.from_json(_field(doc, "pattern"))
    F = fock.FockTensor.from_json(_field(doc, "f"))
    pi, operators = doc.get("pi", []), _field(doc, "operators")
    if not isinstance(operators, list) or not _is_int_pairs(pi):
        raise ValueError("'pi' must be a list of [s, t] index pairs and 'operators' a list")
    pi = combinat.Pairing(tuple(tuple(p) for p in pi), pattern.leg_context())
    As = [wickalg.WickElement.from_json(a) for a in operators]
    return {"element": polywick.delta_R(pattern, pi, F, As, args.q).to_json()}


def _cmd_counterterm(args):
    doc = _read_input(args)
    if doc is not None:
        configs = doc.get("configs")
        if not isinstance(configs, list) or not all(
                isinstance(c, dict) and type(c.get("n_legs")) is int
                and isinstance(c.get("inserts"), list)
                and all(type(i) is int for i in c["inserts"])
                and _is_int_pairs(c.get("pairs")) for c in configs):
            raise ValueError("'configs' must be a list of objects with an integer 'n_legs', "
                             "a list of integer 'inserts' and a list of [s, t] integer 'pairs'")
        configs = [(c["n_legs"], tuple(c["inserts"]),
                    tuple(tuple(p) for p in c["pairs"])) for c in configs]
    elif args.family == "quartic2d":
        configs = polywick.quartic_2d_configs()
    elif args.family == "quartic3d":
        configs = polywick.quartic_3d_configs()
    else:
        raise ValueError("need --family quartic2d|quartic3d or --input configs")
    poly = polywick.counterterm_polynomial(configs)
    return {"config_count": len(configs), "polynomial": poly.to_json(),
            "eval_at_one": poly.evaluate(1.0, 1.0)}


def _grid_from_args(args) -> qsde.TimeGrid:
    return qsde.TimeGrid(args.horizon, args.cells)


def _inserted_element(args, grid) -> wickalg.WickElement:
    """The operator ``a`` of ``levy`` and ``chen`` (default 1), refused when the
    insertion product's top tensor, of degree 2 + its top chaos, is too large."""
    doc = _read_input(args)
    a = (wickalg.WickElement.from_json(_field(doc, "a")) if doc is not None
         else wickalg.WickElement.one(grid.cells))
    refuse_large_tensor(grid.cells, 2 + a.max_degree())
    return a


def _cmd_levy(args):
    grid = _grid_from_args(args)
    a = _inserted_element(args, grid)
    el = qsde.levy_area(a, args.s, args.t, args.side, grid, args.q, args.diag_weight)
    return {"element": el.to_json()}


def _cmd_chen(args):
    grid = _grid_from_args(args)
    a = _inserted_element(args, grid)
    r = qsde.chen_residual(args.s, args.u, args.t, a, args.side, grid,
                           args.q, args.diag_weight)
    return {"max_abs_coeff": r.max_abs_coeff()}


def _cmd_bphz(args):
    rho = {"quartic": qsde.quartic_bump, "triangle": qsde.triangle_bump}[args.mollifier]
    val = qsde.bphz_constant(rho, args.epsilon)
    return {"value": val, "deviation_from_half": abs(val - 0.5)}


def _cmd_ito(args):
    grid = _grid_from_args(args)
    refuse_large_tensor(grid.cells, 1)  # only vectors are built at d = cells
    return qsde.ito_residual(args.p, args.t, grid, args.q)


def _cmd_verify(args):
    if (args.d is not None and args.d < 1) or (args.chaos is not None and args.chaos < 0):
        raise ValueError(f"need --d >= 1 and --chaos >= 0, got --d {args.d}, --chaos {args.chaos}")
    options = {"d": args.d, "chaos": args.chaos,
               "q_grid": None if args.q_grid is None else _q_grid(args.q_grid)}
    return verify.run_suites([args.suite], seed=_resolve_seed(args),
                             **{k: v for k, v in options.items() if v is not None})


# -- wiring ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfock",
                     description="q-deformed Gaussian operator calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--q", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--input", type=str, default=None)
        p.add_argument("--output", type=str, default=None)
        return p

    p = add("pairings", _cmd_pairings, "enumerate pairings with statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = add("cosets", _cmd_cosets, "minimum-inversion coset representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("moment", _cmd_moment, "vacuum moment of a field-operator word")
    p.add_argument("--word", type=str, default=None)
    p.add_argument("--gram", type=str, default="identity")

    add("wick-expand", _cmd_wick_expand, "Wick expansion of a field product")
    add("multiply", _cmd_multiply, "product of two Wick expansions")

    p = add("norm", _cmd_norm, "graded norm (and exact operator norm)")
    p.add_argument("--cutoff", type=int, default=None)

    add("delta-r", _cmd_delta_r, "renormalised insertion product")

    p = add("counterterm", _cmd_counterterm, "counterterm polynomial of configs")
    p.add_argument("--family", type=str, default=None,
                   choices=["quartic2d", "quartic3d"])

    for name, fn, help_text in (("levy", _cmd_levy, "Levy area with insertion"),
                                ("chen", _cmd_chen, "Chen additivity defect")):
        p = add(name, fn, help_text)
        p.add_argument("--s", type=float, required=True)
        if name == "chen":
            p.add_argument("--u", type=float, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--side", type=str, default=qsde.LEFT,
                       choices=[qsde.LEFT, qsde.RIGHT])
        p.add_argument("--cells", "--grid", dest="cells", type=int, default=16)
        p.add_argument("--horizon", type=float, default=1.0)
        p.add_argument("--diag-weight", type=float, default=0.0)

    p = add("bphz-constant", _cmd_bphz, "renormalisation constant by quadrature")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--mollifier", type=str, default="quartic",
                   choices=["quartic", "triangle"])

    p = add("ito", _cmd_ito, "discrete Ito residual report")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--cells", "--grid", dest="cells", type=int, default=64)
    p.add_argument("--horizon", type=float, default=1.0)

    p = add("verify", _cmd_verify, "run verification suites")
    p.add_argument("--suite", type=str, default="all")
    p.add_argument("--q-grid", type=str, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--chaos", type=int, default=None)
    return parser


def _echo_inputs(args) -> dict:
    skip = {"fn", "command", "output"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        # JSON has no NaN or infinity: echo a rejected value as text
        out[key] = str(value) if _non_finite(value) else value
    return out


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _text_non_finite(obj):
    """A failed report with each non-finite metric as text, since JSON has none."""
    if isinstance(obj, dict):
        return {key: _text_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_text_non_finite(value) for value in obj]
    return str(obj) if _non_finite(obj) else obj


def _check_inputs(args) -> None:
    for key, value in vars(args).items():
        if _non_finite(value):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if not -1.0 <= args.q <= 1.0:
        raise ValueError(f"--q must lie in [-1, 1], got {args.q}")


def _preprocess(argv):
    # argparse reads "-0.9,0,0.9" as a flag; fold list values into = form
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--q-grid" and i + 1 < len(argv):
            out.append(f"--q-grid={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _document(args, outputs, status: str, start: float) -> str:
    result = {
        "command": args.command,
        "inputs": _echo_inputs(args),
        "outputs": outputs,
        "status": status,
        "elapsed_ms": int(round(1000.0 * (time.monotonic() - start))),
    }
    return jsonio.dumps(result) + "\n"


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(_preprocess(list(argv)))
    start = time.monotonic()
    status = "ok"
    try:
        _check_inputs(args)
        outputs = args.fn(args)
        exit_code = 0
        if args.command == "verify" and not outputs.get("passed", False):
            status = "error"
            outputs = {"code": "verification-failed", **_text_non_finite(outputs)}
            exit_code = 2
        # rendering raises on a non-finite result, which is reported like any error
        text = _document(args, outputs, status, start)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        text = _document(args, {"code": type(exc).__name__, "message": str(exc)}, "error", start)
        exit_code = 2
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
