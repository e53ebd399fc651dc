"""Command line interface.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit codes:
0 for success (and for `compare` when isomorphic), 1 for a valid negative
decision (not isomorphic, no circulation function, fuzz failures), 2 for
usage or data errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import circulation, equivalence, fuzz, graph_core, realization, serialize
from .errors import ReebOrbitError
from .extraction import extract_reeb
from .surface import load_mesh, topology_summary, validate_simple_morse


def _emit(doc: dict) -> None:
    sys.stdout.write(serialize.dumps(doc))


def _read_mesh(path: str):
    with open(path, "rb") as fh:
        return load_mesh(fh)


def _read_graph(path: str):
    with open(path, "rb") as fh:
        return serialize.load_graph(fh.read())


def _read_json(path: str) -> dict:
    from .errors import ParseError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _write_or_print(doc: dict, out: str | None) -> None:
    if out:
        Path(out).write_text(serialize.dumps(doc), encoding="utf-8")
    else:
        _emit(doc)


def cmd_validate(args) -> int:
    report = validate_simple_morse(_read_mesh(args.mesh))
    _emit(report.to_dict())
    return 0 if report.is_simple_morse else 1


def cmd_extract(args) -> int:
    s = _read_mesh(args.mesh)
    g = extract_reeb(s, samples=args.samples)
    _write_or_print(serialize.graph_to_dict(g), args.output)
    return 0


def cmd_invariants(args) -> int:
    g = _read_graph(args.graph)
    dims = graph_core.homology_dims(g)
    try:
        formula = {"value": graph_core.genus(g, method="formula")}
    except ReebOrbitError as exc:
        formula = {
            "error": type(exc).__name__,
            "value": graph_core.genus_formula_value(g),
        }
    payload = {
        "sigma": graph_core.sigma(g),
        "genus_realize": graph_core.genus(g, method="realize"),
        "genus_formula": formula,
        "homology": dims.to_dict(),
        "total_mass": g.total_mass,
        "orbit_moduli_dimension": graph_core.orbit_moduli_dimension(g),
    }
    _emit(payload)
    return 0


def cmd_compare(args) -> int:
    if args.augmented:
        a1 = serialize.augmented_from_dict(_read_json(args.first))
        a2 = serialize.augmented_from_dict(_read_json(args.second))
        iso = equivalence.match_augmented(a1, a2, tol_f=args.tol_f, tol_mass=args.tol_mass)
    else:
        g1 = _read_graph(args.first)
        g2 = _read_graph(args.second)
        iso = equivalence.match_measured(g1, g2, tol_f=args.tol_f, tol_mass=args.tol_mass)
    _emit(iso.to_dict())
    return 0 if iso.ok else 1


def cmd_circulation(args) -> int:
    g = _read_graph(args.graph)
    if args.action == "solve":
        res = circulation.solve_circulations(g)
        payload = {
            "exists": res.exists,
            "homogeneous_dimension": len(res.basis),
        }
        if res.exists:
            payload["particular"] = {
                str(eid): list(pair) for eid, pair in sorted(res.particular.limits.items())
            }
            payload["basis"] = [
                {str(eid): list(pair) for eid, pair in sorted(b.limits.items())}
                for b in res.basis
            ]
        else:
            payload["violated_total_moment"] = res.violated_moment
        _emit(payload)
        return 0 if res.exists else 1
    if not args.data:
        raise ReebOrbitError("circulation check needs a data file")
    doc = _read_json(args.data)
    try:
        limits = {int(k): (float(v[0]), float(v[1])) for k, v in doc["circulation"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReebOrbitError(f"invalid circulation data: {exc}") from exc
    check = circulation.check_circulation(
        g, circulation.CirculationFunction(limits), tol=args.tol
    )
    _emit(
        {
            "ok": check.ok,
            "max_residual": check.max_residual,
            "newton_leibniz": {str(k): v for k, v in sorted(check.newton_leibniz.items())},
            "kirchhoff": {str(k): v for k, v in sorted(check.kirchhoff.items())},
        }
    )
    return 0 if check.ok else 1


def cmd_xi(args) -> int:
    s = _read_mesh(args.mesh)
    g = _read_graph(args.graph)
    form = serialize.oneform_from_dict(_read_json(args.form), s)
    xi = circulation.xi_class(s, form, g)
    _emit({"basis": [list(c) for c in xi.basis], "coords": [float(c) for c in xi.coords]})
    return 0


def cmd_synthesize(args) -> int:
    s = _read_mesh(args.mesh)
    g = _read_graph(args.graph)
    targets = _read_json(args.targets)
    try:
        target_c = circulation.CirculationFunction(
            {int(k): (float(v[0]), float(v[1])) for k, v in targets.get("circulation", {}).items()}
        )
        xi_doc = targets.get("xi", {"basis": [], "coords": []})
        target_xi = circulation.XiClass(
            [tuple(int(x) for x in cyc) for cyc in xi_doc["basis"]],
            np.asarray([float(c) for c in xi_doc["coords"]]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ReebOrbitError(f"invalid synthesis targets: {exc}") from exc
    form = circulation.synthesize_form(s, g, target_c, target_xi)
    _write_or_print(serialize.oneform_to_dict(form), args.output)
    return 0


def cmd_realize(args) -> int:
    g = _read_graph(args.graph)
    result = realization.realize(g, resolution=args.resolution)
    _write_or_print(result.surface.to_dict(), args.output)
    summary = topology_summary(result.surface)
    sys.stderr.write(
        f"realized: chi={summary.euler_characteristic} "
        f"boundary={summary.boundary_component_count} genus={summary.genus}\n"
    )
    return 0


def cmd_dot(args) -> int:
    g = _read_graph(args.graph)
    sys.stdout.write(serialize.to_dot(g))
    return 0


def cmd_fuzz(args) -> int:
    report = fuzz.run_property_suite(args.cases, args.seed)
    _emit(report)
    return 0 if report["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="reeb-orbit",
        description="Measured Reeb graph and orbit invariants of fields on surfaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="genericity report for a mesh field")
    sp.add_argument("mesh")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("extract", help="measured Reeb graph of a mesh field")
    sp.add_argument("mesh")
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("invariants", help="sigma, genus, homology, orbit dimension")
    sp.add_argument("graph")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("compare", help="decide isomorphism of two graphs")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--augmented", action="store_true")
    sp.add_argument("--tol-f", type=float, default=None)
    sp.add_argument("--tol-mass", type=float, default=1e-6)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("circulation", help="solve or check circulation data")
    sp.add_argument("action", choices=["solve", "check"])
    sp.add_argument("graph")
    sp.add_argument("data", nargs="?")
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_circulation)

    sp = sub.add_parser("xi", help="cycle coordinates of a one-form")
    sp.add_argument("mesh")
    sp.add_argument("form")
    sp.add_argument("graph")
    sp.set_defaults(func=cmd_xi)

    sp = sub.add_parser("synthesize", help="one-form realizing circulation targets")
    sp.add_argument("mesh")
    sp.add_argument("graph")
    sp.add_argument("targets")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("realize", help="build a surface from an abstract graph")
    sp.add_argument("graph")
    sp.add_argument("--resolution", type=int, default=8)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("dot", help="DOT rendering of a graph")
    sp.add_argument("graph")
    sp.set_defaults(func=cmd_dot)

    sp = sub.add_parser("fuzz", help="run the random property suites")
    sp.add_argument("--cases", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_fuzz)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ReebOrbitError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except FileNotFoundError as exc:
        _emit({"error": "FileNotFound", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
