"""Command-line interface.

Exit codes: 0 success, 1 usage or parse error, 2 validation failure,
3 internal cross-check divergence (two verification routes disagreed).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, Sequence

from . import catalog as catalog_mod
from .errors import (
    CatalogKeyError,
    CrossCheckError,
    PcgFileError,
    PcgValidationError,
    ResourceLimitError,
    StateConditionError,
)
from .fileio import PcgFile, indented_json, load_pcg_file, to_dot, to_json_dict
from .graph import DEFAULT_CENSUS_CAP, MAX_CENSUS_CAP, is_colorable, validate
from .search import classify, enumerate_pcgs
from .states import (
    MAX_SHOTS,
    build_state,
    joint_z_probability,
    project_z,
    sample_counts,
    x_product_distribution,
)
from .verify import MAX_TABLE_N, SIMULATE_UP_TO, success_table, verify


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage and exits with 2 on usage errors; the contract
    # here is one error line and exit 1, like every other error.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, as_json: bool, human: Callable[[], str]) -> None:
    """Print the payload as JSON, or else the text that ``human`` builds."""
    print(indented_json(payload) if as_json else human())


def _print_or_write(text: str, output: str | None) -> None:
    """Print ``text``, or write it to the file ``output``; an unwritable
    file is refused like an unreadable one."""
    if not output:
        print(text, end="")
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PcgFileError(f"cannot write {output}: {exc.strerror or exc}") from None


def _parse_outcome(value_text: str, where: str) -> int:
    """Normalize a qubit outcome spelling to a digit.

    The spellings +1/1 mean digit 0 (the Z = +1 eigenstate), -1 means
    digit 1, and a bare 0 also means digit 0.
    """
    mapping = {"+1": 0, "1": 0, "0": 0, "-1": 1}
    value_text = value_text.strip()
    if value_text not in mapping:
        raise PcgFileError(f"{where}: qubit outcomes are +1/1/0 (digit 0) or -1 (digit 1)")
    return mapping[value_text]


def _parse_condition(spec: str) -> dict[int, int]:
    """Parse "Z1=1,Z3=-1" into a site->digit map."""
    assignment: dict[int, int] = {}
    for chunk in spec.split(","):
        part = chunk.strip()
        if not part:
            continue
        if not part.upper().startswith("Z") or "=" not in part:
            raise PcgFileError(f"condition {part!r}: expected Z<site>=<outcome>")
        site_text, value_text = part[1:].split("=", 1)
        try:
            site = int(site_text)
        except ValueError:
            raise PcgFileError(f"condition {part!r}: bad site index") from None
        if site in assignment:
            raise PcgFileError(f"condition {part!r}: site {site} listed twice")
        assignment[site] = _parse_outcome(value_text, f"condition {part!r}")
    return assignment


def _parse_observable(spec: str) -> tuple[str, list[int], str | None]:
    """Parse "X:2,3", "Y:1,2", or "Z:1,2,3[=outcome]"."""
    text = spec.strip()
    if ":" not in text:
        raise PcgFileError(f"observable {text!r}: expected LETTER:site,site,...")
    letter, rest = text.split(":", 1)
    letter = letter.strip().upper()
    if letter not in ("X", "Y", "Z"):
        raise PcgFileError(f"observable {text!r}: letter must be X, Y, or Z")
    outcome = None
    if "=" in rest:
        rest, outcome = rest.split("=", 1)
        if letter != "Z":
            raise PcgFileError("only Z observables take an =outcome suffix")
    try:
        sites = [int(tok) for tok in rest.split(",") if tok.strip()]
    except ValueError:
        raise PcgFileError(f"observable {text!r}: bad site list") from None
    if not sites:
        raise PcgFileError(f"observable {text!r}: empty site list")
    # the kernels count each site once, but a repeated Pauli factor cancels
    seen: set[int] = set()
    for site in sites:
        if site in seen:
            raise PcgFileError(f"observable {text!r}: site {site} listed twice")
        seen.add(site)
    return letter, sites, outcome


def cmd_validate(args) -> int:
    instance = load_pcg_file(args.file)
    report = validate(instance.pcg)
    payload = {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "message": v.message, "edges": list(v.edges)}
            for v in report.violations
        ],
    }
    if report.ok:
        _emit(payload, args.json, lambda: "ok")
        return 0
    _emit(payload, args.json, lambda: "\n".join(
        f"violation [{v.kind}]: {v.message}" for v in report.violations))
    return 2


def cmd_check(args) -> int:
    # colorability is purely combinatorial, so no full-validity gate here;
    # `validate` and `verify` enforce the structural rules
    instance = load_pcg_file(args.file)
    result = is_colorable(instance.pcg)
    payload = {
        "colorable": result.colorable,
        "rank_a": result.rank_a,
        "rank_b": result.rank_b,
        "witness": list(result.witness.values) if result.witness else None,
    }

    def human() -> str:
        ranks = f"(rank A = {result.rank_a}, rank [A|Theta] = {result.rank_b})"
        if not result.colorable:
            return f"un-colorable {ranks}"
        witness = " ".join("G" if v == 1 else "R" for v in result.witness.values)
        return f"colorable {ranks}\nwitness coloring (vertex 1..n): {witness}"

    _emit(payload, args.json, human)
    return 0


def cmd_simulate(args) -> int:
    if args.shots is not None and args.shots > MAX_SHOTS:
        raise ResourceLimitError(f"--shots {args.shots} exceeds the ceiling of {MAX_SHOTS}")
    instance = load_pcg_file(args.file)
    state = build_state(instance.pcg, instance.alpha, instance.b_terms)
    payload: dict = {}
    lines: list[str] = []
    if args.condition:
        assignment = _parse_condition(args.condition)
        prob, post = project_z(state, assignment)
        payload["condition"] = {
            "assignment": {str(k): v for k, v in sorted(assignment.items())},
            "probability": prob,
        }
        lines.append(f"P(condition) = {prob:.12g}")
        if post is None:
            payload["post_state"] = None
            lines.append("conditioned state is empty")
            _emit(payload, args.json, lambda: "\n".join(lines))
            return 0
        state = post
    if args.observable:
        letter, sites, outcome = _parse_observable(args.observable)
        if letter in ("X", "Y"):
            dist = x_product_distribution(state, sites, basis=letter)
            payload["distribution"] = {str(k): v for k, v in sorted(dist.items())}
            for power, prob in sorted(dist.items()):  # instance files hold qubits: powers 0 and 1
                sign = "-1" if power == 1 else "+1"
                lines.append(f"P({letter} product over {sites} = {sign}) = {prob:.12g}")
        else:
            digit = 0
            if outcome is not None:
                digit = _parse_outcome(outcome, f"observable outcome {outcome!r}")
            prob = joint_z_probability(state, sites, digit)
            payload["joint_probability"] = prob
            lines.append(f"P(all Z sites {sites} -> digit {digit}) = {prob:.12g}")
    elif not args.condition:
        amps = state.listing()
        payload["state"] = {k: {"re": a.real, "im": a.imag} for k, a in amps}
        lines.append(f"state has {len(amps)} nonzero amplitudes")
        lines.extend(f"  |{k}> {a.real:+.9f}{a.imag:+.9f}i" for k, a in amps)
    if args.shots is not None:
        counts = dict(sorted(sample_counts(state, args.shots, args.seed).items()))
        payload["sampled_counts"] = counts
        lines.append(f"sampled counts ({args.shots} shots): {counts}")
    _emit(payload, args.json, lambda: "\n".join(lines))
    return 0


def _certificate_text(cert) -> str:
    lines = [
        f"instance: n={cert.n}, {len(cert.edges)} edges, digest {cert.pcg_digest[:16]}",
        f"ranks: rank(A)={cert.rank_a}, rank([A|Theta])={cert.rank_b}"
        + (" (colorable)" if cert.colorable else " (un-colorable)"),
    ]
    if cert.census_skipped:
        lines.append("classical census: skipped (over cap)")
    else:
        lines.append(
            f"classical census: {cert.census_satisfying} of {cert.census_total} "
            "assignments satisfy every constraint"
        )
    for check in cert.hardy_checks:
        lines.append(
            f"P(X product over {set(check.edge)} = {check.required:+d} | rest Z=+1) "
            f"= {check.probability:.12g}"
        )
    lines.append(
        f"success: P(Z=+1 on {set(cert.success.sites)}) = {cert.success.simulated:.12g} "
        f"(formula {cert.success.formula:.12g}, applicable)"
    )
    verdict = cert.verdict.upper() if cert.verdict == "paradox" else cert.verdict
    lines.append(f"verdict: {verdict}" + (f" ({cert.reason})" if cert.reason else ""))
    return "\n".join(lines)


def cmd_verify(args) -> int:
    instance = load_pcg_file(args.file)
    cert = verify(instance.pcg, instance.alpha, instance.b_terms, lhv_cap=args.lhv_cap)
    _emit(cert.to_json_dict(), args.json, lambda: _certificate_text(cert))
    return 0


def cmd_table(args) -> int:
    rows = success_table(args.max_n)
    payload = {"rows": [r.to_json_dict() for r in rows]}

    def human() -> str:
        lines = ["   n        loop  generalized     standard" + ("    simulated" if args.simulate else "")]
        for r in rows:
            line = f"{r.n:4d}  {r.p_loop:10.8f}  {r.p_generalized:11.8g}  {r.p_standard:11.8g}"
            if args.simulate:
                line += f"  {r.simulated_loop:11.8f}" if r.simulated_loop is not None else "            -"
            lines.append(line)
        return "\n".join(lines)

    _emit(payload, args.json, human)
    return 0


def cmd_search(args) -> int:
    sizes = None
    if args.sizes:
        try:
            lo, hi = args.sizes.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise PcgFileError(f"--sizes {args.sizes!r}: expected a..b") from None
        # sizes outside 1..n-1 are ignored anyway; clamping keeps a huge
        # range from being walked
        sizes = range(max(lo, 1), min(hi, args.n - 1) + 1)
    stream = enumerate_pcgs(args.n, args.max_edges, sizes)
    census = classify(stream)
    payload = census.to_json_dict()
    if not args.irreducible_only:
        payload["instances"] = [p.to_json_dict() for p in stream]
    print(indented_json(payload))
    return 0


def _parse_params(pairs: Sequence[str]) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise CatalogKeyError(f"--params entry {pair!r}: expected key=value")
        key, value = pair.split("=", 1)
        if key in params:
            raise CatalogKeyError(f"--params {pair!r}: key {key!r} listed twice")
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                raise CatalogKeyError(f"--params {pair!r}: value must be a number") from None
    return params


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = []
        for entry_id in catalog_mod.catalog_ids():
            entry = catalog_mod.get(entry_id)
            summary = entry.description.split(". ")[0].rstrip(".") + "."
            rows.append(f"{entry_id:18s} {summary}")
        print("\n".join(rows))
        return 0
    params = _parse_params(args.params)
    entry = catalog_mod.get(args.id, params)
    if args.action == "show":
        payload: dict = {
            "id": entry.id,
            "kind": entry.kind,
            "description": entry.description,
            "params": {k: (v if not isinstance(v, complex) else v.real) for k, v in entry.params.items()},
            "expected": {
                "colorable": entry.expected.colorable,
                "paradox": entry.expected.paradox,
                "success_probability": entry.expected.success_probability,
                "basis": entry.expected.basis,
            },
        }
        if entry.pcg is not None:
            payload["pcg"] = to_json_dict(
                PcgFile(pcg=entry.pcg, alpha=entry.alpha, b_terms=entry.b_terms)
            )
        if entry.qudit_d is not None:
            payload["d"] = entry.qudit_d
        if entry.pps is not None:
            payload["pps"] = {
                "pre": entry.pps.pre_spec,
                "post": entry.pps.post_spec,
                "checks": [
                    {"sites": list(c.sites), "sign": c.sign} for c in entry.pps.checks
                ],
            }
        print(indented_json(payload))
        return 0
    # export
    if entry.pcg is None:
        print(f"catalog entry {entry.id!r} has no instance-file representation", file=sys.stderr)
        return 1
    instance = PcgFile(pcg=entry.pcg, alpha=complex(entry.alpha), b_terms=entry.b_terms)
    _print_or_write(indented_json(to_json_dict(instance)) + "\n", args.output)
    return 0


def cmd_export(args) -> int:
    instance = load_pcg_file(args.file)
    if not args.dot:
        raise PcgFileError("export currently supports --dot only")
    _print_or_write(to_dot(instance.pcg), args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pcgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", parents=[common], help="check the structural rules")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", parents=[common], help="decide colorability by ranks")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", parents=[common], help="condition and measure the state")
    p.add_argument("file")
    p.add_argument("--condition", help='e.g. "Z1=1,Z2=1" (qubits: +1/1/0 -> digit 0, -1 -> digit 1)')
    p.add_argument("--observable", help='e.g. "X:2,3", "Y:1,2", or "Z:1,2,3=+1"')
    p.add_argument("--shots", type=int, help=f"also sample counts (demo only, at most {MAX_SHOTS})")
    p.add_argument("--seed", type=int, help="sampler seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common], help="full paradox certificate")
    p.add_argument("file")
    p.add_argument("--lhv-cap", type=int, default=DEFAULT_CENSUS_CAP, dest="lhv_cap",
                   help=f"largest n for the exhaustive classical census (at most {MAX_CENSUS_CAP})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[common], help="success probability table")
    p.add_argument("--max-n", type=int, required=True, dest="max_n",
                   help=f"last row of the table (at most {MAX_TABLE_N})")
    p.add_argument("--simulate", action="store_true",
                   help=f"show the simulated loop column (n <= {SIMULATE_UP_TO})")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="enumerate and classify small graphs (JSON output)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-edges", type=int, required=True, dest="max_edges")
    p.add_argument("--sizes", help="edge size range a..b")
    p.add_argument("--irreducible-only", action="store_true", dest="irreducible_only")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="built-in instances")
    cat_sub = p.add_subparsers(dest="action", required=True)
    c = cat_sub.add_parser("list")
    c.set_defaults(func=cmd_catalog)
    c = cat_sub.add_parser("show")
    c.add_argument("id")
    c.add_argument("--params", nargs="*", help="key=value entry parameters")
    c.set_defaults(func=cmd_catalog)
    c = cat_sub.add_parser("export")
    c.add_argument("id")
    c.add_argument("--params", nargs="*", help="key=value entry parameters")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_catalog)

    p = sub.add_parser("export", help="graph export")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # Parsing never mutates the parser, so one per process serves every
    # main() call; build_parser() itself still returns a fresh one.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed early, e.g. `| head -1`
        try:  # so that the flush at interpreter exit writes nowhere, quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stream with no descriptor, such as a test capture
            pass
        return 1
    except PcgFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PcgValidationError, StateConditionError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal cross-check divergence: {exc}", file=sys.stderr)
        return 3
    except (CatalogKeyError, ResourceLimitError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
