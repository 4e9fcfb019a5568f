"""Command line front end.

Subcommands:

* ``compute``  Betti tables for chosen components, as text, CSV, or JSON,
  on stdout or, with ``--output``, in a file. All the components come
  from one `analysis.betti_table` call.
* ``verify``   run one of the structural checks and report Pass/Fail.

Field specs are those of `scalars.make_field`: ``q`` (or ``rational``) for
the rationals or ``f<p>`` for a prime p.
Component ranges are written ``a..b`` (inclusive). Exit codes: 0 success
(and no Fail verdict), 1 a check Failed, 2 bad configuration, 3 a cutoff
or finiteness error, 4 an I/O error. Output is deterministic.

Bad input is refused by the library (a malformed or non-prime field
spec, n < 1, a negative cutoff, a nonpositive k for ``unit``, a
prime-only check over q); this module only parses component ranges and
checks that ``--k`` is given where a check needs it.

``verify --check oracle`` compares the engine with the independent
monomial count of `analysis.betti_oracle`, for any field and any n.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import analysis
from .analysis import SpaceSpec, VerificationReport
from .errors import CutoffTooTight, InfiniteBasis
from .scalars import make_field
from .spaces import HOL, LOOP

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CUTOFF = 3
EXIT_IO = 4

CHECKS = ("collapse", "periodicity", "dichotomy", "unit", "oracle", "all")


class ConfigError(Exception):
    pass


def _parse_components(single: Optional[int], ranged: Optional[str]) -> list:
    if single is not None and ranged is not None:
        raise ConfigError("give --component or --components, not both")
    if single is not None:
        return [single]
    if ranged is None:
        raise ConfigError("a component selection is required")
    text = ranged.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"bad component range {ranged!r}") from None
        if lo > hi:
            raise ConfigError(f"empty component range {ranged!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ConfigError(f"bad component selection {ranged!r}") from None


def _render_text(space, cutoff, grading, columns) -> str:
    lines = [
        f"space={space.variant} n={space.n} field={space.field} "
        f"grading={grading} cutoff={cutoff}"
    ]
    for k in sorted(columns):
        lines.append(f"component {k}:")
        col = columns[k]
        for d in sorted(col):
            lines.append(f"  degree {d}: {col[d]}")
    return "\n".join(lines) + "\n"


def _render_json(space, cutoff, grading, columns) -> str:
    payload = {
        "space": space.variant,
        "n": space.n,
        "field": str(space.field),
        "grading": grading,
        "cutoff": cutoff,
        "components": {
            str(k): {str(d): columns[k][d] for d in sorted(columns[k])}
            for k in sorted(columns)
        },
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _render_csv(columns) -> str:
    lines = ["component,degree,dimension"]
    for k in sorted(columns):
        for d in sorted(columns[k]):
            lines.append(f"{k},{d},{columns[k][d]}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loophom",
        description="Exact homology of sphere mapping spaces into projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_space: bool):
        if need_space:
            p.add_argument("--space", choices=(HOL, LOOP), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--field", required=True, help="q or f<p>")
        p.add_argument("--component", type=int)
        p.add_argument("--components", help="a..b or a single integer")
        p.add_argument("--cutoff", type=int, default=analysis.DEFAULT_CUTOFF)

    pc = sub.add_parser("compute", help="Betti tables for components")
    common(pc, need_space=True)
    pc.add_argument("--grading", choices=analysis.GRADINGS, default="ordinary")
    pc.add_argument("--format", choices=("text", "csv", "json"), default="text")
    pc.add_argument("--output", help="write here instead of stdout")

    pv = sub.add_parser("verify", help="run a structural check")
    pv.add_argument("--check", choices=CHECKS, required=True)
    common(pv, need_space=False)
    pv.add_argument("--k", type=int, help="power of iota for periodicity/unit")
    return parser


def _cmd_compute(args) -> int:
    field = make_field(args.field)
    components = _parse_components(args.component, args.components)
    space = SpaceSpec(args.space, args.n, field)
    columns = analysis.betti_table(space, components, args.cutoff, args.grading).columns()
    if args.format == "text":
        text = _render_text(space, args.cutoff, args.grading, columns)
    elif args.format == "json":
        text = _render_json(space, args.cutoff, args.grading, columns)
    else:
        text = _render_csv(columns)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    field = make_field(args.field)
    p = field.characteristic
    running_all = args.check == "all"
    reports: list[VerificationReport] = []
    for check in CHECKS[:-1] if running_all else [args.check]:
        needs_k = check in ("periodicity", "unit")
        # "all" runs only the checks that apply to the field and the flags
        if running_all and (
            (p == 0 and check in ("collapse", "periodicity", "unit"))
            or (needs_k and args.k is None)
        ):
            continue
        if needs_k and args.k is None:
            raise ConfigError(f"{check} needs --k")
        comps = None if check == "unit" else _parse_components(args.component, args.components)
        if check == "collapse":
            report = analysis.check_collapse(args.n, p, comps, args.cutoff)
        elif check == "periodicity":
            report = analysis.check_periodicity(args.n, p, args.k, comps, args.cutoff)
        elif check == "dichotomy":
            report = analysis.check_dichotomy(args.n, field, comps, args.cutoff)
        elif check == "unit":
            report = analysis.unit_check(args.n, p, args.k, args.cutoff)
        else:  # oracle
            report = analysis.check_oracle(args.n, field, comps, args.cutoff)
        reports.append(report)
    for report in reports:
        print(report)
    return EXIT_FAIL if any(r.failed for r in reports) else EXIT_OK


_SIGNED_VALUE_FLAGS = ("--component", "--components", "--k")


def _glue_negative_values(argv: list) -> list:
    # argparse mistakes "-2..2" after --components for an option; fuse them.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SIGNED_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_negative_values(list(argv)))
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_verify(args)
    except (InfiniteBasis, CutoffTooTight) as exc:
        print(f"loophom: cutoff error: {exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except (ConfigError, ValueError) as exc:
        print(f"loophom: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"loophom: io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
