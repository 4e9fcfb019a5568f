"""Command line front end.

Subcommands:

* ``compute``  Betti tables for chosen components, as text, CSV, or JSON,
  on stdout or, with ``--output``, in a file. All the components come
  from one `analysis.betti_table` call.
* ``verify``   run a structural check, or with ``all`` each one that applies
  to the field and the flags given, and print its Pass/Fail/NoClaim report.
  The checks, their order and the arguments each reads come from the
  table `analysis.CHECKS`.

Field specs are those of `scalars.make_field`: ``q`` (or ``rational``) for
the rationals or ``f<p>`` for a prime p.
Component ranges are written ``a..b`` (inclusive). Exit codes: 0 success
(and no Fail verdict), 1 a check Failed, 2 bad configuration, 3 a cutoff
or finiteness error, 4 an I/O error. Output is deterministic.

Bad input is refused by the library; this module only parses component
ranges and refuses a check without the ``--k`` its row says it reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import analysis
from .analysis import SpaceSpec, VerificationReport
from .errors import CutoffTooTight, InfiniteBasis, LoophomError
from .scalars import make_field
from .spaces import HOL, LOOP

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CUTOFF = 3
EXIT_IO = 4

CHECKS = tuple(name for name, *_ in analysis.CHECKS) + ("all",)


class ConfigError(LoophomError):
    """A component selection that is missing, doubled or unreadable, or a
    check without the --k it needs; `main` exits with EXIT_CONFIG."""


def _parse_components(single: Optional[int], ranged: Optional[str]) -> list:
    if single is not None and ranged is not None:
        raise ConfigError("give --component or --components, not both")
    if single is not None:
        return [single]
    if ranged is None:
        raise ConfigError("a component selection is required")
    lo_s, dots, hi_s = ranged.strip().partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ConfigError(f"bad component {'range' if dots else 'selection'} {ranged!r}") from None
    if lo > hi:
        raise ConfigError(f"empty component range {ranged!r}")
    return list(range(lo, hi + 1))


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process: every parse
    returns a fresh namespace, so calls share it safely."""
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
    running_all = args.check == "all"
    reports: list[VerificationReport] = []
    for name, function, reads_components, reads_k, prime in analysis.CHECKS:
        if args.check not in (name, "all"):
            continue
        # "all" runs only the checks that apply to the field and the flags
        if running_all and ((prime and field.is_rational) or (reads_k and args.k is None)):
            continue
        if reads_k and args.k is None:
            raise ConfigError(f"{name} needs --k")
        comps = [_parse_components(args.component, args.components)] if reads_components else []
        step = {"k": args.k} if reads_k else {}
        # looked up now, so a patched or traced function is the one called
        reports.append(getattr(analysis, function)(args.n, field, *comps, args.cutoff, **step))
    for report in reports:
        print(report)
    return EXIT_FAIL if any(r.failed for r in reports) else EXIT_OK


_SIGNED_VALUE_FLAGS = ("--component", "--components", "--k")


def _glue_negative_values(argv: list) -> list:
    # argparse mistakes "-2..2" after --components for an option; fuse them.
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_glue_negative_values(list(argv)))
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
