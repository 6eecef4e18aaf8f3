"""Command-line front end: search, build, classify, equiv.

Exit codes: 0 = success (including empty search results and negative
equivalence verdicts), 2 = validation or internal failure, named on stderr,
1 = usage error.  A failed step leaves through `main`, which names it in
one stderr line and exits 2.  Every stderr line, usage errors included,
goes through one writer, which drops a line that stderr cannot take, so a
closed or read-only stderr changes no exit code.  Search output is JSON
lines, handed to the writer as each spec is found, so long runs can be
piped and truncated; identical commands with identical seeds produce
byte-identical output.  Every command writes through one buffered text
stream, stdout or --out alike and also under `python -u`, and flushes it
once at the end: a failed write exits 2 and says so, and a pipe closed by
its reader ends the output quietly.  Each subcommand imports only the
modules it runs: `search` loads `search`, `construct` and what they
import, never `entangle`, `pauli` or `equiv`, and `build`, `classify` and
`equiv` never load `search`.
"""

from __future__ import annotations

# Every process compiles and runs each module it imports, so the top imports
# only `construct`, which every subcommand runs, and each handler imports the
# rest it runs.  `construct` comes before the standard library: compiled after
# argparse, it raised peak RSS by about 0.25 MB.  Imported here, `search`
# raised the peak RSS of build, classify and equiv jobs by 0.1-0.2 MB, and
# importing `json`, which no search uses, took each search job about 2.5 ms.
from .construct import (
    DEFAULT_TOL,
    KINDS,
    MAX_M,
    NUMERIC_QUBIT_CAP,
    SpecValidationError,
    StabilizerSpec,
    bandyopadhyay_check,
    build_stabilizer,
    cyclicity_check,
    generators,
)

import argparse
import itertools
import math
import sys
import time
from contextlib import nullcontext
from pathlib import Path

DEFAULT_NUMERIC_CAP = 5


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors, written by `_stderr`."""

    def error(self, message):
        _stderr(f"{self.format_usage()}{self.prog}: error: {message}\n")
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mubforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_search = sub.add_parser("search", help="search for stabilizer specifications")
    p_search.add_argument("--m", type=int, required=True, help=f"number of qubits (1..{MAX_M})")
    p_search.add_argument("--kind", required=True, choices=KINDS)
    p_search.add_argument("--count", type=int, default=1, help="maximum number of specs")
    mode = p_search.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--exhaustive", action="store_true", help="scan the whole candidate space in order"
    )
    mode.add_argument("--seed", type=int, help="RNG seed (exactly one of --seed and --exhaustive)")
    p_search.add_argument("--out", type=Path, help="write JSON lines here instead of stdout")

    p_build = sub.add_parser("build", help="run the full pipeline on one spec file")
    p_build.add_argument("spec", type=Path)
    p_build.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_build.add_argument(
        "--numeric-cap",
        type=int,
        default=DEFAULT_NUMERIC_CAP,
        help="skip numeric MUB verification above this qubit count "
        f"(0 to {NUMERIC_QUBIT_CAP}; 0 never runs it)",
    )
    p_build.add_argument("--out", type=Path)

    p_classify = sub.add_parser("classify", help="entanglement vectors of spec files")
    p_classify.add_argument("specs", type=Path, nargs="+")
    p_classify.add_argument("--out", type=Path)

    p_equiv = sub.add_parser("equiv", help="attempt an explicit equivalence map")
    p_equiv.add_argument("spec_a", type=Path)
    p_equiv.add_argument("spec_b", type=Path)
    p_equiv.add_argument("--out", type=Path)

    return parser


def _stderr(text: str) -> None:
    """Write and flush text to stderr; if stderr cannot take it, drop the text and stderr.

    With fd 2 closed or read-only, sys.stderr is None or refuses writes.
    Setting it to None leaves no unwritten bytes for the flush at exit to
    fail on, which would exit 120, and the text never reaches stdout.
    """
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError):
        sys.stderr = None


def _say(args, text: str) -> None:
    """Write one line to stderr, prefixed with the command."""
    _stderr(f"mubforge {args.command}: {text}\n")


def _write(args, chunks) -> bool:
    """Write each text chunk as it comes to one buffered text stream; flush it once at the end.

    The stream is `--out`, or stdout's descriptor with stdout's encoding,
    block-buffered either way, also under `python -u`.  A failed write is
    named on stderr and gives False; a closed pipe ends the write quietly
    and gives True.  sys.stdout itself holds nothing to flush at exit.
    """
    try:
        with _open_output(args) as out:
            out.writelines(chunks)
            out.flush()
        return True
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            _say(args, f"cannot write output: {exc}")
        return isinstance(exc, BrokenPipeError)


def _open_output(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    if sys.stdout is None:  # started with fd 1 closed
        raise OSError("stdout is closed")
    try:
        fd = sys.stdout.fileno()
    except ValueError:  # io.UnsupportedOperation: no descriptor, as in a StringIO
        return nullcontext(sys.stdout)
    return open(fd, "w", encoding=sys.stdout.encoding, errors=sys.stdout.errors, closefd=False)


def _load_spec(path: Path) -> StabilizerSpec:
    return StabilizerSpec.from_json(path.read_text(encoding="utf-8"))


def _cmd_search(args) -> int:
    from .search import MAX_ATTEMPTS, search_specs

    if args.count < 1:
        _say(args, "error: --count must be >= 1")
        return 1
    stats: dict = {}
    try:
        specs = search_specs(args.m, args.kind, args.count, args.seed, stats)
    except ValueError as exc:
        _say(args, f"error: {exc}")
        return 1
    drawn = itertools.count()  # zip ticks it once per spec taken, so next(drawn) counts them
    lines = (spec.to_json() + "\n" for spec, _ in zip(specs, drawn))
    if not _write(args, lines):
        return 2
    found = next(drawn)
    stop = stats.get("stop")  # set only when a seeded stream ends short of --count
    if stop:
        why = (f"MAX_ATTEMPTS = {MAX_ATTEMPTS} draws ran out before every index was drawn"
               if stop == "max-attempts" else "every index was drawn, so no other spec exists")
        _say(args, f"stopped at {found} of {args.count} specs ({stop}): {why}")
    if not found:
        hint = {
            "field": "no symmetric matrix with an admissible characteristic polynomial",
            "group": "no non-polynomial symmetrizer exists or was found",
            "semigroup": "no non-polynomial symmetrizer or no admissible addend exists",
        }[args.kind]
        _say(args, f"warning: search produced no {args.kind} spec at m={args.m}: {hint}")
    return 0


def _cmd_build(args) -> int:
    import json

    from .entangle import entanglement_vector

    if not (math.isfinite(args.tol) and args.tol > 0):
        _say(args, "error: --tol must be a finite number > 0")
        return 1
    if args.numeric_cap < 0:
        _say(args, "error: --numeric-cap must be >= 0")
        return 1
    if args.numeric_cap > NUMERIC_QUBIT_CAP:
        _say(args, f"error: --numeric-cap must be at most {NUMERIC_QUBIT_CAP}")
        return 1
    spec = _load_spec(args.spec)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    spec.validate()
    timings["validate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    C = build_stabilizer(spec)
    cyclic_ok = cyclicity_check(C, spec.d)
    timings["cyclicity"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gens = generators(spec, C)
    bandy_ok = bandyopadhyay_check(gens)
    timings["classes"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ent = entanglement_vector(gens)
    timings["entanglement"] = time.perf_counter() - t0

    report = {
        "spec": spec.to_json_dict(),
        "cyclic_ok": cyclic_ok,
        "bandyopadhyay_ok": bandy_ok,
        "entanglement": ent.to_json_dict(),
    }
    numeric_ok = True
    if not (cyclic_ok and bandy_ok):
        report["mub_verification"] = "skipped (symbolic checks failed)"
    elif spec.m <= args.numeric_cap:
        from .pauli import verify_mub

        t0 = time.perf_counter()
        result = verify_mub(spec, args.tol)
        timings["verify"] = time.perf_counter() - t0
        report["mub_verification"] = "passed" if result.passed else "failed"
        report["mub_max_deviation"] = result.max_deviation
        numeric_ok = result.passed
        if not numeric_ok:
            report["mub_worst_pair"] = result.worst_pair
            i, j = result.worst_pair
            _say(
                args,
                f"numeric check failed: bases {i} and {j} (the power U^{j} of the generator) "
                f"have the largest overlap deviation from 1/d, {result.max_deviation:.3g} "
                f"(unitarity deviation of U {result.unitarity_deviation:.3g}, tol {args.tol:g})",
            )
    else:
        report["mub_verification"] = f"skipped (m > {args.numeric_cap})"
    report["timings"] = timings
    if not _write(args, [json.dumps(report, indent=2) + "\n"]):
        return 2
    if cyclic_ok and bandy_ok and numeric_ok:
        return 0
    _say(args, "one or more checks failed")
    return 2


def _cmd_classify(args) -> int:
    from .entangle import entanglement_vector

    rows = []
    failed = False
    for path in args.specs:
        try:
            spec = _load_spec(path)
            ent = entanglement_vector(generators(spec))  # generators validates spec
            counts = "(" + ",".join(str(c) for c in ent.counts) + ")"
            rows.append((str(path), spec.kind, str(spec.m), counts))
        except (OSError, ValueError) as exc:
            failed = True
            _say(args, f"{path}: {exc}")
            status = f"error:{exc.condition}" if isinstance(exc, SpecValidationError) else "error"
            rows.append((str(path), "-", "-", status))
    table = [("file", "kind", "m", "counts"), *rows]
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    lines = ("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in table)
    written = _write(args, lines)
    return 2 if failed or not written else 0


def _cmd_equiv(args) -> int:
    import json

    from .equiv import equivalence_map

    spec_a = _load_spec(args.spec_a)
    spec_b = _load_spec(args.spec_b)
    spec_a.validate()
    spec_b.validate()
    if spec_a.m != spec_b.m:
        raise SpecValidationError("m-mismatch", "specs have different qubit counts")
    f, reason = equivalence_map(spec_a, spec_b)
    verdict = {"equivalent": f is not None, "reason": reason}
    if f is not None:
        verdict["f"] = f.matrix.to_lists()
    return 0 if _write(args, [json.dumps(verdict, indent=2) + "\n"]) else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = dict(search=_cmd_search, build=_cmd_build, classify=_cmd_classify, equiv=_cmd_equiv)
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:  # a spec that cannot be read or fails a step
        _say(args, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
