"""Command-line interface: ``main`` and the JSON report format.

Subcommands: estimate (approximate log Z with an additive guarantee),
exact (brute-force log Z), verify (property-check suites), decay (measure
boundary influence at a radius), gen (write a generated instance file),
check (applicability diagnostics), sawtree (debug dump of a walk tree).

Reports are JSON on stdout with every float at 17 significant digits;
diagnostics go to stderr.  Exit codes: 0 success, 1 input error, failed
verification or a log Z beyond floats, 2 decay condition violated.

The parser and the seven commands live in ``commands``, which ``main``
imports when it runs.  Importing this module therefore compiles only the
report format and loads nothing beyond the estimate path, so a caller of
``render_json`` pays for no command it does not run.
"""

from __future__ import annotations

import json
import math
import sys

__all__ = ["main", "render_json"]

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INAPPLICABLE = 2

def _format_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _emit(value, level: int, keys: dict[str, str]) -> str:
    # Ints and dict keys, most of a report's tokens, skip json.dumps: an int
    # is written as json.dumps writes it (an IntEnum as its number), and
    # ``keys`` caches the rendered str keys of one report.
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _format_float(value)
    pad = "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is str:
                text = keys.get(key)
                if text is None:
                    text = keys[key] = json.dumps(key)
            else:
                text = json.dumps(str(key))
            items.append(f"{pad}  {text}: {_emit(item, level + 1, keys)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(f"{pad}  {_emit(item, level + 1, keys)}" for item in value)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(payload: dict) -> str:
    """JSON text with floats at 17 significant digits and non-finite floats
    rendered as the strings "inf", "-inf", "nan" (plain JSON has no other
    spelling for them)."""
    return _emit(payload, 0, {}) + "\n"


def _print_report(command: str, fields: dict) -> None:
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "command": command, **fields}
    sys.stdout.write(render_json(payload))


def main(argv: list[str] | None = None) -> int:
    from .commands import build_parser

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:  # GraphFileError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
