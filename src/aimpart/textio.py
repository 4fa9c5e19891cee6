"""Whitespace-separated text tables: the one line reader behind pro-atom
tables, DMA site files and ESP field-point files."""

import math

from .errors import ValidationError


def read_rows(path, fields, noun, nonnegative=()):
    """(first line, rows, problems) of a text table with the named `fields`.

    Blank lines and lines starting with '#' are skipped. A field named
    "label" stays text; every other field must be a finite number, and one
    named in `nonnegative` must also be >= 0. Each refused line gives one
    '<path>:<line>: ...' problem naming the entry `noun`. The first line
    comes back stripped, for formats with a header. An unreadable file
    raises ValidationError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError([f"cannot read {path}: {exc}"]) from exc
    text = [name == "label" for name in fields]
    nonneg = [i for i, name in enumerate(fields) if name in nonnegative]
    rows, problems = [], []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != len(fields):
            expected = " ".join(f"<{name}>" for name in fields)
            problems.append(f"{path}:{lineno}: expected '{expected}'")
            continue
        try:
            row = [part if t else float(part) for t, part in zip(text, parts)]
        except ValueError:
            problems.append(f"{path}:{lineno}: non-numeric {noun}")
            continue
        if not all(t or math.isfinite(x) for t, x in zip(text, row)):
            problems.append(f"{path}:{lineno}: non-finite {noun}")
        elif any(row[i] < 0 for i in nonneg):
            problems.append(f"{path}:{lineno}: negative {noun}")
        else:
            rows.append(row)
    return lines[0].strip(), rows, problems
