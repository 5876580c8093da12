"""Explain how two trace CSVs, or two run reports, differ.

    python tests/trace_diff.py A B

For two trace CSVs (`synth run --trace`) it prints:
- the first row that differs, as both files have it;
- each numeric column's largest |delta| over the rows both files have, with
  its row and t (a non-finite value against any other value counts as inf),
  and for a text column the number of rows that differ;
- the rows whose `qp_status` differs;
- the row counts, where they differ.

For two reports (`synth run --report`) it prints each line that B adds (+)
or A has and B lacks (-), in file order, under the section it belongs to.
The `[engagements]` section holds the run's engagement events. Rows are
numbered from 0, the first row after the header; row k is step k.

Exit status: 0 when the files are identical, 1 when they differ, 2 when
they are not two traces or two reports, or a trace row has another number
of fields than the header. It is a script, not a test: pytest
does not collect it, and `src/` does not use it.
"""

from __future__ import annotations

import csv
import difflib
import io
import math
import sys

STATUS_LIMIT = 20  # qp_status rows printed one by one; the rest are counted
REPORT_HEAD = "# stlcbf run report"


def _kind(text: str) -> str:
    head = text.split("\n", 1)[0]
    if head == REPORT_HEAD:
        return "report"
    return "trace" if head.startswith("t,") else "other"


def _delta(a: str, b: str) -> float:
    if a == b:
        return 0.0
    x, y = float(a), float(b)
    d = abs(x - y)
    return d if math.isfinite(d) else math.inf


def diff_traces(a_text: str, b_text: str) -> list:
    """The lines that explain how trace B differs from trace A."""
    (header, *a_rows), (b_header, *b_rows) = (list(csv.reader(io.StringIO(text)))
                                              for text in (a_text, b_text))
    if b_header != header:
        return ["header differs:", "  A " + ",".join(header), "  B " + ",".join(b_header)]
    for side, rows in (("A", a_rows), ("B", b_rows)):
        bad = next((k for k, row in enumerate(rows) if len(row) != len(header)), None)
        if bad is not None:
            raise ValueError(f"{side} row {bad} has {len(rows[bad])} fields, not {len(header)}")
    out = []
    first = next((k for k, (ra, rb) in enumerate(zip(a_rows, b_rows)) if ra != rb), None)
    if first is None and len(a_rows) != len(b_rows):
        first = min(len(a_rows), len(b_rows))
    if first is not None:
        out.append(f"first differing row: {first}")
        for side, rows in (("A", a_rows), ("B", b_rows)):
            out.append(f"  {side} " + (",".join(rows[first]) if first < len(rows) else "(none)"))
    status = header.index("qp_status")
    pairs = list(zip(a_rows, b_rows))
    out.append("largest |delta| per column (text columns: rows that differ):")
    for j, name in enumerate(header):
        if j == status:
            continue
        if all(_is_float(ra[j]) and _is_float(rb[j]) for ra, rb in pairs):
            best, at = 0.0, None
            for k, (ra, rb) in enumerate(pairs):
                d = _delta(ra[j], rb[j])
                if d > best:
                    best, at = d, k
            where = "" if at is None else f" at row {at} t={a_rows[at][0]}"
            out.append(f"  {name}: {best:.6g}{where}")
        else:
            rows = [k for k, (ra, rb) in enumerate(pairs) if ra[j] != rb[j]]
            where = f", first at row {rows[0]} t={a_rows[rows[0]][0]}" if rows else ""
            out.append(f"  {name}: {len(rows)} rows{where}")
    flips = [(k, ra[status], rb[status]) for k, (ra, rb) in enumerate(pairs)
             if ra[status] != rb[status]]
    out.append(f"qp_status differs on {len(flips)} rows" + (":" if flips else ""))
    for k, sa, sb in flips[:STATUS_LIMIT]:
        out.append(f"  row {k} t={a_rows[k][0]}: {sa} -> {sb}")
    if len(flips) > STATUS_LIMIT:
        out.append(f"  ... {len(flips) - STATUS_LIMIT} more")
    if len(a_rows) != len(b_rows):
        out.append(f"rows: A has {len(a_rows)}, B has {len(b_rows)}")
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def diff_reports(a_text: str, b_text: str) -> list:
    """The report lines that B adds (+) or removes (-), each under its section."""
    a_lines, b_lines = a_text.splitlines(), b_text.splitlines()
    out, section = [], {}
    for lines, tag in ((a_lines, "a"), (b_lines, "b")):
        current = "(head)"
        for i, line in enumerate(lines):
            if line.startswith("["):
                current = line
            section[tag, i] = current
    matcher = difflib.SequenceMatcher(None, a_lines, b_lines, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        out += [f"- {section['a', i]} {a_lines[i]}" for i in range(i1, i2)]
        out += [f"+ {section['b', j]} {b_lines[j]}" for j in range(j1, j2)]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    texts = []
    for path in args:
        with open(path, encoding="utf-8", newline="") as fh:
            texts.append(fh.read())
    a_text, b_text = texts
    kinds = {_kind(a_text), _kind(b_text)}
    if len(kinds) != 1 or kinds == {"other"}:
        print("error: need two trace CSVs or two run reports", file=sys.stderr)
        return 2
    if a_text == b_text:
        print(f"identical ({len(a_text.encode())} bytes)")
        return 0
    try:
        lines = (diff_traces if kinds == {"trace"} else diff_reports)(a_text, b_text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1


if __name__ == "__main__":
    sys.exit(main())
