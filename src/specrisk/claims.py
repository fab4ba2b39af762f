"""Claims-file ingestion and serialization.

Two CSV layouts are accepted.  ``ltrc`` files carry ready-made triples in
columns ``y,t,delta`` (plus an optional ``group`` column, e.g. the accident
year).  ``raw`` files carry one positive ``claim`` column (plus optional
``group``); each claim is converted through a deductible/limit window into
(y=min(x, u), t=d, delta=1{x<u}).

Parsing is strict: unparseable rows abort with their line number, while rows
that parse but violate the data invariants (t > y, delta outside {0,1},
claims outside the window) are rejected row-by-row and reported.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ClaimsFormatError
from .ltrc import LtrcSample
from .severity import WindowScheme

__all__ = ["ClaimsFile", "parse_claims", "write_ltrc_csv"]

_DEFAULT_GROUP = "all"


@dataclass(frozen=True)
class ClaimsFile:
    """Parsed claims grouped into LTRC samples."""

    groups: dict[str, LtrcSample]
    n_rows: int
    rejected: tuple[tuple[int, str], ...]


def parse_claims(path, fmt: str, scheme: WindowScheme | None = None) -> ClaimsFile:
    """Parse a claims CSV into grouped LTRC samples.

    ``fmt`` is "ltrc" or "raw"; raw files additionally need the window
    ``scheme`` that produced them.
    """
    if fmt not in ("ltrc", "raw"):
        raise ClaimsFormatError(f"unknown claims format {fmt!r}; expected 'ltrc' or 'raw'")
    if fmt == "raw" and scheme is None:
        raise ClaimsFormatError("raw claims need a deductible/limit window scheme")

    with open(path, newline="", encoding="utf-8") as fh:
        # filter comment lines but keep the true file line number of each row
        kept: list[tuple[int, str]] = [
            (no, row) for no, row in enumerate(fh, start=1) if not row.startswith("#")
        ]
    reader = csv.reader([row for _, row in kept])
    header = next(reader, None)
    if header is None:
        raise ClaimsFormatError(f"{path}: missing header row")
    # columns by stripped name, so "y, t, delta" is a valid header; a repeated
    # name reads its last column
    column = {name.strip(): j for j, name in enumerate(header)}
    required = ("y", "t", "delta") if fmt == "ltrc" else ("claim",)
    missing = set(required) - column.keys()
    if missing:
        raise ClaimsFormatError(
            f"{path}: missing required column(s) {', '.join(sorted(missing))}"
        )
    wanted = [column[name] for name in required]
    group_col = column.get("group")
    width = max(wanted + [-1 if group_col is None else group_col]) + 1

    records: list[tuple[list, int]] = []  # fields and file line of each record
    try:
        for row in reader:
            if row:  # a blank line is no record
                if len(row) < width:  # a missing field reads None, which float refuses
                    row += [None] * (width - len(row))
                records.append((row, kept[reader.line_num - 1][0]))
    except csv.Error:
        _float_columns(path, records, wanted)  # an unparseable row before it comes first
        raise
    columns = _float_columns(path, records, wanted)
    if group_col is None:
        groups = [_DEFAULT_GROUP] * len(records)
    else:
        groups = [(row[group_col] or "").strip() or _DEFAULT_GROUP for row, _ in records]

    if fmt == "ltrc":
        y, t, delta = columns
        checks = [
            (~((delta == 0.0) | (delta == 1.0)), lambda v: f"delta {v[2]:g} not in {{0, 1}}"),
            (~np.isfinite(y), lambda v: "non-finite value"),
            (np.isnan(t), lambda v: "truncation value is NaN"),
            (~(t <= y), lambda v: f"truncation {v[1]:g} exceeds value {v[0]:g}"),
        ]
    else:
        (claim,) = columns
        d, u = scheme.deductible, scheme.limit
        positive = np.isfinite(claim) & (claim > 0.0)
        checks = [
            (~positive, lambda v: f"claim {v[0]!r} is not a positive amount"),
            (claim <= d, lambda v: f"claim {v[0]:g} at or below the deductible {d:g}"),
        ]
    # a rejected row gives the reason of the first check it fails; messages
    # format the parsed Python floats
    reasons: dict[int, str] = {}
    for failed, reason in checks:
        for i in np.flatnonzero(failed).tolist():
            if i not in reasons:
                reasons[i] = reason(columns[:, i].tolist())
    keep = np.ones(len(records), dtype=bool)
    keep[list(reasons)] = False
    if fmt == "ltrc":
        y, t, delta = y[keep], t[keep], delta[keep]
    else:
        claim = claim[keep]
        y, t, delta = np.minimum(claim, u), np.full(claim.shape, d), claim < u
    label = np.array(groups, dtype=object)[keep]
    names = sorted(set(label.tolist()))
    if not names:
        raise ClaimsFormatError(f"{path}: no observations")
    samples = {}
    for g in names:
        rows = label == g
        samples[g] = LtrcSample(y[rows], t[rows], delta[rows])
    return ClaimsFile(
        groups=samples,
        n_rows=len(records),
        rejected=tuple((records[i][1], reasons[i]) for i in sorted(reasons)),
    )


def _float_columns(path, records, wanted) -> np.ndarray:
    """Columns ``wanted`` of ``records`` as floats, one array row per column.

    When a field does not parse, the first record in file order that holds
    one aborts with the error of its first such field, in ``wanted`` order.
    """
    try:
        return np.array([list(map(float, [row[j] for row, _ in records])) for j in wanted])
    except (TypeError, ValueError):
        for row, line in records:
            try:
                [float(row[j]) for j in wanted]
            except (TypeError, ValueError) as exc:
                raise ClaimsFormatError(f"{path}:{line}: unparseable row ({exc})") from exc
        raise


def write_ltrc_csv(path, groups: dict[str, LtrcSample]) -> None:
    """Serialize grouped LTRC samples; numeric fields round-trip exactly.

    Raises ``ValueError``, before the file is opened, for a group label that
    ``parse_claims`` would read back as another: an empty one, or one with
    leading or trailing whitespace.
    """
    # the parser strips a label and reads an empty one as the default group
    altered = sorted(g for g in groups if (g.strip() or _DEFAULT_GROUP) != g)
    if altered:
        raise ValueError(
            f"group labels {', '.join(map(repr, altered))} would not read back as "
            "themselves: a label must be nonempty, without leading or trailing whitespace"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a label only if it needs it
        writer.writerow(["y", "t", "delta", "group"])
        for group, sample in sorted(groups.items()):
            for yi, ti, di in zip(sample.y, sample.t, sample.delta):
                writer.writerow([f"{yi:.17g}", f"{ti:.17g}", int(di), group])
