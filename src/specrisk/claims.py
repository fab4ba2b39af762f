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
import math
from dataclasses import dataclass

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

    rows: dict[str, list[tuple[float, float, int]]] = {}
    rejected: list[tuple[int, str]] = []
    n_rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        # filter comment lines but keep the true file line number of each row
        kept: list[tuple[int, str]] = [
            (no, row) for no, row in enumerate(fh, start=1) if not row.startswith("#")
        ]
        reader = csv.DictReader(row for _, row in kept)
        if reader.fieldnames is None:
            raise ClaimsFormatError(f"{path}: missing header row")
        fields = [name.strip() for name in reader.fieldnames]
        required = {"y", "t", "delta"} if fmt == "ltrc" else {"claim"}
        missing = required - set(fields)
        if missing:
            raise ClaimsFormatError(
                f"{path}: missing required column(s) {', '.join(sorted(missing))}"
            )
        has_group = "group" in fields

        for record in reader:
            line = kept[reader.line_num - 1][0]
            n_rows += 1
            group = (record.get("group") or _DEFAULT_GROUP).strip() if has_group else _DEFAULT_GROUP
            try:
                if fmt == "ltrc":
                    y = float(record["y"])
                    t = float(record["t"])
                    delta = float(record["delta"])
                else:
                    claim = float(record["claim"])
            except (TypeError, ValueError) as exc:
                raise ClaimsFormatError(f"{path}:{line}: unparseable row ({exc})") from exc

            if fmt == "ltrc":
                if delta not in (0.0, 1.0):
                    rejected.append((line, f"delta {delta:g} not in {{0, 1}}"))
                    continue
                if not t <= y:
                    rejected.append((line, f"truncation {t:g} exceeds value {y:g}"))
                    continue
                if not math.isfinite(y):
                    rejected.append((line, "non-finite value"))
                    continue
                rows.setdefault(group, []).append((y, t, int(delta)))
            else:
                if not math.isfinite(claim) or claim <= 0:
                    rejected.append((line, f"claim {claim!r} is not a positive amount"))
                    continue
                if claim <= scheme.deductible:
                    rejected.append(
                        (line, f"claim {claim:g} at or below the deductible {scheme.deductible:g}")
                    )
                    continue
                y = min(claim, scheme.limit)
                delta = 1 if claim < scheme.limit else 0
                rows.setdefault(group, []).append((y, scheme.deductible, delta))

    if not rows:
        raise ClaimsFormatError(f"{path}: no observations")
    groups = {
        g: LtrcSample(
            [r[0] for r in rs], [r[1] for r in rs], [r[2] for r in rs]
        )
        for g, rs in sorted(rows.items())
    }
    return ClaimsFile(groups=groups, n_rows=n_rows, rejected=tuple(rejected))


def write_ltrc_csv(path, groups: dict[str, LtrcSample], header_lines: tuple[str, ...] = ()) -> None:
    """Serialize grouped LTRC samples; numeric fields round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("y,t,delta,group\n")
        for group, sample in sorted(groups.items()):
            for yi, ti, di in zip(sample.y, sample.t, sample.delta):
                fh.write(f"{yi:.17g},{ti:.17g},{int(di)},{group}\n")
