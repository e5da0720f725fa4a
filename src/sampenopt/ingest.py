"""CSV ingestion and emission.

Canonical long format has the header ``signal_id,label,t,value`` with
strictly increasing integer t per signal. A wide format (one signal per
row: id followed by its values, no header) is auto-detected and converted.
Missing or non-numeric values are hard errors; no imputation or
resampling happens here.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from .errors import IngestionError
from .signal import Signal, SignalSet

LONG_HEADER = ["signal_id", "label", "t", "value"]


def _parse_value(raw: str, where: str) -> float:
    text = raw.strip()
    if text == "":
        raise IngestionError(f"{where}: missing value")
    try:
        v = float(text)
    except ValueError as exc:
        raise IngestionError(f"{where}: non-numeric value {raw!r}") from exc
    if not math.isfinite(v):
        raise IngestionError(f"{where}: non-finite value {raw!r}")
    return v


def _read_long(rows: list[list[str]], path: str) -> SignalSet:
    order: list[str] = []
    values: dict[str, list[float]] = {}
    labels: dict[str, str | None] = {}
    last_t: dict[str, int] = {}
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise IngestionError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        sid, label, t_raw, v_raw = (c.strip() for c in row)
        if not sid:
            raise IngestionError(f"{path}:{lineno}: empty signal_id")
        try:
            t = int(t_raw)
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: t must be an integer, got {t_raw!r}") from exc
        v = _parse_value(v_raw, f"{path}:{lineno}")
        if sid not in values:
            order.append(sid)
            values[sid] = []
            labels[sid] = label or None
        else:
            if t <= last_t[sid]:
                raise IngestionError(f"{path}:{lineno}: t must be strictly increasing within signal {sid!r}")
            if (label or None) != labels[sid]:
                raise IngestionError(f"{path}:{lineno}: conflicting label for signal {sid!r}")
        last_t[sid] = t
        values[sid].append(v)
    if not order:
        raise IngestionError(f"{path}: no data rows")
    signals = tuple(Signal(id=sid, values=values[sid], label=labels[sid]) for sid in order)
    try:
        return SignalSet(signals)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def _read_wide(rows: list[list[str]], path: str) -> SignalSet:
    signals = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) < 2:
            raise IngestionError(f"{path}:{lineno}: wide rows need an id plus at least one value")
        sid = row[0].strip()
        if not sid:
            raise IngestionError(f"{path}:{lineno}: empty signal id")
        vals = [_parse_value(c, f"{path}:{lineno}") for c in row[1:]]
        try:
            signals.append(Signal(id=sid, values=vals))
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from exc
    if not signals:
        raise IngestionError(f"{path}: no data rows")
    try:
        return SignalSet(tuple(signals))
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def read_signals(path: str | Path) -> tuple[SignalSet, str]:
    """Read a signal set; returns (set, detected format 'long' or 'wide')."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        # e.g. a field over csv's field size limit
        raise IngestionError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: empty file")
    if [c.strip() for c in rows[0]] == LONG_HEADER:
        return _read_long(rows[1:], str(path)), "long"
    return _read_wide(rows, str(path)), "wide"


def write_signals(path: str | Path, s: SignalSet, fmt: str = "long") -> None:
    """Write a signal set as long (default) or wide CSV.

    The text is encoded before the file is opened: an id or label that
    UTF-8 cannot encode raises ValueError and leaves path as it was.
    """
    if fmt not in ("long", "wide"):
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    if fmt == "long":
        w.writerow(LONG_HEADER)
        for sig in s:
            for t, v in enumerate(sig.values):
                w.writerow([sig.id, sig.label or "", t, repr(float(v))])
    else:
        for sig in s:
            w.writerow([sig.id, *[repr(float(v)) for v in sig.values]])
    try:
        data = buf.getvalue().encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"cannot write {path}: an id or label is not UTF-8 text ({exc.reason})") from exc
    Path(path).write_bytes(data)
