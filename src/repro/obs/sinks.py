"""Trace sinks: JSONL event streams and Chrome ``trace_event`` export.

Two on-disk formats share one in-memory record stream:

* **JSONL** — one record per line, bracketed by a ``header`` record
  (schema version, producer pid) and a ``metrics`` record (the final
  :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` snapshot). This is
  the machine-readable archive format that ``repro trace summarize``
  and the CI schema check consume.
* **Chrome trace_event JSON** — the ``{"traceEvents": [...]}`` envelope
  Perfetto and ``chrome://tracing`` load directly. Spans become
  complete (``"ph": "X"``) events in microseconds, instant events
  become ``"ph": "i"``, and per-pid metadata rows name worker
  processes so a pooled run reads as one merged timeline.
"""

import json
import os

from repro.errors import AnalysisError
from repro.obs.trace import OBS_SCHEMA_VERSION

#: Record ``type`` values a valid trace stream may contain.
_RECORD_TYPES = ("header", "span", "event", "metrics")

#: Required keys per record type (beyond ``type`` itself).
_REQUIRED_KEYS = {
    "header": ("schema",),
    "span": ("name", "ts", "dur", "pid", "tid", "depth", "attrs"),
    "event": ("name", "ts", "pid", "tid", "attrs"),
    "metrics": ("metrics",),
}


def validate_records(records):
    """Check a record stream against the trace schema.

    Raises :class:`~repro.errors.AnalysisError` naming the first
    offending record; returns the record count on success. The CI trace
    check and :func:`read_jsonl` both run through here, so a trace file
    that loads is a trace file the tooling can consume.
    """
    count = 0
    saw_header = False
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise AnalysisError(
                "trace record %d is not an object: %r" % (index, record)
            )
        kind = record.get("type")
        if kind not in _RECORD_TYPES:
            raise AnalysisError(
                "trace record %d has unknown type %r" % (index, kind)
            )
        missing = [
            key for key in _REQUIRED_KEYS[kind] if key not in record
        ]
        if missing:
            raise AnalysisError(
                "trace record %d (%s) is missing keys: %s"
                % (index, kind, ", ".join(missing))
            )
        if kind == "header":
            saw_header = True
            if record["schema"] != OBS_SCHEMA_VERSION:
                raise AnalysisError(
                    "trace schema %r is not the supported version %d"
                    % (record["schema"], OBS_SCHEMA_VERSION)
                )
        elif kind == "span":
            if record["dur"] is None:
                raise AnalysisError(
                    "trace record %d: span %r was never closed"
                    % (index, record["name"])
                )
        count += 1
    if count and not saw_header:
        raise AnalysisError("trace stream has no header record")
    return count


def write_jsonl(path, records, metrics=None):
    """Write a trace stream as JSONL: header, records, metrics trailer."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "type": "header",
            "schema": OBS_SCHEMA_VERSION,
            "pid": os.getpid(),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if metrics is not None:
            trailer = {"type": "metrics", "metrics": metrics}
            handle.write(json.dumps(trailer, sort_keys=True) + "\n")


def read_jsonl(path):
    """Load and validate a JSONL trace file.

    Returns ``(records, metrics)`` where ``records`` holds the span and
    event records (header and trailer stripped) and ``metrics`` is the
    trailing snapshot dict or ``None``.
    """
    raw = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise AnalysisError(
            "cannot read trace file %s: %s" % (path, error.strerror or error)
        )
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw.append(json.loads(line))
            except ValueError:
                raise AnalysisError(
                    "trace file %s line %d is not valid JSON"
                    % (path, line_number)
                )
    validate_records(raw)
    records = [r for r in raw if r["type"] in ("span", "event")]
    metrics = None
    for record in raw:
        if record["type"] == "metrics":
            metrics = record["metrics"]
    return records, metrics


def chrome_trace(records, metrics=None):
    """Convert a record stream to the Chrome ``trace_event`` dict.

    Timestamps and durations convert from seconds to microseconds; the
    first pid seen is labelled the parent, later pids are labelled
    workers, and the metrics snapshot (if given) rides along under
    ``otherData`` where trace viewers ignore it but tools can read it.
    """
    events = []
    pids = []
    for record in records:
        kind = record.get("type")
        if kind not in ("span", "event"):
            continue
        pid = record["pid"]
        if pid not in pids:
            pids.append(pid)
        entry = {
            "name": record["name"],
            "ts": record["ts"] * 1e6,
            "pid": pid,
            "tid": record["tid"],
            "args": record["attrs"],
        }
        if kind == "span":
            entry["ph"] = "X"
            entry["dur"] = (record["dur"] or 0.0) * 1e6
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    metadata = []
    for index, pid in enumerate(pids):
        label = "repro" if index == 0 else "repro worker %d" % pid
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
    payload = {"traceEvents": metadata + events}
    if metrics is not None:
        payload["otherData"] = {"metrics": metrics}
    return payload


def write_chrome_trace(path, records, metrics=None):
    """Write records as a Chrome trace JSON file (Perfetto-loadable)."""
    payload = chrome_trace(records, metrics=metrics)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def write_trace(path, records, metrics=None, fmt="jsonl"):
    """Write a trace file in the named format (``jsonl`` or ``chrome``)."""
    if fmt == "jsonl":
        write_jsonl(path, records, metrics=metrics)
    elif fmt == "chrome":
        write_chrome_trace(path, records, metrics=metrics)
    else:
        raise AnalysisError(
            "unknown trace format %r (expected 'jsonl' or 'chrome')" % (fmt,)
        )


__all__ = [
    "chrome_trace",
    "read_jsonl",
    "validate_records",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
