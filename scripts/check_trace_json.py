#!/usr/bin/env python3
"""Validates Chrome trace_event JSON files (stdlib only).

Checks that a file produced by obs::ToChromeTrace (src/obs/exporters.cc)
— either the single-tracer rendering or the multi-lane ledger-exemplar
rendering — is loadable by chrome://tracing / Perfetto:

  * the file is a well-formed JSON array (the trace_event "JSON Array
    Format"; a trailing `]` is optional in the spec but our exporter
    always emits it);
  * every event object carries the required keys: name, cat, ph, ts, pid,
    tid — with ts numeric and non-negative;
  * phases are drawn from the exporter's vocabulary (B, E, i, M);
  * metadata events (ph "M") carry an args.name payload;
  * per (pid, tid), B/E events nest: every E closes the most recent open
    B, repeats its name, and — when span ids are emitted (the lane
    rendering) — repeats its id; no B is left open at end of trace;
  * span ids are unique among the open spans of a track (an id may be
    reused only after its span ends, which never happens in our
    exporters but is legal in the format);
  * instant events carry the scope key "s";
  * timestamps never decrease per (pid, tid) (the exporter uses a logical
    event sequence, so this is strict).

Usage: scripts/check_trace_json.py FILE [FILE...]
"""

import json
import sys

REQUIRED_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")
PHASES = {"B", "E", "i", "M"}


def check_file(path):
    errors = []

    def err(message):
        errors.append(f"{path}: {message}")

    with open(path, "rb") as f:
        blob = f.read()
    try:
        events = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        err(f"not valid JSON: {e}")
        return errors
    if not isinstance(events, list):
        err(f"top level must be a JSON array, got {type(events).__name__}")
        return errors

    open_spans = {}  # (pid, tid) -> [(name, id or None) of open B spans]
    last_ts = {}  # (pid, tid) -> last timestamp seen

    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            err(f"{where}: not an object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in event]
        if missing:
            err(f"{where}: missing keys {missing}")
            continue
        ph = event["ph"]
        if ph not in PHASES:
            err(f"{where}: unexpected phase {ph!r}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            err(f"{where}: ts must be a non-negative number, got {ts!r}")
            continue
        if "args" in event and not isinstance(event["args"], dict):
            err(f"{where}: args must be an object")

        if ph == "M":
            # Metadata (process_name / thread_name): named payload, no
            # ordering or nesting constraints.
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                err(f"{where}: metadata event missing args.name")
            continue

        track = (event["pid"], event["tid"])
        if track in last_ts and ts < last_ts[track]:
            err(f"{where}: ts went backwards on track {track} "
                f"({ts} < {last_ts[track]})")
        last_ts[track] = ts

        if ph == "B":
            span_id = event.get("id")
            stack = open_spans.setdefault(track, [])
            if span_id is not None and any(s[1] == span_id for s in stack):
                err(f"{where}: duplicate open span id {span_id!r} on track "
                    f"{track}")
            stack.append((event["name"], span_id))
        elif ph == "E":
            stack = open_spans.get(track, [])
            if not stack:
                err(f"{where}: E with no open B on track {track}")
            else:
                opened_name, opened_id = stack.pop()
                if opened_name != event["name"]:
                    err(f"{where}: E name {event['name']!r} does not match "
                        f"open B {opened_name!r}")
                span_id = event.get("id")
                if (opened_id is not None or span_id is not None) and \
                        span_id != opened_id:
                    err(f"{where}: E id {span_id!r} does not match "
                        f"open B id {opened_id!r}")
        elif ph == "i":
            if "s" not in event:
                err(f"{where}: instant event missing scope key \"s\"")
            elif event["s"] not in ("t", "p", "g"):
                err(f"{where}: bad instant scope {event['s']!r}")

    for track, stack in open_spans.items():
        if stack:
            names = [name for name, _ in stack]
            err(f"unclosed B span(s) on track {track}: {names}")

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check_file(path))
    for e in all_errors:
        print(e)
    if all_errors:
        print(f"check_trace_json: {len(all_errors)} error(s)")
        return 1
    print(f"check_trace_json: {len(argv) - 1} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
