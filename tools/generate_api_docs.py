"""Generate docs/API.md — a reference of every public item.

Walks the ``repro`` package, collects each module's public classes and
functions (honoring ``__all__`` where defined) with the first paragraph
of their docstrings, and renders one markdown reference.

Run:  python tools/generate_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")

SKIP_MODULES = {"repro.__main__"}

#: Static appendix documenting the lock service's wire protocol and the
#: ``serve``/``remote`` CLI commands — reference material that does not
#: live in any one docstring.
WIRE_APPENDIX = """\
## Appendix: the lock service wire protocol

`python -m repro serve` exposes the lock manager over TCP
(`repro.service`).  Every frame is a **4-byte big-endian length prefix**
followed by that many bytes of UTF-8 JSON; payloads above 8 MiB are
rejected.  Every message carries the versioned envelope `{"v": 1, ...}`;
a peer meeting an unknown version answers with a clear `protocol` error
instead of guessing.  Requests and responses are correlated by a
client-chosen `id`, so one connection multiplexes any number of
in-flight requests — a blocked `lock` does not stall the heartbeats or
admin queries sharing its socket.

```
request   {"v": 1, "id": 7, "op": "lock",
           "tid": 3, "rid": "R1", "mode": "X",
           "wait": true, "timeout": 2.0}
response  {"v": 1, "id": 7, "ok": true, "status": "granted", "epoch": 0}
error     {"v": 1, "id": 7, "ok": false,
           "error": {"code": "not-owner", "message": "..."}, "epoch": 0}
```

| op | fields | answer |
|---|---|---|
| `hello` | `lease?` | `session`, `lease`, `token`, `tids`, `server` — opens a fresh session; the first frame must be a `hello` or a `resume` |
| `resume` | `session`, `token` | same shape as `hello` but re-attaches a lease that survived a restart: `tids` lists the session's live transactions; errors are `unknown-session`, `bad-token`, `session-busy` |
| `heartbeat` | — | `remaining` (any received frame also renews the lease) |
| `begin` | `tid?` | `tid` (server-assigned when omitted) |
| `lock` | `tid`, `rid`, `mode`, `wait?`, `timeout?` | `status`: `granted` / `blocked` / `timeout` / `aborted` |
| `commit`, `abort` | `tid` | `tid` |
| `batch` | `ops` (≤ 256 sub-ops: `begin`/`lock`/`commit`/`abort`) | `results`, one entry per sub-op in order: `{"op", "ok": true, "status"}` for a `lock`, `{"op", "ok": true, "tid"}` for the others — or `{"op", "ok": false, "error": {...}}` in place |
| `detect` | — | one detection-resolution pass (`deadlock_found`, `abort_free`, `aborted`, `repositions`, ...) |
| `inspect` | — | operator `report`, `resources`, `blocked` |
| `graph` | `dot?` | H/W-TWBG `edges`, `cycles`, `text`, optional `dot` |
| `dump` | — | versioned lock-table snapshot + paper notation `text` |
| `log` | `limit?` | tail of the manager's event log |
| `stats` | — | `ServiceStats` counters + live gauges |
| `metrics` | — | full telemetry: registry snapshot `metrics`, Prometheus `text`, `enabled` |
| `spans` | `limit?`, `annotations?` | span log: `total` (lifecycle), `annotations` (born-finished pass spans, listed when `annotations` is true), `open`, `spans` (see `docs/OBSERVABILITY.md`) |
| `holding`, `deadlocked` | `tid` / — | per-transaction locks / any cycle present |
| `goodbye` | — | clean detach (still sweeps the session's transactions) |

A reply carries only what a peer reads.  Each key of the request-path
replies and its reader:

| reply | key | read by |
|---|---|---|
| every reply | `v`, `id` | the splitter's version check; the client's `data_received`, which routes the reply to its call |
| every reply | `ok`, `error.code`, `error.message` | the client's `data_received` (`reply_error` raises `ServiceError`) |
| every reply | `epoch` | `AsyncLockClient.last_epoch` (a restart shows as a jump) |
| `hello` / `resume` | `session`, `lease`, `token`, `tids`, `server`, `wire` | `AsyncLockClient._handshake`; `wire` switches the client's codec |
| `heartbeat` | `remaining` | `AsyncLockClient.heartbeat` |
| `heartbeat` | `lease` | nothing in this repository reads it (the session's lease length) |
| `begin` | `tid` | `AsyncLockClient.begin` (a server-assigned id) |
| `lock` | `status` | `AsyncLockClient.acquire` |
| `commit`, `abort` | `tid` | nothing in this repository reads it: it names the transaction that ended, and on the binary codec it shares `begin`'s reply shape |
| `batch` result, `lock` | `op`, `ok`, `status` | `AsyncLockClient.acquire_many`, `bench/svc.py`'s `run_batch` and `tools/recovery_smoke.py` (`ok`, then `error`, then `status`) |
| `batch` result, others | `op`, `ok`, `tid` | `begin`'s `tid` is the server-assigned id; the rest as for `lock` |
| `detect` | `deadlock_found`, `abort_free`, `aborted`, `spared`, `grants`, `repositions`, `resolutions`, `stats` | `RemoteDetectionResult` |

The lock-manager events behind a reply (what was granted, blocked or
woken by a release) stay on the server: the `log` op, the spans and the
incident records keep every one.  Only `detect` ships events, its
`grants` and `repositions`.  On the binary codec (`wire: 2`) a reply's
payload layout follows these shapes, so both peers must come from the
same build.

A `batch` frame pipelines its sub-ops back-to-back as one core step
on the server's event loop — one response frame — so an uncontended
transaction (`begin` + N `lock`s + `commit`) costs one round-trip
instead of N+2.  `lock` sub-ops never wait inside a batch: a contended
request answers `blocked` and **stays queued**, so the client falls back
to an individual waiting `lock` that resumes the same position
(`AsyncLockClient.acquire_many` does exactly this).  A failed sub-op
reports its error in place; the rest of the batch still runs.

Every field of a frame is validated **before** the core step it
feeds: a missing or malformed one (`tid` not an integer, an unknown
`mode`, a `timeout` or `lease` that is not a non-negative number, …)
answers `bad-request` with nothing parked, queued, granted or
journaled behind it.  Any other `op` answers `bad-op` and the session
stays usable.  Error messages never carry a Python `repr`.

A timed-out `lock` leaves the request **queued**: retrying the same
`lock` resumes the same queue position (never a duplicate entry).
Sessions hold a lease; when a client goes silent past its lease, the
server aborts its transactions and frees their locks, so a crashed
client cannot wedge the lock table.

The handshake is always JSON.  A `hello` or `resume` that asks for the
binary codec (`"wire": 2`) switches the connection's codec once its
reply is sent.  Frames a client pipelines behind it in the **same**
received segment are served: each one the JSON splitter completes
before the switch is read as JSON, the rest of the segment is split
again with the granted codec, and every reply after the handshake's is
binary.  A JSON frame arriving in a later segment is refused as a
`protocol` error (`bad frame magic`), which closes the connection.

A server started with `--journal PATH` stamps every response frame
with a **restart epoch** (`"epoch": N` — the number of times the
journal has been booted; `0` on journal-less servers).  A client that
sees the epoch jump knows the server restarted underneath it and can
re-attach with `resume` using the `token` its handshake returned —
sessions, transactions and lock queues survive the restart via journal
replay (see `docs/DURABILITY.md`).

CLI entry points:

```
python -m repro serve  --port 7411 --period 0.5 --lease 5
python -m repro serve  --port 7411 --policy periodic|continuous|nowait|adaptive
python -m repro serve  --port 7411 --journal sessions.jsonl [--journal-fsync batch]
python -m repro serve  --port 7411 --shards 4
python -m repro serve  --port 7411 [--metrics-port 9100] [--incident-log FILE]
python -m repro remote report|graph|dump|stats|metrics|log|detect --port 7411
python -m repro top --port 7411 [--interval 1.0] [--once] [--incidents FILE]
python -m repro trace-export --port 7411 [--out spans.jsonl] [--limit N]
python -m repro incidents {list,show,graph} FILE [--id ID]
```

`--period` (shipped default 0.5 s) is the longest a deadlock may
persist, not how long every deadlock waits: a step that leaves the lock
table *saturated* — somebody blocked and every lock holder blocked,
which proves a cycle — runs the detection pass at once
(`stats` -> `certain_passes`), so the period bounds only deadlocks that
spare some running holder, and the clock pass is due one period after
the last pass of either kind (DESIGN.md, "When a pass runs").
`remote metrics` prints the Prometheus text exposition; `top` renders a
refreshing operator dashboard from `metrics`/`stats`/`inspect` (with
per-shard rows on a sharded server); `trace-export` dumps the span log
as JSON-lines.
`--policy` (default `periodic`) selects
the detection policy — when detection runs and what happens at block
time; `stats` reports the active policy and its `policy_info` state
(see `docs/POLICIES.md`).
`serve --shards N` partitions the lock table inside the one server
process; the detection pass reads the shards' waiting structures and
routes each resolution back to its shard.  The server is one process
by design (`docs/CLUSTER.md` has the measurement).
`--metrics-port` serves the server's Prometheus exposition over HTTP
(the text the `metrics` op answers), `--incident-log` records a
`repro.incident/1` forensics record per resolved deadlock, and
`python -m repro incidents` renders that log (`graph` emits Graphviz
DOT).  The full metric catalog, the incident schema and how spans,
passes and incidents join live in `docs/OBSERVABILITY.md`.
"""


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n")[0].replace("\n", " ").strip()
    return paragraph


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    members = []
    for name in sorted(set(names)):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        # Only list items defined in this package (re-exports are fine,
        # but external types are not ours to document).
        defined_in = getattr(obj, "__module__", "") or ""
        if not defined_in.startswith("repro"):
            continue
        members.append((name, obj))
    return members


class _Named:
    """Stands in for a default whose repr is an address: renders as
    ``<ClassName>``, so regenerating the reference diffs only on API
    changes."""

    def __init__(self, value) -> None:
        self.text = "<{}>".format(type(value).__name__)

    def __repr__(self) -> str:
        return self.text


def signature_of(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    parameters = [
        parameter.replace(default=_Named(parameter.default))
        if " at 0x" in repr(parameter.default)
        else parameter
        for parameter in signature.parameters.values()
    ]
    return str(signature.replace(parameters=parameters))


def walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/generate_api_docs.py` — one entry per",
        "public item, with the first paragraph of its docstring.",
        "",
    ]
    modules = sorted(walk_modules(), key=lambda m: m.__name__)
    documented = set()
    for module in modules:
        members = [
            (name, obj)
            for name, obj in public_members(module)
            if getattr(obj, "__module__", "") == module.__name__
        ]
        if not members:
            continue
        lines.append("## `{}`".format(module.__name__))
        lines.append("")
        summary = first_paragraph(module)
        if summary:
            lines.append(summary)
            lines.append("")
        for name, obj in members:
            if id(obj) in documented:
                continue
            documented.add(id(obj))
            if inspect.isclass(obj):
                lines.append("### class `{}`".format(name))
                lines.append("")
                lines.append(first_paragraph(obj) or "(no docstring)")
                lines.append("")
                for method_name, method in sorted(vars(obj).items()):
                    if method_name.startswith("_"):
                        continue
                    if not (
                        inspect.isfunction(method)
                        or isinstance(method, (classmethod, staticmethod))
                    ):
                        continue
                    target = (
                        method.__func__
                        if isinstance(method, (classmethod, staticmethod))
                        else method
                    )
                    lines.append(
                        "* `{}{}` — {}".format(
                            method_name,
                            signature_of(target),
                            first_paragraph(target) or "(no docstring)",
                        )
                    )
                lines.append("")
            elif inspect.isfunction(obj):
                lines.append(
                    "### `{}{}`".format(name, signature_of(obj))
                )
                lines.append("")
                lines.append(first_paragraph(obj) or "(no docstring)")
                lines.append("")
    lines.append(WIRE_APPENDIX)
    return "\n".join(lines)


def main() -> None:
    text = render()
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w") as handle:
        handle.write(text)
    print(
        "wrote {} ({} lines)".format(
            os.path.relpath(OUTPUT), len(text.splitlines())
        )
    )


if __name__ == "__main__":
    main()
