"""An interactive shell for the security-punctuation DSMS.

``python -m repro shell`` starts a small line-oriented console over a
live :class:`~repro.engine.session.StreamingSession`, so the whole
stack — CQL, the SP Analyzer, shields, joins — can be driven by hand:

.. code-block:: text

    sp> STREAM hr patient_id beats_per_min
    sp> QUERY doc ROLES D SELECT * FROM hr
    sp> INSERT SP INTO STREAM hr LET DDP = '*', SRP = 'D', TIMESTAMP = 0
    sp> PUSH hr 120 {"patient_id": 120, "beats_per_min": 72} 1.0
    doc <- {'patient_id': 120, 'beats_per_min': 72}
    sp> RESULTS doc
    1 tuple(s)

Commands (case-insensitive keywords):

``STREAM <id> <attr> [<attr> ...]``
    Register a stream.
``QUERY <name> ROLES <r1,r2,..> <SELECT ...>``
    Register a continuous query for the given roles.
``INSERT SP ...``
    The paper's CQL sp declaration; injected into the named stream.
``PUSH <stream> <tid> <json-values> <ts>``
    Push one data tuple.
``RESULTS <query>``
    Show a query's delivered tuples so far.
``EXPLAIN <query>``
    Print the query's logical plan under its outlet, ψ_roles.
``HELP`` / ``QUIT``

The session starts lazily on the first PUSH/INSERT after at least one
query exists; STREAM and QUERY commands are rejected afterwards (plans
are compiled once per session, like a real DSMS deployment).
"""

from __future__ import annotations

import json
import shlex
from typing import Callable, IO

from repro.algebra.explain import explain
from repro.algebra.expressions import ShieldExpr
from repro.cql.translator import compile_statement
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.errors import ReproError
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

__all__ = ["Shell", "run_shell"]


class Shell:
    """State machine behind the interactive console (testable core)."""

    def __init__(self, out: Callable[[str], None] = print):
        self.dsms = DSMS()
        self.session = None
        self.out = out
        self.done = False

    # -- command dispatch ----------------------------------------------------
    def handle(self, line: str) -> None:
        """Process one input line; errors are printed, never raised."""
        line = line.strip()
        if not line or line.startswith("--"):
            return
        try:
            self._dispatch(line)
        except ReproError as exc:
            self.out(f"error: {exc}")
        except (ValueError, json.JSONDecodeError) as exc:
            self.out(f"error: {exc}")

    def _dispatch(self, line: str) -> None:
        head = line.split(None, 1)[0].upper()
        if head == "QUIT" or head == "EXIT":
            self._close()
            self.done = True
            return
        if head == "HELP":
            self.out(__doc__.split("Commands", 1)[1])
            return
        if head == "STREAM":
            self._cmd_stream(line)
            return
        if head == "QUERY":
            self._cmd_query(line)
            return
        if head == "INSERT":
            self._cmd_insert_sp(line)
            return
        if head == "PUSH":
            self._cmd_push(line)
            return
        if head == "RESULTS":
            self._cmd_results(line)
            return
        if head == "EXPLAIN":
            self._cmd_explain(line)
            return
        self.out(f"error: unknown command {head!r} (try HELP)")

    # -- commands ----------------------------------------------------------
    def _require_not_live(self) -> None:
        if self.session is not None:
            raise ReproError(
                "the session is already live; streams and queries must "
                "be declared before the first PUSH/INSERT")

    def _cmd_stream(self, line: str) -> None:
        self._require_not_live()
        parts = shlex.split(line)
        if len(parts) < 3:
            raise ReproError("usage: STREAM <id> <attr> [<attr> ...]")
        _, stream_id, *attributes = parts
        self.dsms.register_stream(StreamSchema(stream_id, attributes))
        self.out(f"stream {stream_id!r} registered "
                 f"({', '.join(attributes)})")

    def _cmd_query(self, line: str) -> None:
        self._require_not_live()
        parts = line.split(None, 3)
        if len(parts) < 4 or parts[2].upper() != "ROLES":
            raise ReproError(
                "usage: QUERY <name> ROLES <r1,r2> <SELECT ...>")
        _, name, _, rest = parts
        roles_text, _, statement = rest.partition(" ")
        roles = {r.strip() for r in roles_text.split(",") if r.strip()}
        expr = compile_statement(statement)
        if isinstance(expr, SecurityPunctuation):
            raise ReproError("QUERY takes a SELECT statement")
        self.dsms.register_query(name, expr, roles=roles)
        self.out(f"query {name!r} registered for roles "
                 f"{sorted(roles)}")

    def _ensure_session(self):
        if self.session is None:
            self.session = self.dsms.open_session()
            for name in self.dsms.queries:
                self.session.subscribe(name, self._make_callback(name))
        return self.session

    def _make_callback(self, name: str):
        def deliver(element) -> None:
            if isinstance(element, DataTuple):
                self.out(f"{name} <- {element.values}")
        return deliver

    def _cmd_insert_sp(self, line: str) -> None:
        sp = compile_statement(line, provider="shell")
        if not isinstance(sp, SecurityPunctuation):
            raise ReproError("INSERT must be an INSERT SP statement")
        stream_id = self._sp_target(line)
        self._ensure_session().push(stream_id, sp)
        self.out(f"sp -> {stream_id}: {sp.to_text()}")

    @staticmethod
    def _sp_target(line: str) -> str:
        tokens = line.split()
        for index, token in enumerate(tokens):
            if token.upper() == "STREAM" and index + 1 < len(tokens):
                return tokens[index + 1]
        raise ReproError("INSERT SP requires INTO STREAM <id>")

    def _cmd_push(self, line: str) -> None:
        parts = line.split(None, 3)
        if len(parts) < 4:
            raise ReproError("usage: PUSH <stream> <tid> <json> <ts>")
        _, stream_id, tid_text, rest = parts
        payload, _, ts_text = rest.rpartition(" ")
        if not payload:
            raise ReproError("usage: PUSH <stream> <tid> <json> <ts>")
        values = json.loads(payload)
        tid: object = int(tid_text) if tid_text.isdigit() else tid_text
        item = DataTuple(stream_id, tid, values, float(ts_text))
        self._ensure_session().push(stream_id, item)

    def _cmd_results(self, line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise ReproError("usage: RESULTS <query>")
        session = self._ensure_session()
        tuples = session.results(parts[1])
        self.out(f"{len(tuples)} tuple(s)")
        for item in tuples:
            self.out(f"  {item.values} @ {item.ts}")

    def _cmd_explain(self, line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise ReproError("usage: EXPLAIN <query>")
        query = self.dsms.queries.get(parts[1])
        if query is None:
            raise ReproError(f"unknown query: {parts[1]!r}")
        self.out(explain(ShieldExpr(query.expr, query.roles)))

    def _close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def run_shell(stdin: IO[str] | None = None,
              out: Callable[[str], None] = print,
              prompt: str = "sp> ") -> int:
    """Run the console loop over ``stdin`` (default: interactive)."""
    import sys

    shell = Shell(out=out)
    interactive = stdin is None
    source = stdin if stdin is not None else sys.stdin
    if interactive:
        out("security-punctuation shell — HELP for commands, "
            "QUIT to leave")
    while not shell.done:
        if interactive:
            try:
                line = input(prompt)
            except EOFError:
                break
        else:
            line = source.readline()
            if not line:
                break
        shell.handle(line)
    shell._close()  # noqa: SLF001 - own class
    return 0
