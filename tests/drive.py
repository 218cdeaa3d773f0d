"""The element-wise reference driver shared by the equivalence tests,
and the reference wire encoder the memo tests compare against."""

import json

from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS, QueryResult
from repro.stream.source import merge_sources


def push_all(dsms: DSMS) -> dict[str, QueryResult]:
    """Drive ``dsms`` through a session, one element per push in
    ``merge_sources`` order; returns the results in ``run()``'s shape
    and leaves the session's report where ``run()`` leaves its own."""
    session = dsms.open_session()
    delivered = {name: [] for name in dsms.queries}
    for name, elements in delivered.items():
        session.subscribe(name, elements.append)
    for stream_id, element in merge_sources(dsms.catalog.sources()):
        session.push(stream_id, element)
    session.close()
    dsms.last_report = session.report()
    return {name: QueryResult(name, elements)
            for name, elements in delivered.items()}


def fresh_line(element) -> str:
    """The wire line of ``element``, serialised from a field-by-field
    copy with a plain ``json.dumps`` — never from anything memoised on
    the element.  ``encode_element`` must return exactly this."""
    if isinstance(element, SecurityPunctuation):
        copy = SecurityPunctuation(
            ddp=element.ddp, srp=element.srp, ts=element.ts,
            sign=element.sign, immutable=element.immutable,
            provider=element.provider, incremental=element.incremental)
        record = {"k": "sp", "sp": copy.to_text()}
        if copy.provider is not None:
            record["p"] = copy.provider
    else:
        record = {"k": "t", "sid": element.sid, "tid": element.tid,
                  "v": dict(element.values), "ts": element.ts}
    return json.dumps(record, separators=(",", ":"))
