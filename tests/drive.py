"""The element-wise reference driver shared by the equivalence tests."""

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
