"""Golden digests: what the six ledger workloads deliver, pinned.

Each workload is generated at a reduced size by the ledger's own
generator (``benchmarks/ledger/workloads.py``, imported, not copied),
decoded from its wire files and driven through ``DSMS.run()`` and
through an element-wise session (``tests/drive.py::push_all``).  Both
paths must deliver the same encoded lines in the same order, and one
sha256 over those lines per workload and seed is pinned in ``GOLDEN``.
A seventh shape, a self-join over ``sajoin_window``'s left stream, is
pinned in ``SELF_JOIN`` and driven both ways.  A digest may change only
together with a CHANGES.md line that says why.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from repro import DSMS, Observability, ScanExpr, StreamSchema
from repro.operators import Comparison, SecurityShield
from repro.stream.wire import encode_element, load_stream

from tests.drive import push_all

_LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "benchmarks", "ledger",
                       "workloads.py")
_spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: Share of each workload's ledger size that is generated here.
SCALE = 0.2

GOLDEN = {
    ("bulk_delivery", 61):
        "9b547447c421349b618262e82ea2b0d2f6c918125a03c51a7199ed2e90218828",
    ("bulk_delivery", 17):
        "fe7718bc4b3fc5d431a8470daa4d22028231be8ad427f15a0607ec27f13058dd",
    ("fanout_filter", 61):
        "91341d0835733264657287be5c87cbd1695795220360a63980851a442dee4203",
    ("fanout_filter", 17):
        "7ac6369f3c8817c62e5e345719fbd60be0e1196a7b36906f71442a9e48a54899",
    ("sp_dense", 61):
        "f1b6baaade43134f3fd10f08f3fec7a2fc88d8be565de11fdd4c2bc42741c5ff",
    ("sp_dense", 17):
        "82555e5779c1122db72494bed5cebfd2be0dc0f0bdccb1de77b0d7f2efd521ea",
    ("sajoin_window", 61):
        "ced7c712e820425ededcb2c51d307d3fbefdf01f6e7051138231b86f82d59a4e",
    ("sajoin_window", 17):
        "2b800cc1bacbfc37a3c1c70ce13233581db386939315678c6e935f4082e1cb1f",
    ("session_push", 61):
        "daf08c3ad22df1507c22c4b59d133796a8e2c912fd4b8cd1b50291a1ac122640",
    ("session_push", 17):
        "c1d8b83a8d1f505c62e181636b3288e5dfdc6fb5d4c578ba3d8e77a47c408356",
    ("audited_filter", 61):
        "4d07cd0935d7f5177ba68c6cf8e787a4b3f7fc5bd39749e39112aaf7870f1671",
    ("audited_filter", 17):
        "a0e03c0001c5eeb40fa5f0150e6e12654e19eca976be99c06cc01c9fa15322e1",
}


def new_dsms(spec: dict) -> DSMS:
    """The ledger's facade set-up: queries, then the decoded streams."""
    dsms = (DSMS(observability=Observability.in_memory())
            if spec["audited"] else DSMS())
    for query in spec["queries"]:
        if "select" in query:
            sel = query["select"]
            expr = ScanExpr(sel["stream"]).select(
                Comparison(sel["attr"], sel["op"], sel["value"]))
        else:
            join = query["join"]
            expr = ScanExpr(join["left"]).join(
                ScanExpr(join["right"]), join["on"], join["on"],
                join["window"], variant=join["variant"])
        dsms.register_query(query["name"], expr, roles=set(query["roles"]))
    for stream in spec["streams"]:
        with open(stream["path"]) as fp:
            elements = list(load_stream(fp))
        dsms.register_stream(
            StreamSchema(stream["sid"], tuple(stream["attributes"]),
                         key=stream["key"]),
            elements)
    return dsms


def lines(results) -> dict[str, list[str]]:
    return {name: [encode_element(e) for e in results[name].elements]
            for name in sorted(results)}


def digest(delivered: dict[str, list[str]]) -> str:
    h = hashlib.sha256()
    for name, encoded in delivered.items():
        for line in encoded:
            h.update(f"{name}\t{line}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [61, 17])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_path_delivers_the_pinned_lines(name, seed, tmp_path):
    spec, _ = workloads.build(name, seed, str(tmp_path), scale=SCALE)
    delivered = lines(new_dsms(spec).run())
    if spec["expected"] is not None:
        # The generator's own answer, computed without the engine.
        assert workloads.digest({
            name: [record["tid"] for record in map(json.loads, encoded)
                   if record["k"] == "t"]
            for name, encoded in delivered.items()}) == spec["expected"]
    assert any(delivered.values()), "the workload delivers nothing"
    assert lines(push_all(new_dsms(spec))) == delivered
    assert digest(delivered) == GOLDEN[name, seed]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_query_has_one_shield_its_delivery_outlet(name, tmp_path):
    spec, _ = workloads.build(name, 61, str(tmp_path), scale=0.05)
    dsms = new_dsms(spec)
    plan, _ = dsms.build_plan()
    outlets = {query["name"]: [f"delivery:{query['name']}"]
               for query in spec["queries"]}
    assert {name: [shield.name for shield in dsms.shields(name)]
            for name in outlets} == outlets
    assert sorted(shield.name for shield in plan.find_operators(
        SecurityShield)) == sorted(name for name, in outlets.values())


#: The seventh shape: ``sajoin_window``'s left stream into both ports
#: of its join (a self-join).
SELF_JOIN = {
    61: "3eba99ad63d4874f4c4a1c59c0f2f2d92a9099c56a6a373a1118961c4c507b67",
    17: "da4c6fb3b8407262738417618cbd2c90e8c8f2e5ec55364913a2300c71023767",
}


@pytest.mark.parametrize("seed", [61, 17])
def test_the_self_join_delivers_the_pinned_lines(seed, tmp_path):
    spec, _ = workloads.build("sajoin_window", seed, str(tmp_path),
                              scale=SCALE)
    left = spec["streams"][0]
    (query,) = spec["queries"]
    assert left["sid"] == query["join"]["left"]
    spec = dict(spec, streams=[left], queries=[dict(
        query, join=dict(query["join"], right=left["sid"]))])
    delivered = lines(new_dsms(spec).run())
    assert any(delivered.values()), "the self-join delivers nothing"
    assert lines(push_all(new_dsms(spec))) == delivered
    assert digest(delivered) == SELF_JOIN[seed]
