"""Blocking context-aware spam for moving objects (paper Example 1).

People moving through a city with GPS devices stream their locations.
A retail store runs the paper's running query — *"continuously
retrieve all moving objects in the two-mile region around the store"*
— to push advertisements.  Each segment of location updates is
preceded by a security punctuation deciding who may see it: the retail
role if the people in it opted in, their family otherwise, and the
choice changes from segment to segment while the stream runs.

Run::

    python examples/location_privacy.py
"""

from __future__ import annotations

from repro.algebra.expressions import ScanExpr
from repro.engine import DSMS
from repro.operators.conditions import FuncCondition
from repro.workloads.synthetic import (QUERY_ROLE, SYNTH_SCHEMA,
                                      punctuated_stream, role_names)

STORE_X, STORE_Y = 500.0, 500.0
REGION = 400.0  # "two miles", in city units


def near_store():
    def in_region(t):
        dx = t.values["x"] - STORE_X
        dy = t.values["y"] - STORE_Y
        return dx * dx + dy * dy <= REGION * REGION

    return FuncCondition(in_region, attributes=("x", "y"),
                         label="near_store")


def main() -> None:
    # A two-role pool: the store's role (QUERY_ROLE) and the family's.
    (family_role,) = role_names(1)
    elements = list(punctuated_stream(
        720, tuples_per_sp=10, policy_size=1, role_pool=1, seed=3))
    n_tuples = sum(1 for e in elements if not hasattr(e, "srp"))
    n_sps = len(elements) - n_tuples

    dsms = DSMS()
    dsms.register_stream(SYNTH_SCHEMA, elements)

    region_query = ScanExpr("synthetic").select(near_store())
    dsms.register_query("store_ads", region_query, roles={QUERY_ROLE})
    dsms.register_query("family_map", ScanExpr("synthetic"),
                        roles={family_role})

    results = dsms.run()
    ads = results["store_ads"].tuples
    family = results["family_map"].tuples

    print(f"Location updates streamed:   {n_tuples} (plus {n_sps} sps)")
    print(f"In-region updates the store may use:  {len(ads)}")
    print(f"Updates visible to family:            {len(family)}")

    targeted = sorted({t.tid for t in ads})
    everyone = sorted({t.tid for t in family})
    print(f"Objects the store can target: {targeted[:10]}"
          f"{' ...' if len(targeted) > 10 else ''}")

    # The store can only advertise to opted-in objects, and only while
    # they are in the region; the family role sees a different slice.
    assert set(targeted) != set(everyone)
    assert len(ads) < n_tuples

    print("\nOK: the store's reach is bounded by each person's own "
          "streamed policy, re-evaluated at every change.")


if __name__ == "__main__":
    main()
