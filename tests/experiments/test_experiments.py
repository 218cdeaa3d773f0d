"""Shape tests for the Section VII experiment drivers.

These run shrunken versions of the Figure 7-9 experiments and assert
the qualitative claims of the paper — who wins, and where — rather
than absolute numbers.  Timing-based assertions use comfortable
margins so they stay stable on slow CI machines; where a count shows
the same shape exactly, the test asserts the count.
"""

import sys

import pytest

from repro.experiments import fig7, fig8, fig9


@pytest.fixture(scope="module")
def fig7ab_rows():
    return fig7.experiment_fig7ab(n_tuples=2000, seed=3, repeats=3)


@pytest.fixture(scope="module")
def fig7cd_rows():
    return fig7.experiment_fig7cd(n_tuples=1500, buffer_size=250, seed=3)


class TestFig7ab:
    def test_all_mechanisms_same_output(self, fig7ab_rows):
        """Correctness cross-check: identical result counts per ratio."""
        by_ratio = {}
        for row in fig7ab_rows:
            by_ratio.setdefault(row["ratio"], set()).add(row["tuples_out"])
        for ratio, outputs in by_ratio.items():
            assert len(outputs) == 1, f"mechanisms disagree at {ratio}"

    def test_sp_improves_with_sharing(self, fig7ab_rows):
        sp_rows = [r for r in fig7ab_rows
                   if r["mechanism"] == "security punctuations"]
        per_tuple = {r["ratio"]: r["per_tuple_ms"] for r in sp_rows}
        assert per_tuple["1/100"] < per_tuple["1/1"]

    def test_sp_wins_at_high_sharing(self, fig7ab_rows):
        """Counted, not timed: at 1/100 the sps materialise one 3-role
        policy per segment (20), tuple-embedding one per tuple (2 000),
        and store-and-probe stores every sp's and resolves one per
        probe — so sps do strictly the least policy work."""
        at_100 = {r["mechanism"]: r["roles_materialised"]
                  for r in fig7ab_rows if r["ratio"] == "1/100"}
        assert at_100 == {"security punctuations": 20 * 3,
                          "tuple-embedded": 2000 * 3,
                          "store-and-probe": 20 * 3 + 2000 * 3}
        assert all(r["per_tuple_ms"] > 0 for r in fig7ab_rows)

    def test_store_and_probe_worst_at_1_1(self, fig7ab_rows):
        """Frequent unique policies penalize the central table most
        among sp-sharing-capable... (paper: worst until ~1/25)."""
        at_1 = {r["mechanism"]: r["per_tuple_ms"] for r in fig7ab_rows
                if r["ratio"] == "1/1"}
        assert at_1["store-and-probe"] > at_1["tuple-embedded"]


class TestFig7cd:
    def test_tuple_embedded_memory_grows_fastest(self, fig7cd_rows):
        te = {r["policy_size"]: r["memory_bytes"] for r in fig7cd_rows
              if r["mechanism"] == "tuple-embedded"}
        sp = {r["policy_size"]: r["memory_bytes"] for r in fig7cd_rows
              if r["mechanism"] == "security punctuations"}
        assert te[100] > sp[100]
        # Absolute growth: every extra role is copied per tuple under
        # tuple-embedding but only per segment under sps.
        assert (te[100] - te[1]) > (sp[100] - sp[1])

    def test_sp_beats_table_at_small_policies(self, fig7cd_rows):
        """Paper Fig 7c: sp model lowest memory for small |R|."""
        at_1 = {r["mechanism"]: r["memory_bytes"] for r in fig7cd_rows
                if r["policy_size"] == 1}
        assert (at_1["security punctuations"]
                < at_1["store-and-probe"])

    def test_table_overtakes_sp_at_large_policies(self, fig7cd_rows):
        """Paper Fig 7c: store-and-probe wins when |R| > 25."""
        at_100 = {r["mechanism"]: r["memory_bytes"] for r in fig7cd_rows
                  if r["policy_size"] == 100}
        assert (at_100["store-and-probe"]
                < at_100["security punctuations"])

    def test_tuple_embedded_processing_penalized(self, fig7cd_rows):
        """Counted, not timed: tuple-embedding materialises a private
        copy of the |R|-role policy per tuple (1 500), sps one per
        segment (150 at ten tuples per sp)."""
        roles = {(r["mechanism"], r["policy_size"]): r["roles_materialised"]
                 for r in fig7cd_rows}
        for size in fig7.PAPER_POLICY_SIZES:
            assert roles["tuple-embedded", size] == 1500 * size
            assert roles["security punctuations", size] == 150 * size
        assert all(r["per_100_tuples_ms"] > 0 for r in fig7cd_rows)


class TestFig8:
    def test_ss_cost_drops_with_sharing(self):
        rows = fig8.experiment_fig8a(n_tuples=2000, seed=5)
        ss = {r["ratio"]: r["ss_ms"] for r in rows}
        assert ss["1/100"] < ss["1/1"] / 2

    def test_ss_approaches_select_at_high_sharing(self):
        rows = fig8.experiment_fig8a(n_tuples=2000, seed=5)
        last = [r for r in rows if r["ratio"] == "1/100"][0]
        assert last["ss_ms"] < 4 * last["select_ms"]

    def test_ss_cost_grows_with_state_size(self):
        rows = fig8.experiment_fig8b(n_tuples=2000,
                                     role_counts=(1, 100, 500), seed=5)
        ss = {r["roles"]: r["ss_ms"] for r in rows}
        assert ss[500] > ss[1]

    def test_predicate_index_flattens_curve(self):
        naive = fig8.experiment_fig8b(n_tuples=1500,
                                      role_counts=(1, 500),
                                      indexed=False, seed=5)
        indexed = fig8.experiment_fig8b(n_tuples=1500,
                                        role_counts=(1, 500),
                                        indexed=True, seed=5)
        # The curve in state probes, which need no clock: the scan pays
        # every state role (R query roles + 1) per sp, the index one
        # probe per policy role (3) whatever the state holds — 150 sps.
        assert [(r["roles"], r["comparisons"]) for r in naive] == [
            (1, 150 * 2), (500, 150 * 501)]
        assert [(r["roles"], r["comparisons"]) for r in indexed] == [
            (1, 150 * 3), (500, 150 * 3)]
        assert all("ss_ms" in r for r in naive + indexed)


class TestFig9:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig9.experiment_fig9(n_tuples=600, window=200.0, seed=7,
                                    repeats=3)

    def test_index_wins_total_everywhere(self, rows):
        by_sigma = {}
        for row in rows:
            by_sigma.setdefault(row["sigma_sp"], {})[row["variant"]] = row
        for sigma, variants in by_sigma.items():
            assert (variants["index"]["total_ms"]
                    < variants["nested-loop"]["total_ms"]), sigma

    def test_value_comparisons_are_exact(self, rows):
        """The figure's shape in counts, which need no clock: the keyed
        index compares a value only with an equal-key candidate (every
        comparison of a pure equijoin is a hit, none at σ_sp = 0), the
        nested loop compares with the whole opposite window whatever
        the policies say."""
        for row in rows:
            if row["variant"] == "index":
                assert row["pairs_checked"] == row["results"], row
            else:
                assert row["pairs_checked"] == 184_776, row
        zero = next(r for r in rows
                    if r["variant"] == "index" and r["sigma_sp"] == 0.0)
        assert zero["pairs_checked"] == 0

    def test_default_size_nested_loop_scan_is_unchanged(self):
        rows = fig9.experiment_fig9(selectivities=(0.5,))
        assert [r["pairs_checked"] for r in rows] == [957_690, 1_631]

    def test_join_gap_largest_at_sigma_zero(self, rows):
        by = {(r["sigma_sp"], r["variant"]): r for r in rows}
        gap_at_0 = (by[(0.0, "index")]["join_ms"]
                    / max(by[(0.0, "nested-loop")]["join_ms"], 1e-9))
        gap_at_1 = (by[(1.0, "index")]["join_ms"]
                    / max(by[(1.0, "nested-loop")]["join_ms"], 1e-9))
        assert gap_at_0 < gap_at_1  # bigger win (smaller ratio) at σ=0

    def test_same_results_both_variants(self, rows):
        by_sigma = {}
        for row in rows:
            by_sigma.setdefault(row["sigma_sp"], {})[row["variant"]] = row
        for sigma, variants in by_sigma.items():
            assert (variants["index"]["results"]
                    == variants["nested-loop"]["results"]), sigma

    def test_sigma_zero_produces_nothing(self, rows):
        zero = [r for r in rows if r["sigma_sp"] == 0.0]
        assert all(r["results"] == 0 for r in zero)

    def test_sigma_one_produces_results(self, rows):
        one = [r for r in rows if r["sigma_sp"] == 1.0]
        assert all(r["results"] > 0 for r in one)


class TestGranularityExtension:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.granularity import experiment_granularity
        return experiment_granularity(n_tuples=2500, seed=53)

    def test_decisions_identical_across_granularities(self, rows):
        assert all(r["same_decisions"] for r in rows)

    def test_cost_ordering(self, rows):
        """stream < tuple < attribute enforcement cost, counted rather
        than timed: the shield resolves one policy per segment under a
        stream-level sp (250 segments), one per tuple under a
        tuple-level sp (2 500) and one per (tuple, attribute) under an
        attribute-level sp (3 attributes)."""
        from repro.core.policy import Policy
        from repro.experiments.fig8 import run_pipeline
        from repro.experiments.granularity import granularity_stream
        from repro.operators.shield import SecurityShield
        from repro.workloads.synthetic import QUERY_ROLE

        resolvers = {Policy.authorized_roles.__code__}
        resolutions = {}
        for name in ("stream", "tuple", "attribute"):
            elements = granularity_stream(name, 2500, seed=53)
            calls = []

            def count(frame, event, arg, calls=calls):
                if event == "call" and frame.f_code in resolvers:
                    calls.append(frame.f_code)

            sys.setprofile(count)
            try:
                run_pipeline(elements, SecurityShield([QUERY_ROLE]))
            finally:
                sys.setprofile(None)
            resolutions[name] = len(calls)
        assert resolutions == {"stream": 250, "tuple": 2500,
                               "attribute": 2500 * 3}
        assert all(r["ss_ms"] > 0 for r in rows)
