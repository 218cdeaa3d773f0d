"""Self-test for the repo's AST lint (scripts/lint_rules.py)."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO / "scripts" / "lint_rules.py"

spec = importlib.util.spec_from_file_location("lint_rules", SCRIPT)
lint_rules = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_rules)


def findings(check, source):
    return check(Path("x.py"), ast.parse(source))


class TestRL001:
    def test_id_assigned_to_tid_name(self):
        found = findings(lint_rules.check_rl001,
                         "tid = id(obj)\nself.next_tid = id(x)\n")
        assert len(found) == 2
        assert all(f.rule == "RL001" for f in found)

    def test_id_into_datatuple(self):
        found = findings(
            lint_rules.check_rl001,
            'DataTuple("s", id(x), {}, 0.0)\n')
        assert len(found) == 1

    def test_legitimate_id_uses_allowed(self):
        found = findings(lint_rules.check_rl001,
                         "oid = id(node)\nseen[id(seg)] = 1\n")
        assert found == []


class TestRL002:
    def test_wall_clock_reads(self):
        found = findings(lint_rules.check_rl002,
                         "t = time.time()\nu = time.perf_counter()\n")
        assert len(found) == 2

    def test_unseeded_module_random(self):
        found = findings(lint_rules.check_rl002,
                         "x = random.choice(xs)\n")
        assert len(found) == 1

    def test_seeded_random_allowed(self):
        found = findings(
            lint_rules.check_rl002,
            'rng = random.Random("seed")\nx = rng.choice(xs)\n')
        assert found == []

    def test_unseeded_random_instance(self):
        found = findings(lint_rules.check_rl002,
                         "rng = random.Random()\n")
        assert len(found) == 1


class TestRL003:
    def test_unaudited_drop_counter(self):
        source = (
            "class Op:\n"
            "    def f(self):\n"
            "        self.tuples_blocked += 1\n")
        found = findings(lint_rules.check_rl003, source)
        assert len(found) == 1
        assert "Op" in found[0].message

    @pytest.mark.parametrize("call", ["record('drop')",
                                      "record_run('drop', tuples)"])
    def test_audited_drop_counter_allowed(self, call):
        source = (
            "class Op:\n"
            "    def f(self):\n"
            "        self.tuples_blocked += 1\n"
            "        if self.audit is not None:\n"
            f"            self.audit.{call}\n")
        assert findings(lint_rules.check_rl003, source) == []


class TestRL004:
    def test_drop_counter_is_rl003s_business(self):
        """The merged rule: a drop counter needs the audit hook
        (RL003) and nothing else — RL004 is about spans only."""
        source = (
            "class Op:\n"
            "    def f(self):\n"
            "        self.tuples_blocked += 1\n"
            "        self.audit.record('drop')\n")
        assert findings(lint_rules.check_rl004, source) == []
        assert findings(lint_rules.check_rl003, source) == []

    def test_raw_spanevent_flagged(self):
        found = findings(lint_rules.check_rl004,
                         "ev = SpanEvent('x', 1, 2, 0, 'op', {})\n")
        assert len(found) == 1
        assert "SpanEvent" in found[0].message

    def test_flat_span_call_flagged(self):
        found = findings(lint_rules.check_rl004,
                         "tracer.span('shield', {})\n")
        assert len(found) == 1
        assert ".span" in found[0].message

    def test_tracer_api_calls_allowed(self):
        source = (
            "tracer.begin('tuple', stream='hr')\n"
            "tracer.op_span('op.process', 0, 12)\n")
        assert findings(lint_rules.check_rl004, source) == []


class TestRL005:
    def test_bare_func_condition_flagged(self):
        found = findings(lint_rules.check_rl005,
                         "cond = FuncCondition(lambda t: True)\n")
        assert len(found) == 1
        assert found[0].rule == "RL005"

    def test_label_keyword_alone_still_flagged(self):
        found = findings(
            lint_rules.check_rl005,
            'cond = FuncCondition(fn, label="guard")\n')
        assert len(found) == 1

    def test_positional_attributes_allowed(self):
        found = findings(lint_rules.check_rl005,
                         'cond = FuncCondition(fn, ("x", "y"))\n')
        assert found == []

    def test_keyword_attributes_allowed(self):
        found = findings(
            lint_rules.check_rl005,
            'cond = FuncCondition(fn, attributes=["x"])\n')
        assert found == []

    def test_wrap_classmethod_not_flagged(self):
        # .wrap infers the declaration itself; the callee name differs
        # so the rule must not fire on it.
        found = findings(lint_rules.check_rl005,
                         "cond = FuncCondition.wrap(fn)\n")
        assert found == []


#: One violating line per guard, by guard name.  The execution-mode
#: seed is split so that this file does not match that guard itself.
SEEDS = {
    "one execution mode": ("docs/x.md", "dsms.run(batch" + "ing=True)"),
    "one encoder, one decoder": ("src/repro/stream/wire.py",
                                 "line = json.dumps(record)"),
    "one line builder": ("src/repro/stream/wire.py",
                         'record = {"k": "t"}'),
    "one decision record": ("src/x.py", "tracer.record(event)"),
    "one tracer": ("src/x.py", "sink = NullTraceSink()"),
    "one kernel": ("src/repro/operators/x.py",
                   "out = [t for t in run if self.condition(t)]"),
    "one select state machine": ("src/repro/engine/x.py",
                                 "select._held_sps = []"),
    "one frame per operator": ("src/repro/operators/x.py",
                               "def _process_tuple(self, item):"),
    "an allocation-free push": ("src/repro/engine/session.py",
                                "out.setdefault(name, []).append(e)"),
    "one walk per push": ("src/repro/engine/session.py",
                          "return {name: [] for name in self._sinks}"),
    "one sp-batch interpreter": ("src/repro/x.py",
                                 "policy = Policy(tuple(roles))"),
    "one role set": ("src/x.py", "roles = RoleSet(names)"),
    "one query compiler": ("src/repro/x.py",
                           'SecurityShield(r, name=f"delivery:{q}")'),
    "role names are names": ("src/repro/core/punctuation.py",
                             "value = _coerce(token)"),
    "one analysis per question": ("src/x.py",
                                  "from repro.analysis import analyze_plan"),
    "one plan, as registered": ("src/x.py",
                                "dsms.run(optimize=OptimizeLevel.WORKLOAD)"),
    "one process": ("examples/x.py", "results = dsms.run(shards=2)"),
    "one sp-batch buffer per stream": ("src/x.py",
                                       "dsms.open_session(analyze_sps=False)"),
    "one resolution per sp-batch": ("src/repro/operators/shield.py",
                                    "    def split(self, n_first=1):"),
    "one constructor per sp value": (
        "src/repro/core/punctuation.py",
        "sp = object.__new__(SecurityPunctuation)"),
    "one credit helper": ("src/repro/engine/x.py",
                          "select.stats.processing_time += elapsed"),
    "what nothing builds": (
        "tests/x.py", "from repro.operators import Inter" + "sect, Union"),
    "one span per hop": (
        "src/repro/engine/x.py",
        'parent = tracer.op_span("op.process", root, round(share * 1e9))'),
    "one outlet per query": (
        "tests/x.py", "dsms.register_query(q, e, auto" + "_shield=False)"),
    "one answer to why": (
        "src/repro/observability/provenance.py",
        "    def ev" + "ent(self, name, *, keep=False, **attrs):"),
    "a switch costs the group O(1)": (
        "src/repro/engine/executor.py", "select.hold(element)"),
    "a pass replays nothing": (
        "src/repro/engine/plan.py",
        "        self._seen = [(0, 0, 0, 0.0)] * len(keys)"),
    "one figure harness": (
        "benchmarks/x.py", "def test_fig7a(bench" + "mark, streams):  # "
        "bench_" + "fig7a"),
    "one walk per sp-batch": (
        "src/repro/engine/session.py",
        "        sps = self.analyzer.process_batch(sps)"),
}

#: Lines no guard flags: an allow-listed line, or a near miss.
ALLOWED = [
    ("src/repro/engine/plan.py", 'SecurityShield(r, name=f"delivery:{q}")'),
    ("src/repro/operators/base.py", "self._batches = []"),
    ("src/x.py", "batch = tracker.take_pending_sps()"),
    ("src/repro/engine/session.py",
     "if query_name not in self._sinks:"),
    ("src/repro/engine/session.py",
     "return [e for e in self._sinks[query_name].elements"),
    ("src/repro/operators/base.py",
     "self._segment_policy = batch[0].segment_policy()"),
    ("src/repro/stream/element.py", "def split(elements):"),
    ("src/repro/observability/provenance.py",
     "event.__dict__.update(fields)"),
    ("src/repro/operators/base.py", "stats.ewma_seconds += share"),
    ("src/repro/experiments/x.py",
     "total = sum(op.stats.processing_time for op in operators)"),
    ("src/repro/core/analyzer.py",
     '"""Intersect one provider sp with applicable server policies."""'),
    ("src/repro/observability/provenance.py",
     "self.sink.emit(SpanEvent(*row))"),
    ("src/repro/operators/base.py", "share = elapsed / len(operators)"),
    ("src/repro/engine/executor.py", "group.add_sp(element)"),
    ("src/repro/engine/plan.py",
     "        credit(selects, hops - last[0], share, tuples, sps, outs)"),
    ("src/repro/observability/audit.py", "    def ev" + "ent(self, i):"),
    ("src/repro/engine/plan.py",
     "            batch = analyzer.process_batch(batch)"),
]


class TestGuards:
    def test_every_guard_has_a_seed(self):
        assert set(SEEDS) == {guard.name for guard in lint_rules.GUARDS}

    def test_each_guard_fires_on_its_seed_only(self, tmp_path):
        for relpath, line in [*SEEDS.values(), *ALLOWED]:
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a", encoding="utf-8") as out:
                out.write(line + "\n")
        fired = [finding.message.split(":")[0]
                 for finding in lint_rules.check_guards(tmp_path)]
        assert sorted(fired) == sorted(SEEDS)


    def test_one_walk_per_sp_batch(self, tmp_path):
        """The entry's one analyzer call is allowed where it is and
        nowhere else; the plain-grant helper it replaced is gone."""
        lines = {
            "src/repro/engine/plan.py": [
                "            batch = analyzer.process_batch(batch)",
                "        out = self.analyzer.process_batch(self._batch)",
                "                roles = _plain_grant_roles(pending)"],
            "src/repro/engine/executor.py": [
                "            batch = analyzer.process_batch(batch)"],
            "src/repro/core/analyzer.py": [
                "            yield from self.process_batch(pending)"],
        }
        for relpath, texts in lines.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(texts) + "\n", encoding="utf-8")
        fired = sorted((finding.path.relative_to(tmp_path).as_posix(),
                        finding.line)
                       for finding in lint_rules.check_guards(tmp_path))
        assert fired == [("src/repro/engine/executor.py", 1),
                         ("src/repro/engine/plan.py", 2),
                         ("src/repro/engine/plan.py", 3)]


class TestWholeTree:
    def test_src_repro_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)], cwd=REPO,
            capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_violations_fail_via_cli(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("tid = id(obj)\n")
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(bad)], cwd=REPO,
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "RL001" in result.stdout
