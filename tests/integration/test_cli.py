"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.stream.wire import encode_element


class TestExplainCommand:
    def test_explain_plain(self, capsys):
        code = main(["explain",
                     "SELECT a, b FROM s WHERE a > 1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "π[a,b]" in out
        assert "Scan(s)" in out

    def test_explain_with_roles(self, capsys):
        code = main(["explain", "SELECT a FROM s", "--roles", "D,C"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["ψ[{C,D}]", "  π[a]", "    Scan(s)"]

    def test_explain_rejects_insert_sp(self, capsys):
        code = main(["explain",
                     "INSERT SP INTO STREAM s LET DDP = '*', SRP = 'D'"])
        assert code == 2

    def test_syntax_error_reported(self, capsys):
        code = main(["explain", "SELEKT nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestSPCommand:
    def test_translates_to_alphanumeric_format(self, capsys):
        code = main(["sp",
                     "INSERT SP INTO STREAM hr "
                     "LET DDP = '*, [120-133], *', SRP = '{GP, D}', "
                     "TIMESTAMP = 5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("<hr, [120-133], *")
        assert "| + |" in out

    def test_rejects_select(self, capsys):
        assert main(["sp", "SELECT a FROM s"]) == 2


class TestWireCommand:
    def test_valid_file(self, tmp_path, capsys):
        from repro.core.punctuation import SecurityPunctuation
        from repro.stream.tuples import DataTuple

        path = tmp_path / "stream.jsonl"
        elements = [
            SecurityPunctuation.grant(["D"], ts=0.0),
            DataTuple("s", 1, {"v": 1}, 1.0),
            DataTuple("s", 2, {"v": 2}, 2.0),
        ]
        path.write_text("\n".join(encode_element(e) for e in elements))
        code = main(["wire", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tuples:   2" in out
        assert "sps:      1" in out
        assert "ordered:  yes" in out

    def test_unordered_file_fails(self, tmp_path, capsys):
        from repro.stream.tuples import DataTuple

        path = tmp_path / "bad.jsonl"
        elements = [DataTuple("s", 1, {"v": 1}, 5.0),
                    DataTuple("s", 2, {"v": 2}, 1.0)]
        path.write_text("\n".join(encode_element(e) for e in elements))
        assert main(["wire", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["wire", "/nonexistent/file.jsonl"]) == 2

    @pytest.mark.parametrize("command", ["wire", "stats", "audit"])
    def test_json_that_is_not_a_record_is_an_error_line(
            self, command, tmp_path, capsys):
        path = tmp_path / "hostile.jsonl"
        path.write_text('{"k":"t","sid":"s","tid":1,"v":{"a":1},"ts":1}\n'
                        '[1,2]\n')
        assert main([command, str(path)]) == 2
        assert "error: malformed wire line" in capsys.readouterr().err


class TestStatsCommand:
    def test_demo_stream_table(self, capsys):
        code = main(["stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-operator stage metrics" in out
        assert "SecurityShield" in out
        assert "elements in:  5" in out
        assert "drops:        1" in out
        assert "analyzer:" in out

    def test_wire_file_input(self, tmp_path, capsys):
        from repro.core.punctuation import SecurityPunctuation
        from repro.stream.tuples import DataTuple

        path = tmp_path / "stream.jsonl"
        elements = [
            SecurityPunctuation.grant(["ND"], ts=0.0),
            DataTuple("s", 1, {"v": 1}, 1.0),
            DataTuple("s", 2, {"v": 2}, 2.0),
        ]
        path.write_text("\n".join(encode_element(e) for e in elements))
        code = main(["stats", str(path), "--roles", "ND"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered:    2 tuples" in out

    def test_multi_stream_file_rejected(self, tmp_path, capsys):
        from repro.stream.tuples import DataTuple

        path = tmp_path / "multi.jsonl"
        elements = [DataTuple("a", 1, {"v": 1}, 1.0),
                    DataTuple("b", 2, {"v": 2}, 2.0)]
        path.write_text("\n".join(encode_element(e) for e in elements))
        assert main(["stats", str(path)]) == 2
        assert "multiple stream ids" in capsys.readouterr().err


class TestAuditCommand:
    def test_demo_stream_trail(self, capsys):
        code = main(["audit"])
        out = capsys.readouterr().out
        assert code == 0
        # The demo's one denial is its {C, D} segment, dropped at the
        # stream's entry.
        assert "entry.drop" in out
        assert "recorded:" in out

    def test_kind_filter(self, capsys):
        code = main(["audit", "--kind", "shield.segment"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shield.segment" in out
        assert "shield.drop {" not in out

    def test_jsonl_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "audit.jsonl"
        code = main(["audit", "--jsonl", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert any(r["kind"] == "entry.drop" for r in records)


class TestMetricsCommand:
    def test_prom_output_parses(self, capsys):
        from repro.observability.export import parse_prometheus

        code = main(["metrics", "--format", "prom"])
        out = capsys.readouterr().out
        assert code == 0
        samples = parse_prometheus(out)
        assert any(name.startswith("repro_policy_propagation_seconds")
                   for name in samples)
        assert any(name.startswith("repro_operator_latency_seconds")
                   for name in samples)
        assert any(name.startswith("repro_shield_tuples_total")
                   for name in samples)

    def test_json_output(self, capsys):
        import json

        code = main(["metrics", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["repro_elements_total"]["kind"] == "counter"
        assert "repro_tuple_latency_seconds" in doc

    def test_wire_file_input(self, tmp_path, capsys):
        from repro.core.punctuation import SecurityPunctuation
        from repro.observability.export import parse_prometheus
        from repro.stream.tuples import DataTuple

        path = tmp_path / "stream.jsonl"
        elements = [
            SecurityPunctuation.grant(["ND"], ts=0.0),
            DataTuple("s", 1, {"v": 1}, 1.0),
            DataTuple("s", 2, {"v": 2}, 2.0),
        ]
        path.write_text("\n".join(encode_element(e) for e in elements))
        code = main(["metrics", str(path), "--roles", "ND"])
        out = capsys.readouterr().out
        assert code == 0
        samples = parse_prometheus(out)
        tuples = [value for labels, value
                  in samples["repro_elements_total"]
                  if labels["kind"] == "tuple"]
        assert tuples == [2.0]


class TestOneAnswerToWhy:
    """``why`` is the one command-line reader of a tuple's decisions;
    the live dashboard and the scrape server are gone."""

    @pytest.mark.parametrize("argv", [
        ["monitor"], ["audit", "--explain", "1"], ["metrics", "--serve"]])
    def test_retired_front_end_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
