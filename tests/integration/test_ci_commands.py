"""Every ``python -m repro …`` command of the CI workflow parses, and
the CLI smoke steps' assertions hold in tier-1.

The workflow's smoke steps call the CLI by subcommand and flag; a
renamed one would only fail in CI.  This reads each ``run:`` step of
``.github/workflows/ci.yml`` (folded ``>`` blocks joined by spaces,
``\\`` continuations joined), cuts each repro command at its first
shell operator, replaces ``${{ … }}`` expressions with a literal, and
hands the arguments to the CLI's own parser.  :class:`TestStepTwins`
runs what the "Metrics exposition smoke" and "Example plans replay"
steps run and asserts what they assert.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.observability.export import parse_prometheus

REPO = Path(__file__).resolve().parents[2]
CI = REPO / ".github" / "workflows" / "ci.yml"
COMMAND = re.compile(r"\bpython3? -m repro\b(.*)")
EXPRESSION = re.compile(r"\$\{\{.*?\}\}")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def run_scripts(text: str) -> list[str]:
    """The shell text of each ``run:`` step."""
    lines = text.splitlines()
    scripts, at = [], 0
    while at < len(lines):
        key, found, value = lines[at].partition("run:")
        at += 1
        if not found or key.strip() not in ("", "-"):
            continue
        value = value.strip()
        if value[:1] not in (">", "|"):
            scripts.append(value)
            continue
        body = []
        while at < len(lines) and (not lines[at].strip()
                                   or _indent(lines[at]) > _indent(key)):
            body.append(lines[at].strip())
            at += 1
        joined = (" " if value[0] == ">" else "\n").join(body)
        scripts.append(joined.replace("\\\n", " "))
    return scripts


def repro_commands(text: str) -> list[list[str]]:
    """The arguments after ``python -m repro`` of every CI command."""
    commands = []
    for script in run_scripts(text):
        for line in script.splitlines():
            match = COMMAND.search(line)
            if match is None:
                continue
            lexer = shlex.shlex(EXPRESSION.sub("1", match.group(1)),
                                posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if set(token) <= set("<>|&;()"):
                    break
                argv.append(token)
            commands.append(argv)
    return commands


COMMANDS = repro_commands(CI.read_text(encoding="utf-8"))


def test_the_workflow_calls_the_cli():
    assert {argv[0] for argv in COMMANDS} >= {"why", "metrics", "verify"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_the_cli_accepts_the_command(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_a_renamed_flag_would_fail():
    (argv,) = repro_commands("      - run: python -m repro why --nope 1\n")
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


class TestStepTwins:
    def test_metrics_exposition_smoke(self, capsys):
        """``repro metrics --format prom`` parses back with all four
        series the step requires."""
        required = ("repro_policy_propagation_seconds_count",
                    "repro_operator_latency_seconds_count",
                    "repro_shield_tuples_total",
                    "repro_elements_total")
        text = CI.read_text(encoding="utf-8")
        assert all(f'"{name}"' in text for name in required)
        assert main(["metrics", "--format", "prom"]) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        assert [name for name in required if name not in samples] == []

    def test_example_plans_replay_smoke(self, capsys):
        """``repro verify --replay`` runs every example plan against the
        oracle with no mismatch."""
        examples = sorted(str(path) for path in
                          (REPO / "examples" / "plans").glob("*.json"))
        assert len(examples) >= 3
        text = CI.read_text(encoding="utf-8")
        assert "verify --replay examples/plans/*.json" in text
        assert main(["verify", "--replay", *examples]) == 0
        out = capsys.readouterr().out
        assert f"== {len(examples)} case(s)" in out
        assert ", 0 mismatches" in out
