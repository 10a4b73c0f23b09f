import argparse
import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

from trihybrid import cli
from trihybrid.harness import RunConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the one ```python block of the README, run as written
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    (rate, iterations), (residual, projected) = (
        line.split() for line in out.getvalue().splitlines()
    )
    assert float(rate) > 0.0 and float(projected) > 0.0
    assert int(iterations) >= 1
    assert math.isfinite(float(residual)) and float(residual) >= 0.0


def test_readme_config_block_is_the_defaults(tmp_path):
    config_section = README.read_text(encoding="utf-8").split("### Config file")[1]
    block = re.search(r"```json\n(.*?)```", config_section, re.S).group(1)
    path = tmp_path / "defaults.json"
    path.write_text(block, encoding="utf-8")
    assert parse_config(path) == RunConfig()


def test_readme_flag_table_is_each_subcommands_options():
    text = README.read_text(encoding="utf-8")
    table = text.split("| subcommand | flags |\n| --- | --- |\n")[1].split("\n\n")[0]
    rows = (re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups() for row in table.splitlines())
    documented = {name: set(re.findall(r"`(-[-\w]*)`", flags)) for name, flags in rows}
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for action in sp._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert documented == options
    assert set(options) == {"run", "sweep", "project", "trace"}


def test_readme_rule_table_is_each_config_fields_rule():
    config_section = README.read_text(encoding="utf-8").split("### Config file")[1]
    table = config_section.split("| field | must be |\n| --- | --- |\n")[1].split("\n\n")[0]
    rows = (re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups() for row in table.splitlines())
    documented = dict(rows)
    rules = {
        name: what
        for cls in RunConfig.__mro__
        for name, (what, _) in vars(cls).get("RULES", {}).items()
    }
    assert documented == {f.name: rules[f.name] for f in dataclasses.fields(RunConfig) if f.init}
