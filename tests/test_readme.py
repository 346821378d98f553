"""The README's library quick start runs as written, and its configuration block is the code's."""

import json
import re
from pathlib import Path

from shiftcp.cli import DEFAULT_CONFIG

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading: str, language: str = "python") -> str:
    """The first ``language`` block under ``heading``, before the next top-level section."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block under {heading!r} in README.md"
    return match.group(1)


def test_library_quick_start_runs():
    namespace: dict = {}
    exec(compile(_section_code("## Library quick start"), "README.md (Library quick start)", "exec"), namespace)
    # Randomized pseudo-scores never fall below the hard ones, so neither does the tuned threshold.
    assert namespace["tuned_cal"].threshold >= namespace["hard_cal"].threshold


def test_configuration_block_is_the_default_config():
    # A user who copies the block must run the default experiment, digit for digit.
    assert json.loads(_section_code("### Configuration", "json")) == DEFAULT_CONFIG
