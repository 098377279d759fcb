"""README.md's examples work: every JSON block is a valid config and every
Python block runs."""

import json
import re
from pathlib import Path

from gossip_learning.config import parse_config_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_every_json_block_is_a_valid_config():
    texts = code_blocks("json")
    assert texts
    for text in texts:
        parse_config_dict(json.loads(text))


def test_every_python_block_runs():
    sources = code_blocks("python")
    assert sources
    for source in sources:
        exec(compile(source, str(README), "exec"), {})
