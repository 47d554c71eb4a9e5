import pathlib
import re

from uwacap import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_global_flags_match_the_parser():
    (sentence,) = re.findall(r"Global flags \((.*?)\)", README.read_text(), re.S)
    documented = re.findall(r"`(--[\w-]+)`", sentence)
    defined = [
        flag for action in cli.build_parser()._actions for flag in action.option_strings if flag not in ("-h", "--help")
    ]
    assert sorted(documented) == sorted(defined)
    assert len(documented) == len(set(documented))
