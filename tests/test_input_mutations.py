"""One line of one input file mutated: the command that reads the file ends
in exit 0, 2 or 3, never 4 or a traceback, and an exit-2 error names the
file and the line, or a named setting."""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import lexiforge
from lexiforge.cli import main
from lexiforge.config import KEY_MAP

DATA = Path(__file__).parent / "data"
TAGGER = Path(lexiforge.__file__).parent / "data" / "tagger_fr.tsv"

def translate(d):
    return ["translate", "--ulcs", d / "ulcs.tsv", "--dictionary", d / "dictionary.tsv", "--config", d / "run.config",
            "--offline", "--cache", d / "e2e.cache", "--source-tagger", d / "tagger.tsv", "--out-dir", d / "out"]


def extract(d, *oracle):
    return ["extract", "--corpus", d / "corpus.tsv", "--config", d / "run.config", *oracle, "--out", d / "units.tsv"]


def evaluate(d):
    return ["evaluate", "--lexicon", d / "lexicon.tsv", "--gold", d / "gold.tsv"]


# Each input file, and the command that reads it.
COMMANDS = {
    "corpus.tsv": lambda d: extract(d, "--offline", "--cache", d / "e2e.cache"),
    "docs.jsonl": lambda d: extract(d, "--docs", d / "docs.jsonl"),
    "ulcs.tsv": translate,
    "dictionary.tsv": translate,
    "e2e.cache": translate,
    "run.config": translate,
    "tagger.tsv": translate,
    "gold.tsv": evaluate,
    "lexicon.tsv": evaluate,
}


def insert(text):
    return lambda body, at, _: body[:at] + text + body[at:]


def flip(body, at, mask):
    return body[:at] + bytes([body[at] ^ mask]) + body[at + 1:] if at < len(body) else body


def drop_tab(body, at, _):
    at = body.find(b"\t", at)
    return body if at < 0 else body[:at] + body[at + 1:]


def number(make):
    def mutate(body, at, _):
        numbers = list(re.finditer(rb"\d+", body))
        if not numbers:
            return body
        found = numbers[at % len(numbers)]
        return body[:found.start()] + make(found.group()) + body[found.end():]
    return mutate


def empty_field(body, at, _):
    fields = body.split(b"\t")
    fields[at % len(fields)] = b""
    return b"\t".join(fields)


MUTATIONS = {
    "byte flip": flip,
    "tab dropped": drop_tab,
    "tab added": insert(b"\t"),
    "NUL": insert(b"\x00"),
    "invalid UTF-8 byte": insert(b"\xff"),
    "CR": insert(b"\r"),
    "negative count": number(lambda digits: b"-" + digits),
    "400-digit count": number(lambda digits: b"9" * 400),
    "empty field": empty_field,
    "duplicated line": lambda body, at, _: body + b"\n" + body,
    "NBSP": insert("\u00a0".encode()),
    "BOM": insert("\ufeff".encode()),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The fixture inputs, the tagger lexicon and a lexicon ``translate``
    wrote from them, each read without error by its command."""
    d = tmp_path_factory.mktemp("inputs")
    for name in COMMANDS:
        if name == "tagger.tsv":
            shutil.copyfile(TAGGER, d / name)
        elif name != "lexicon.tsv":
            shutil.copyfile(DATA / name, d / name)
    assert run(translate(d)) == (0, "")
    shutil.move(d / "out" / "lexicon.tsv", d / "lexicon.tsv")
    for name, command in COMMANDS.items():
        assert run(command(d)) == (0, ""), name
    return d


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.sampled_from(sorted(MUTATIONS)), st.data())
def test_a_mutated_input_line_exits_0_2_or_3_and_names_its_line(inputs, name, mutation, data):
    with tempfile.TemporaryDirectory(dir=inputs) as tmp:
        d = Path(tmp)
        for each in inputs.iterdir():  # the saved files too: the mutated file's are stale
            if each.is_file():
                shutil.copyfile(each, d / each.name)
        lines = (d / name).read_bytes().split(b"\n")[:-1]
        k = data.draw(st.integers(0, len(lines) - 1), label="line index")
        at = data.draw(st.integers(0, max(len(lines[k]) - 1, 0)), label="byte")
        lines[k] = MUTATIONS[mutation](lines[k], at, data.draw(st.integers(1, 255), label="flip mask"))
        (d / name).write_bytes(b"\n".join(lines) + b"\n")

        code, err = run(COMMANDS[name](d))
    event(f"exit {code}")
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        # One line; a CR or a duplicate makes the mutated line two.
        assert err.startswith("error: ") and err.count("\n") == 1, err
        names_line = any(f"{d / name}:{n}:" in err for n in (k + 1, k + 2))
        names_setting = name == "run.config" and any(key in err for key in KEY_MAP)
        gold_coverage = name in ("gold.tsv", "lexicon.tsv") and "lack a gold grade" in err  # by design
        assert names_line or names_setting or gold_coverage, err
