import zlib
from pathlib import Path

import pytest

import lexiforge.savefile as savefile
from lexiforge import backends, dictionary, oracle, tagging


@pytest.mark.parametrize("magic", [b"", b"lexiforge-parse", b"lexiforge-parsed\n"])
def test_a_magic_of_other_than_16_bytes_raises(tmp_path, magic):
    # The header would pad a short magic (and cut a long one), so a load
    # would never match it and the file would be made again on every run.
    path = tmp_path / "saved"
    with pytest.raises(ValueError, match="not 16"):
        savefile.save(path, magic, 1, (0, 0), [["part"]])
    assert list(tmp_path.iterdir()) == []
    savefile.save(path, magic.ljust(16, b"\0")[:16], 1, (0, 0), [["part"]])
    with pytest.raises(ValueError, match="not 16"):
        savefile.load(path, magic, 1, 1, lambda key: True)
    assert savefile.load(path, magic.ljust(16, b"\0")[:16], 1, 1, lambda key: True) == ((0, 0), [["part"]])


def test_the_saved_file_kinds_have_distinct_16_byte_magics():
    # A dictionary and a tagger lexicon both save to ``<file>.parsed``: only
    # the magic keeps a parse of one kind from loading as the other.
    magics = [backends._INDEX_MAGIC, oracle._SNAPSHOT_MAGIC, tagging._PARSE_MAGIC, dictionary._PARSE_MAGIC]
    assert [len(magic) for magic in magics] == [16] * 4
    assert len(set(magics)) == 4


# One fixed input for each saved-file kind. The snapshot's cache file holds
# one line of every form a load meets: a count, a snippet list, a mixed list,
# a pair written out of order, a corrupt line, a tab line, the retired
# [text, doc_id] form and, last, a torn line.
GUARD_DOCS = [
    '{"id": "fr1", "lang": "fr", "text": "La caisse centrale finance la caisse de retraite."}',
    '{"id": "en1", "lang": "en", "text": "The central fund manages the retirement fund."}',
    '{"id": "en2", "lang": "en", "text": "Souris d\'agneau is braised lamb shank."}',
    '{"id": "mix", "lang": "en", "text": "Midnight mass, la messe de minuit, starts at midnight."}',
]
GUARD_TAGGER = ["caisse\tNOUN\tcaisse", "Caisse\tNOUN\tfonds", "verte\tADJ\tvert", "la\tDET\tle", "une\tDET\tun"]
GUARD_DICTIONARY = ["caisse\tNOUN\tfund|cash desk", "central\tADJ\tcentral", "caisse\tNOUN\tbox", "messe_de_minuit\tNOUN\tmidnight_mass"]
GUARD_CACHE = [
    b"PHRASE_COUNT\tmidnight mass\t\t-\t-\t336000\n",
    b'SNIPPETS\tcaisse\t\t-\t5\t["La caisse", "Une caisse \\"verte\\""]\n',
    b'MIXED_SNIPPETS\tsouris\t\ten\t5\t["Lamb shank", "Souris d\'agneau"]\n',
    b"PAIR_COUNT\tcentral fund\tcaisse centrale\t-\t-\t4\n",
    b"PHRASE_COUNT\tbroken\n",
    b"\t\n",
    b'SNIPPETS\told\t\t-\t5\t[["La caisse", "fr1"], ["Une", null]]\n',
    b"PHRASE_COUNT\ttorn\t\t-\t-\t12",
]

# Each kind's format constant, the format its fingerprint was taken at, and
# that fingerprint. A change to what a kind saves, or to which records a
# load keeps, changes its fingerprint: bump the format and update the row.
SAVED_FILE_FINGERPRINTS = {
    "oracle._SNAPSHOT_FORMAT": (8, 0xAC8B97A7),
    "backends._INDEX_FORMAT": (2, 0xF8E8D959),
    "tagging._PARSE_FORMAT": (2, 0xD5C3716A),
    "dictionary._PARSE_FORMAT": (1, 0x60D8C2C1),
}


def canonical(part):
    """``part`` with each dict and set as a list sorted by ``repr``, so that
    its ``repr`` depends on neither insertion order nor string hashing."""
    if isinstance(part, dict):
        return ["dict", sorted(([canonical(k), canonical(v)] for k, v in part.items()), key=repr)]
    if isinstance(part, (set, frozenset)):
        return ["set", sorted(map(canonical, part), key=repr)]
    if isinstance(part, (list, tuple)):
        return type(part)(map(canonical, part))
    return part


def fingerprint(parts) -> int:
    return zlib.crc32(repr(canonical(parts)).encode("utf-8"))


def write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def saved_parts(tmp_path, name):
    """The parts of the ``name`` kind saved from its fixed input, as
    ``savefile.load`` reads them back."""
    tagger_path = write_lines(tmp_path / "tagger.tsv", GUARD_TAGGER)
    if name == "oracle._SNAPSHOT_FORMAT":
        path = tmp_path / "run.cache"
        path.write_bytes(b"".join(GUARD_CACHE))
        search = oracle.SearchOracle(None, oracle.ResponseCache(path))
        search.counted_snippets("caisse", 5, tagging.LexiconTagger.from_file(tagger_path))
        search.close()
        saved, magic, fmt, n_parts = f"{path}.snapshot", oracle._SNAPSHOT_MAGIC, oracle._SNAPSHOT_FORMAT, 2
    elif name == "backends._INDEX_FORMAT":
        path = write_lines(tmp_path / "docs.jsonl", GUARD_DOCS)
        backends.LocalIndexBackend.from_jsonl(path)
        saved, magic, fmt, n_parts = f"{path}.index", backends._INDEX_MAGIC, backends._INDEX_FORMAT, 7
    elif name == "tagging._PARSE_FORMAT":
        tagging.LexiconTagger.from_file(tagger_path)
        saved, magic, fmt, n_parts = f"{tagger_path}.parsed", tagging._PARSE_MAGIC, tagging._PARSE_FORMAT, 2
    else:
        path = write_lines(tmp_path / "dictionary.tsv", GUARD_DICTIONARY)
        dictionary.load_dictionary(path)
        saved, magic, fmt, n_parts = f"{path}.parsed", dictionary._PARSE_MAGIC, dictionary._PARSE_FORMAT, 2
    loaded = savefile.load(Path(saved), magic, fmt, n_parts, lambda key: True)
    assert loaded is not None, f"{saved} was not saved"
    return loaded[1]


@pytest.mark.parametrize("name", list(SAVED_FILE_FINGERPRINTS))
def test_a_saved_file_that_changes_bumps_its_format(tmp_path, name):
    module, constant = name.split(".")
    fmt = getattr({"oracle": oracle, "backends": backends, "tagging": tagging, "dictionary": dictionary}[module], constant)
    got = fingerprint(saved_parts(tmp_path, name))
    table_fmt, table_fingerprint = SAVED_FILE_FINGERPRINTS[name]
    assert fmt == table_fmt, f"{name} is {fmt}: set its row to ({fmt}, {got:#010x})"
    assert got == table_fingerprint, f"bump {name}: what it saves changed (fingerprint {got:#010x})"
