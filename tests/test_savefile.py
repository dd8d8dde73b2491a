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
