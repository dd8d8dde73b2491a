import pytest

import lexiforge.savefile as savefile


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
