import numpy as np
import pytest

from volint.seeds import derive_seed


def test_deterministic():
    assert derive_seed(5, "a", "b") == derive_seed(5, "a", "b")


def test_labels_are_delimited():
    # concatenation without a separator would collide these
    assert derive_seed(5, "ab", "c") != derive_seed(5, "a", "bc")


def test_master_and_labels_both_matter():
    assert derive_seed(5, "x") != derive_seed(6, "x")
    assert derive_seed(5, "x") != derive_seed(5, "y")


@pytest.mark.parametrize("args, seed", [
    ((0, "S00000"), 2988491030532695646),
    ((1106, "S00042", "shuffle"), 1299751652378042584),
    ((17, "attrs"), 12287455642468383292),
    ((2 ** 63, "t"), 9794881496050194560)])
def test_values_are_pinned(args, seed):
    # every synthetic series and shuffle control is drawn from these
    assert derive_seed(*args) == seed


def test_range_fits_uint64():
    for s in (0, 1, 2 ** 63, 12345678901234567890 % (2 ** 64)):
        v = derive_seed(s, "t")
        assert 0 <= v < 2 ** 64


def test_usable_as_generator_seed():
    rng = np.random.default_rng(derive_seed(0, "stream"))
    assert rng.standard_normal(4).shape == (4,)
