import pytest

from mvos.streams import derive_seed, stream_rng


@pytest.mark.parametrize("fn", [stream_rng, derive_seed])
def test_seed_is_required(fn):
    with pytest.raises(TypeError):
        fn(None)
