import g2abc


def test_every_public_name_resolves_once():
    names = g2abc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(g2abc, name)]
    assert not missing
