import cmtmimo


def test_all_names_resolve_and_none_repeats():
    names = cmtmimo.__all__
    assert len(names) == len(set(names)), "a name repeats in cmtmimo.__all__"
    namespace = {}
    # a name in __all__ that the package lacks makes the star import raise
    exec("from cmtmimo import *", namespace)
    for name in names:
        assert namespace[name] is getattr(cmtmimo, name)
