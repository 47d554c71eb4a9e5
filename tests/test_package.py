import uwacap


def test_exports_are_unique_and_resolve():
    assert len(uwacap.__all__) == len(set(uwacap.__all__))
    for name in uwacap.__all__:
        assert getattr(uwacap, name).__name__ == name
