"""The package namespace."""
import qmloc


def test_all_names_resolve_and_are_sorted_without_duplicates():
    missing = [name for name in qmloc.__all__ if not hasattr(qmloc, name)]
    assert not missing
    assert qmloc.__all__ == sorted(set(qmloc.__all__))
