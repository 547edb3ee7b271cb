import inflated_graphs


def test_all_names_resolve():
    for name in inflated_graphs.__all__:
        assert hasattr(inflated_graphs, name), name
    assert len(set(inflated_graphs.__all__)) == len(inflated_graphs.__all__)


def test_inflate_is_the_construction_function():
    # Importing the inflate submodule rebinds the package attribute; the
    # package restores the graph construction function.
    assert inflated_graphs.inflate is inflated_graphs.graph.inflate
