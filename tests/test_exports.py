import inspect

import ordered_hamming


def test_all_names_resolve_once():
    names = ordered_hamming.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ordered_hamming, name), name


def test_every_imported_function_and_class_is_exported():
    public = {
        name
        for name, value in vars(ordered_hamming).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public <= set(ordered_hamming.__all__), sorted(public - set(ordered_hamming.__all__))


def test_symtensor_public_functions():
    from ordered_hamming import symtensor

    public = {
        name
        for name, value in vars(symtensor).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == symtensor.__name__
    }
    assert public == {"multinomial", "lifted_family"}


def test_only_instance_takes_the_size_bound_or_an_optional_sweep():
    """The size bound and the pair-shape sweep belong to `Instance`, not to a builder's knobs."""
    knobs = []
    for name in ordered_hamming.__all__:
        value = getattr(ordered_hamming, name)
        if name == "Instance" or not callable(value):
            continue
        try:
            params = inspect.signature(value).parameters
        except (TypeError, ValueError):
            continue
        if "max_points" in params:
            knobs.append((name, "max_points"))
        if "sweep" in params and params["sweep"].default is None:
            knobs.append((name, "sweep"))
    assert not knobs, knobs


def test_the_relation_matrices_are_not_public():
    """The relation checks read the pair-shape sweep; only the test oracle builds 0/1 matrices."""
    assert not hasattr(ordered_hamming, "relation_matrix")
    assert not hasattr(ordered_hamming.scheme, "relation_matrix")
    assert not hasattr(ordered_hamming.Instance, "relations")


def test_the_kronecker_products_are_not_public():
    """Closed forms are streamed from their factors; only the test oracle builds their products."""
    for name in ("kron", "kron_all"):
        assert not hasattr(ordered_hamming, name)
        assert not hasattr(ordered_hamming.exact_linalg, name)


def test_the_depth_one_spectral_record_is_not_public():
    """The depth-one families enter through `Instance`; no record of them is exported."""
    for name in ("base_spectral", "BaseSpectralData"):
        assert not hasattr(ordered_hamming, name)
        assert not hasattr(ordered_hamming.spectral, name)


def test_one_base_class_holds_the_exact_form():
    """`RatMatrix` and `OrbitalMatrix` share one lowest-terms vector and its arithmetic."""
    from ordered_hamming import exact_linalg

    for name in ("_lowest_terms", "_entrywise"):
        assert not hasattr(exact_linalg, name)
        assert not hasattr(exact_linalg.RatMatrix, name)
    for kind in (exact_linalg.RatMatrix, exact_linalg.OrbitalMatrix):
        own = vars(kind).keys() & {"__add__", "__sub__", "scale", "is_zero", "__eq__"}
        assert not own, (kind.__name__, sorted(own))
    for name in ("_grid", "_den", "denominator"):
        assert not hasattr(exact_linalg.RatMatrix.identity(2), name)
    assert "__rmul__" not in vars(exact_linalg.RatMatrix)
