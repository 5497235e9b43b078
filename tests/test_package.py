"""Package-level tests: public API surface and end-to-end smoke."""

import repro


class TestApi:
    def test_version(self):
        assert repro.__version__ == "1.10.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        with repro.Session() as session:
            result = session.synthesize("ab + a'b'c").result
        assert result.size >= 1
        assert "x" in result.shape
        text = result.assignment.to_text()
        assert text.count("\n") == result.rows - 1


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in (
            "ParseError",
            "DimensionError",
            "EncodingError",
            "SolverError",
            "SynthesisError",
            "BudgetExceeded",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)
