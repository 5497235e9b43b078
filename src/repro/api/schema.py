"""Versioned request/response schema for the public synthesis API.

These dataclasses are the *wire format*: every frontend (CLI, benchmark
runner, examples, the HTTP service in :mod:`repro.server`) speaks
exactly these shapes.
Three invariants the tests pin down:

* **Validation on construction.**  A malformed request raises
  :class:`~repro.errors.ValidationError` in ``__post_init__`` — there is
  no half-built request object to pass around.
* **Canonical JSON round-trip.**  ``X.from_json(x.to_json())`` is exact,
  and ``to_json`` is canonical (sorted keys, compact separators), so the
  serialized form is stable enough to hash, diff and cache.
* **One schema.**  Attempt and assignment payloads are the shared wire
  shapes from :mod:`repro.engine.wire` — the same dicts the result cache
  stores and workers return, so the facade introduces no second format.

Wire envelopes carry ``{"api": API_VERSION, "kind": "..."}``; a reader
rejects kinds it does not understand and versions newer than its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.janus import JanusOptions, SynthesisResult
from repro.core.target import TargetSpec
from repro.engine.wire import (
    _tt_from_hex,
    _tt_hex,
    assignment_from_wire,
    assignment_to_wire,
    attempt_from_wire,
    attempt_to_wire,
)
from repro.errors import ValidationError

__all__ = [
    "API_VERSION",
    "RequestOptions",
    "SynthesisRequest",
    "SynthesisResponse",
    "BatchRequest",
    "BatchResponse",
]

API_VERSION = 1

_KNOWN_UB_METHODS = ("dp", "ps", "dps", "ips", "idps", "ds")
_KNOWN_SIDES = ("primal", "dual")

TargetLike = Union[str, Sop, TruthTable, TargetSpec]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _canonical(wire: dict) -> str:
    return json.dumps(wire, sort_keys=True, separators=(",", ":"))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_hex(text: str) -> bool:
    return all(c in "0123456789abcdef" for c in text)


def _check_envelope(wire: Any, kind: str) -> dict:
    _require(isinstance(wire, dict), f"{kind}: wire form must be an object")
    _require(
        wire.get("kind") == kind,
        f"expected kind {kind!r}, got {wire.get('kind')!r}",
    )
    version = wire.get("api")
    _require(
        isinstance(version, int) and 1 <= version <= API_VERSION,
        f"{kind}: unsupported api version {version!r} "
        f"(this library speaks <= {API_VERSION})",
    )
    return wire


# ------------------------------------------------------------------ options
@dataclass(frozen=True)
class RequestOptions:
    """The serializable subset of :class:`JanusOptions` a request may set.

    Field names follow the wire format, not the internal dataclass
    (``time_limit`` <-> ``lm_time_limit``, ``trim`` <->
    ``trim_solutions``, ``exact`` <-> ``exact_minimization``); the
    mapping lives in :meth:`to_janus_options` / :meth:`from_janus_options`
    and is round-trip exact for every field listed here.
    """

    max_conflicts: int = 60_000
    time_limit: Optional[float] = None
    ub_methods: tuple[str, ...] = ("dp", "ps", "dps", "ips", "idps", "ds")
    sides: tuple[str, ...] = ("primal", "dual")
    ds_depth: int = 1
    verify: bool = True
    trim: bool = True
    max_lattice_products: int = 20_000
    exact: bool = True

    def __post_init__(self) -> None:
        # JSON booleans are not numbers here, and numbers are not
        # booleans: ``true`` is no budget and ``0`` is no switch.
        for name in ("verify", "trim", "exact"):
            value = getattr(self, name)
            _require(
                isinstance(value, bool),
                f"{name} must be a boolean, got {value!r}",
            )
        _require(
            _is_int(self.max_conflicts) and self.max_conflicts >= 1,
            f"max_conflicts must be a positive integer, got "
            f"{self.max_conflicts!r}",
        )
        _require(
            self.time_limit is None
            or (
                isinstance(self.time_limit, (int, float))
                and not isinstance(self.time_limit, bool)
                and self.time_limit > 0
            ),
            f"time_limit must be a positive number or null, got "
            f"{self.time_limit!r}",
        )
        object.__setattr__(self, "ub_methods", tuple(self.ub_methods))
        object.__setattr__(self, "sides", tuple(self.sides))
        unknown = [m for m in self.ub_methods if m not in _KNOWN_UB_METHODS]
        _require(
            not unknown,
            f"unknown ub_methods {unknown!r}; known: {_KNOWN_UB_METHODS}",
        )
        _require(bool(self.sides), "sides must not be empty")
        unknown = [s for s in self.sides if s not in _KNOWN_SIDES]
        _require(
            not unknown, f"unknown sides {unknown!r}; known: {_KNOWN_SIDES}"
        )
        _require(
            _is_int(self.ds_depth) and self.ds_depth >= 0,
            f"ds_depth must be a non-negative integer, got {self.ds_depth!r}",
        )
        _require(
            _is_int(self.max_lattice_products)
            and self.max_lattice_products >= 1,
            f"max_lattice_products must be a positive integer, got "
            f"{self.max_lattice_products!r}",
        )

    def to_janus_options(self) -> JanusOptions:
        return JanusOptions(
            max_conflicts=self.max_conflicts,
            lm_time_limit=self.time_limit,
            ub_methods=self.ub_methods,
            sides=self.sides,
            ds_depth=self.ds_depth,
            verify=self.verify,
            trim_solutions=self.trim,
            max_lattice_products=self.max_lattice_products,
            exact_minimization=self.exact,
        )

    @classmethod
    def from_janus_options(cls, options: JanusOptions) -> "RequestOptions":
        return cls(
            max_conflicts=options.max_conflicts,
            time_limit=options.lm_time_limit,
            ub_methods=options.ub_methods,
            sides=options.sides,
            ds_depth=options.ds_depth,
            verify=options.verify,
            trim=options.trim_solutions,
            max_lattice_products=options.max_lattice_products,
            exact=options.exact_minimization,
        )

    def to_wire(self) -> dict:
        return {
            "max_conflicts": self.max_conflicts,
            "time_limit": self.time_limit,
            "ub_methods": list(self.ub_methods),
            "sides": list(self.sides),
            "ds_depth": self.ds_depth,
            "verify": self.verify,
            "trim": self.trim,
            "max_lattice_products": self.max_lattice_products,
            "exact": self.exact,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RequestOptions":
        _require(isinstance(wire, dict), "options must be an object")
        kwargs = dict(wire)
        # Clients before 1.18.0 send ``"solver_config": null`` for the
        # default search policy, which is now the only one.
        _require(
            kwargs.pop("solver_config", None) is None,
            "solver_config was removed in 1.18.0: the CDCL search policy "
            "is fixed; send null or omit the field",
        )
        known = {f for f in cls.__dataclass_fields__}
        unknown = [k for k in kwargs if k not in known]
        _require(not unknown, f"unknown option fields {unknown!r}")
        for key in ("ub_methods", "sides"):
            if key in kwargs:
                _require(
                    isinstance(kwargs[key], (list, tuple)),
                    f"{key} must be a list",
                )
                kwargs[key] = tuple(kwargs[key])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValidationError(f"malformed options: {exc}") from exc


# ------------------------------------------------------------------ targets
def _target_to_wire(target: TargetLike) -> dict:
    """Serialize any accepted target form.

    Expressions stay expressions (human-readable on the wire); everything
    else is canonicalized to truth-table bits, which every target form
    reduces to deterministically.
    """
    if isinstance(target, str):
        _require(bool(target.strip()), "target expression must not be empty")
        return {"form": "sop", "expression": target}
    if isinstance(target, Sop):
        target = target.to_truthtable()
    if isinstance(target, TruthTable):
        return {
            "form": "truthtable",
            "num_vars": target.num_vars,
            "on": _tt_hex(target),
            "dc": None,
        }
    if isinstance(target, TargetSpec):
        return {
            "form": "truthtable",
            "num_vars": target.num_inputs,
            "on": _tt_hex(target.tt),
            "dc": _tt_hex(target.dc) if target.dc is not None else None,
            "names": list(target.names) if target.names else None,
        }
    raise ValidationError(f"cannot serialize target of type {type(target)!r}")


def _target_spec_from_wire(
    wire: dict, name: str, options: RequestOptions
) -> TargetSpec:
    """Build the concrete :class:`TargetSpec` a wire target describes."""
    form = wire.get("form")
    if form == "sop":
        return TargetSpec.from_string(
            wire["expression"], name=name, exact=options.exact
        )
    num_vars = wire["num_vars"]
    tt = _tt_from_hex(wire["on"], num_vars)
    dc = _tt_from_hex(wire["dc"], num_vars) if wire.get("dc") else None
    return TargetSpec.from_truthtable(
        tt, name=name, names=wire.get("names"), exact=options.exact, dc=dc
    )


def _validate_target_wire(wire: Any) -> dict:
    _require(isinstance(wire, dict), "target must be an object")
    form = wire.get("form")
    if form == "sop":
        expr = wire.get("expression")
        _require(
            isinstance(expr, str) and bool(expr.strip()),
            "sop target needs a non-empty expression",
        )
        return {"form": "sop", "expression": expr}
    if form == "truthtable":
        num_vars = wire.get("num_vars")
        _require(
            isinstance(num_vars, int) and 0 <= num_vars <= 24,
            f"truthtable target num_vars out of range: {num_vars!r}",
        )
        on = wire.get("on")
        _require(isinstance(on, str), "truthtable target needs hex 'on' bits")
        expected = max(1, (1 << num_vars) // 8) * 2
        _require(
            len(on) == expected,
            f"'on' bits: expected {expected} hex chars for {num_vars} "
            f"variables, got {len(on)}",
        )
        _require(_is_hex(on), "'on' bits must be lowercase hex")
        dc = wire.get("dc")
        _require(
            dc is None
            or (isinstance(dc, str) and len(dc) == expected and _is_hex(dc)),
            "'dc' bits must be null or hex of the 'on' bit length",
        )
        out = {"form": "truthtable", "num_vars": num_vars, "on": on, "dc": dc}
        names = wire.get("names")
        if names is not None:
            _require(
                isinstance(names, list) and len(names) == num_vars,
                "names must list one name per variable",
            )
            out["names"] = list(names)
        return out
    raise ValidationError(f"unknown target form {form!r} (sop|truthtable)")


# ----------------------------------------------------------------- requests
@dataclass(frozen=True)
class SynthesisRequest:
    """One synthesis job: a target, a backend name, and solver options."""

    target: dict  # wire form; build with from_target()/from_json()
    name: str = "f"
    backend: str = "janus"
    options: RequestOptions = field(default_factory=RequestOptions)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            f"name must be a non-empty string, got {self.name!r}",
        )
        _require(
            isinstance(self.backend, str) and bool(self.backend),
            f"backend must be a non-empty string, got {self.backend!r}",
        )
        _require(
            isinstance(self.options, RequestOptions),
            "options must be a RequestOptions",
        )
        object.__setattr__(
            self, "target", _validate_target_wire(self.target)
        )

    @classmethod
    def from_target(
        cls,
        target: TargetLike,
        name: str = "f",
        backend: str = "janus",
        options: Optional[RequestOptions] = None,
    ) -> "SynthesisRequest":
        """Build a request from any accepted target form."""
        if isinstance(target, TargetSpec) and name == "f":
            name = target.name
        return cls(
            target=_target_to_wire(target),
            name=name,
            backend=backend,
            options=options or RequestOptions(),
        )

    def to_spec(self) -> TargetSpec:
        """The concrete synthesis target this request describes."""
        return _target_spec_from_wire(self.target, self.name, self.options)

    def with_backend(self, backend: str) -> "SynthesisRequest":
        return replace(self, backend=backend)

    def to_wire(self) -> dict:
        return {
            "api": API_VERSION,
            "kind": "synthesis_request",
            "target": self.target,
            "name": self.name,
            "backend": self.backend,
            "options": self.options.to_wire(),
        }

    def to_json(self) -> str:
        return _canonical(self.to_wire())

    @classmethod
    def from_wire(cls, wire: dict) -> "SynthesisRequest":
        wire = _check_envelope(wire, "synthesis_request")
        return cls(
            target=wire.get("target"),
            name=wire.get("name", "f"),
            backend=wire.get("backend", "janus"),
            options=RequestOptions.from_wire(wire.get("options", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "SynthesisRequest":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request is not valid JSON: {exc}") from exc
        return cls.from_wire(wire)


# ---------------------------------------------------------------- responses
@dataclass
class SynthesisResponse:
    """The result of one synthesis job, in wire form.

    ``result`` (when present) is the in-process
    :class:`~repro.core.janus.SynthesisResult` the response was built
    from — it gives callers the live :class:`LatticeAssignment` without
    a decode round-trip, and is deliberately *not* part of the wire
    form.  A response rebuilt with :meth:`from_json` carries
    ``result=None``; use :attr:`entries` / :meth:`to_json` for
    everything serializable.
    """

    name: str
    backend: str
    rows: int
    cols: int
    size: int
    lower_bound: int
    initial_lower_bound: int
    initial_upper_bound: int
    provably_minimum: bool
    method: str
    upper_bounds: dict[str, tuple[int, int]]
    assignment: dict  # shared wire form (rows/cols/entries)
    attempts: list[dict]  # shared wire form, one per LM probe
    wall_time: float
    stats: Optional[dict] = None  # EngineStats snapshot, when available
    result: Optional[SynthesisResult] = None

    @property
    def shape(self) -> str:
        return f"{self.rows}x{self.cols}"

    @property
    def entries(self) -> list:
        return self.assignment["entries"]

    @classmethod
    def from_result(
        cls,
        result: SynthesisResult,
        backend: str = "janus",
        stats: Optional[dict] = None,
    ) -> "SynthesisResponse":
        return cls(
            name=result.spec.name,
            backend=backend,
            rows=result.rows,
            cols=result.cols,
            size=result.size,
            lower_bound=result.lower_bound,
            initial_lower_bound=result.initial_lower_bound,
            initial_upper_bound=result.initial_upper_bound,
            provably_minimum=result.is_provably_minimum,
            method=result.method,
            upper_bounds=dict(result.upper_bounds),
            assignment=assignment_to_wire(result.assignment),
            attempts=[attempt_to_wire(a) for a in result.attempts],
            wall_time=result.wall_time,
            stats=stats,
            result=result,
        )

    def to_result(self, spec: TargetSpec) -> SynthesisResult:
        """Rebuild a :class:`SynthesisResult` against a concrete spec
        (used by readers that only have the wire form)."""
        return SynthesisResult(
            spec=spec,
            assignment=assignment_from_wire(
                self.assignment, spec.num_inputs, spec.name_list()
            ),
            lower_bound=self.lower_bound,
            initial_upper_bound=self.initial_upper_bound,
            upper_bounds=dict(self.upper_bounds),
            attempts=[attempt_from_wire(a, cached=True) for a in self.attempts],
            wall_time=self.wall_time,
            method=self.method,
            initial_lower_bound=self.initial_lower_bound,
        )

    def to_wire(self) -> dict:
        return {
            "api": API_VERSION,
            "kind": "synthesis_response",
            "name": self.name,
            "backend": self.backend,
            "rows": self.rows,
            "cols": self.cols,
            "size": self.size,
            "lower_bound": self.lower_bound,
            "initial_lower_bound": self.initial_lower_bound,
            "initial_upper_bound": self.initial_upper_bound,
            "provably_minimum": self.provably_minimum,
            "method": self.method,
            "upper_bounds": {
                k: [r, c] for k, (r, c) in self.upper_bounds.items()
            },
            "assignment": self.assignment,
            "attempts": self.attempts,
            "wall_time": self.wall_time,
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return _canonical(self.to_wire())

    @classmethod
    def from_wire(cls, wire: dict) -> "SynthesisResponse":
        wire = _check_envelope(wire, "synthesis_response")
        try:
            return cls(
                name=wire["name"],
                backend=wire["backend"],
                rows=wire["rows"],
                cols=wire["cols"],
                size=wire["size"],
                lower_bound=wire["lower_bound"],
                initial_lower_bound=wire["initial_lower_bound"],
                initial_upper_bound=wire["initial_upper_bound"],
                provably_minimum=wire["provably_minimum"],
                method=wire["method"],
                upper_bounds={
                    k: (r, c) for k, (r, c) in wire["upper_bounds"].items()
                },
                assignment=wire["assignment"],
                attempts=list(wire["attempts"]),
                wall_time=wire["wall_time"],
                stats=wire.get("stats"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed synthesis_response: {exc!r}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "SynthesisResponse":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"response is not valid JSON: {exc}") from exc
        return cls.from_wire(wire)


# ------------------------------------------------------------------ batches
@dataclass(frozen=True)
class BatchRequest:
    """An ordered collection of synthesis jobs run under one session."""

    requests: tuple[SynthesisRequest, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        _require(bool(self.requests), "batch must contain at least one request")
        _require(
            all(isinstance(r, SynthesisRequest) for r in self.requests),
            "batch items must be SynthesisRequest objects",
        )

    def __len__(self) -> int:
        return len(self.requests)

    def to_wire(self) -> dict:
        return {
            "api": API_VERSION,
            "kind": "batch_request",
            "requests": [
                {
                    k: v
                    for k, v in r.to_wire().items()
                    if k not in ("api", "kind")
                }
                for r in self.requests
            ],
        }

    def to_json(self) -> str:
        return _canonical(self.to_wire())

    @classmethod
    def from_wire(cls, wire: dict) -> "BatchRequest":
        wire = _check_envelope(wire, "batch_request")
        items = wire.get("requests")
        _require(isinstance(items, list), "batch requests must be a list")
        return cls(
            requests=tuple(
                SynthesisRequest.from_wire(
                    {"api": wire["api"], "kind": "synthesis_request", **item}
                )
                for item in items
            )
        )

    @classmethod
    def from_json(cls, text: str) -> "BatchRequest":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"batch is not valid JSON: {exc}") from exc
        return cls.from_wire(wire)


@dataclass
class BatchResponse:
    """Responses for a batch, in request order."""

    responses: list[SynthesisResponse]
    wall_time: float = 0.0
    stats: Optional[dict] = None  # aggregated EngineStats snapshot

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self):
        return iter(self.responses)

    def to_wire(self) -> dict:
        return {
            "api": API_VERSION,
            "kind": "batch_response",
            "responses": [
                {
                    k: v
                    for k, v in r.to_wire().items()
                    if k not in ("api", "kind")
                }
                for r in self.responses
            ],
            "wall_time": self.wall_time,
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return _canonical(self.to_wire())

    @classmethod
    def from_wire(cls, wire: dict) -> "BatchResponse":
        wire = _check_envelope(wire, "batch_response")
        items = wire.get("responses")
        _require(isinstance(items, list), "batch responses must be a list")
        return cls(
            responses=[
                SynthesisResponse.from_wire(
                    {"api": wire["api"], "kind": "synthesis_response", **item}
                )
                for item in items
            ],
            wall_time=wire.get("wall_time", 0.0),
            stats=wire.get("stats"),
        )

    @classmethod
    def from_json(cls, text: str) -> "BatchResponse":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"batch is not valid JSON: {exc}") from exc
        return cls.from_wire(wire)
