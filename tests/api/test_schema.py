"""Schema tests: validation on construction, canonical JSON round-trips."""

import json

import pytest

from repro.api import (
    API_VERSION,
    BatchRequest,
    BatchResponse,
    RequestOptions,
    SynthesisRequest,
    SynthesisResponse,
)
from repro.boolf.parse import parse_sop
from repro.core.janus import JanusOptions, synthesize
from repro.core.target import TargetSpec
from repro.errors import ValidationError


@pytest.fixture
def opts():
    return RequestOptions(max_conflicts=20_000)


class TestRequestOptions:
    def test_janus_options_round_trip(self):
        ro = RequestOptions(
            max_conflicts=123,
            time_limit=4.5,
            ub_methods=("dp", "ps"),
            sides=("primal",),
            ds_depth=0,
            verify=False,
            trim=False,
            max_lattice_products=99,
            exact=False,
        )
        jo = ro.to_janus_options()
        assert jo.max_conflicts == 123
        assert jo.lm_time_limit == 4.5
        assert jo.ub_methods == ("dp", "ps")
        assert jo.sides == ("primal",)
        assert jo.trim_solutions is False
        assert jo.exact_minimization is False
        assert RequestOptions.from_janus_options(jo) == ro

    def test_default_matches_janus_defaults(self):
        assert RequestOptions().to_janus_options() == JanusOptions()

    def test_wire_round_trip(self):
        ro = RequestOptions(max_conflicts=7, ub_methods=("dp",))
        assert RequestOptions.from_wire(ro.to_wire()) == ro

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_conflicts": 0},
            {"max_conflicts": "lots"},
            {"time_limit": -1.0},
            {"time_limit": 0},
            {"ub_methods": ("dp", "warp")},
            {"sides": ()},
            {"sides": ("sideways",)},
            {"ds_depth": -1},
            {"max_lattice_products": 0},
        ],
    )
    def test_invalid_options_raise_on_construction(self, kwargs):
        with pytest.raises(ValidationError):
            RequestOptions(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("exact", "no"),
            ("exact", None),
            ("exact", 1),
            ("verify", 0),
            ("verify", "yes"),
            ("trim", None),
            ("max_conflicts", True),
            ("max_conflicts", 1.5),
            ("time_limit", True),
            ("time_limit", "1"),
            ("ds_depth", False),
            ("ds_depth", 1.0),
            ("max_lattice_products", True),
        ],
    )
    def test_wrong_wire_types_rejected(self, field, value):
        # Python truthiness used to decide these: "no" ran the exact
        # path, null picked the heuristic, 0 skipped verification and
        # true became a budget of 1.
        wire = {**RequestOptions().to_wire(), field: value}
        with pytest.raises(ValidationError, match=field):
            RequestOptions.from_wire(wire)

    @pytest.mark.parametrize(
        "field, value",
        [("exact", False), ("verify", False), ("trim", False),
         ("max_conflicts", 7), ("time_limit", 2), ("time_limit", 0.5),
         ("ds_depth", 0), ("max_lattice_products", 9)],
    )
    def test_right_wire_types_parse(self, field, value):
        wire = {**RequestOptions().to_wire(), field: value}
        assert getattr(RequestOptions.from_wire(wire), field) == value

    def test_unknown_wire_field_rejected(self):
        with pytest.raises(ValidationError):
            RequestOptions.from_wire({"max_conflicts": 5, "turbo": True})

    def test_null_solver_config_parses(self):
        # Clients before 1.18.0 send ``"solver_config": null`` for the
        # default search policy; it is accepted and no longer emitted.
        wire = RequestOptions().to_wire()
        assert "solver_config" not in wire
        old = {**wire, "solver_config": None}
        assert RequestOptions.from_wire(old) == RequestOptions()
        request = SynthesisRequest.from_target("ab + a'c")
        payload = json.loads(request.to_json())
        payload["options"]["solver_config"] = None
        assert SynthesisRequest.from_json(json.dumps(payload)) == request

    @pytest.mark.parametrize(
        "block",
        [{}, {"restart_base": 32}, {"var_decay": 0.9}, "agile", 42],
        ids=["empty", "restart_base", "var_decay", "name", "number"],
    )
    def test_solver_config_block_rejected(self, block):
        with pytest.raises(ValidationError, match="removed in 1.18.0"):
            RequestOptions.from_wire({"solver_config": block})


class TestSynthesisRequest:
    def test_json_round_trip_exact(self, opts):
        req = SynthesisRequest.from_target(
            "ab + a'c", name="g", backend="exact", options=opts
        )
        text = req.to_json()
        again = SynthesisRequest.from_json(text)
        assert again == req
        assert again.to_json() == text

    def test_canonical_json_is_stable(self, opts):
        req = SynthesisRequest.from_target("ab", options=opts)
        assert req.to_json() == req.to_json()
        # canonical form: sorted keys, no whitespace
        assert '" :' not in req.to_json() and ", " not in req.to_json()

    def test_target_forms_build_equivalent_specs(self, opts):
        sop = parse_sop("ab + a'c")
        tt = sop.to_truthtable()
        spec = TargetSpec.from_truthtable(tt, name="f")
        reqs = [
            SynthesisRequest.from_target("ab + a'c", options=opts),
            SynthesisRequest.from_target(sop, options=opts),
            SynthesisRequest.from_target(tt, options=opts),
            SynthesisRequest.from_target(spec, options=opts),
        ]
        tables = {req.to_spec().tt.bits for req in reqs}
        assert len(tables) == 1

    def test_truthtable_target_round_trips_through_wire(self, opts):
        tt = parse_sop("abc + a'd").to_truthtable()
        req = SynthesisRequest.from_target(tt, options=opts)
        again = SynthesisRequest.from_json(req.to_json())
        assert again.to_spec().tt.bits == tt.bits

    def test_spec_name_is_picked_up(self, opts):
        spec = TargetSpec.from_string("ab", name="alu_bit")
        req = SynthesisRequest.from_target(spec, options=opts)
        assert req.name == "alu_bit"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": {"form": "sop", "expression": "  "}},
            {"target": {"form": "warp"}},
            {"target": "ab"},  # raw strings must go through from_target
            {"target": {"form": "truthtable", "num_vars": 2, "on": "zz"}},
            {"target": {"form": "sop", "expression": "ab"}, "name": ""},
            {"target": {"form": "sop", "expression": "ab"}, "backend": ""},
        ],
    )
    def test_invalid_requests_raise(self, kwargs):
        with pytest.raises(ValidationError):
            SynthesisRequest(**kwargs)

    def test_wrong_kind_rejected(self, opts):
        wire = SynthesisRequest.from_target("ab", options=opts).to_wire()
        wire["kind"] = "synthesis_response"
        with pytest.raises(ValidationError):
            SynthesisRequest.from_wire(wire)

    def test_future_api_version_rejected(self, opts):
        wire = SynthesisRequest.from_target("ab", options=opts).to_wire()
        wire["api"] = API_VERSION + 1
        with pytest.raises(ValidationError):
            SynthesisRequest.from_wire(wire)

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisRequest.from_json("{ not json")


class TestSynthesisResponse:
    def test_json_round_trip_exact(self):
        result = synthesize(
            "cd + c'd' + abe", options=JanusOptions(max_conflicts=20_000)
        )
        response = SynthesisResponse.from_result(result, backend="janus")
        text = response.to_json()
        again = SynthesisResponse.from_json(text)
        # The acceptance-criteria identity: from_json(to_json) is exact.
        assert again.to_json() == text
        assert again.entries == response.entries
        assert again.shape == response.shape
        assert again.result is None  # live result never crosses the wire

    def test_to_result_rebuilds_the_lattice(self):
        spec = TargetSpec.from_string("ab + a'b'c")
        result = synthesize(spec, options=JanusOptions(max_conflicts=20_000))
        response = SynthesisResponse.from_result(result)
        again = SynthesisResponse.from_json(response.to_json())
        rebuilt = again.to_result(spec)
        assert rebuilt.assignment.entries == result.assignment.entries
        assert rebuilt.size == result.size
        assert [a.rows for a in rebuilt.attempts] == [
            a.rows for a in result.attempts
        ]

    def test_malformed_response_raises(self):
        with pytest.raises(ValidationError):
            SynthesisResponse.from_wire(
                {"api": 1, "kind": "synthesis_response", "rows": 2}
            )


class TestBatch:
    def test_batch_request_round_trip(self, opts):
        batch = BatchRequest(
            requests=(
                SynthesisRequest.from_target("ab", options=opts),
                SynthesisRequest.from_target(
                    "ab + cd", backend="heuristic", options=opts
                ),
            )
        )
        text = batch.to_json()
        again = BatchRequest.from_json(text)
        assert again == batch
        assert again.to_json() == text

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            BatchRequest(requests=())

    def test_batch_response_round_trip(self):
        o = JanusOptions(max_conflicts=20_000)
        responses = [
            SynthesisResponse.from_result(synthesize(e, options=o))
            for e in ("ab + a'b'", "ab + cd")
        ]
        batch = BatchResponse(responses=responses, wall_time=1.25)
        text = batch.to_json()
        again = BatchResponse.from_json(text)
        assert again.to_json() == text
        assert [r.size for r in again] == [r.size for r in responses]

    def test_wire_envelope_present(self, opts):
        wire = json.loads(
            BatchRequest(
                requests=(SynthesisRequest.from_target("ab", options=opts),)
            ).to_json()
        )
        assert wire["api"] == API_VERSION
        assert wire["kind"] == "batch_request"
