"""Program-linter tests: bundled programs are clean, every broken fixture
fires exactly the rule it targets (:mod:`repro.analysis.lint`)."""

import secrets
import uuid

import pytest

from repro.algorithms import PROGRAM_NAMES, make_program
from repro.analysis import CODES, describe, lint_program
from repro.analysis.certify import certify_program
from repro.analysis.fixtures import BROKEN_PROGRAMS, NondetProgram
from repro.analysis.violations import ValidationError, Violation
from repro.graph.generators import random_weights, rmat

LINT_FIXTURES = {
    name: spec for name, spec in BROKEN_PROGRAMS.items() if spec.layer == "lint"
}


@pytest.fixture(scope="module")
def graph():
    return random_weights(rmat(128, 700, seed=11), seed=12)


class TestBundledProgramsClean:
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_no_violations(self, name, graph):
        program = make_program(name, graph)
        assert lint_program(program) == []

    def test_multi_source_traversals_are_clean(self):
        # The batching layer's program is instance-declared (dtypes built
        # in __init__) with (K,)-subarray vertex fields — the linter must
        # resolve both rather than flagging false unknown-field /
        # missing-declaration violations.
        from repro.service import TRAVERSAL_SPECS, MultiSourceTraversal

        for name, spec in sorted(TRAVERSAL_SPECS.items()):
            program = MultiSourceTraversal(spec, (0, 1, 2))
            assert lint_program(program) == [], name


class TestBrokenFixturesFire:
    @pytest.mark.parametrize("name", sorted(LINT_FIXTURES))
    def test_expected_rule_fires(self, name):
        spec = LINT_FIXTURES[name]
        codes = {v.code for v in lint_program(spec.factory())}
        assert spec.expect in codes, f"{name}: {codes}"
        assert codes <= spec.allowed, f"{name} leaked extra codes: {codes}"

    def test_missing_decl_flags_both_name_and_reduce_ops(self):
        spec = BROKEN_PROGRAMS["missing-decl"]
        violations = [v for v in lint_program(spec.factory()) if v.code == "L007"]
        assert len(violations) == 2  # one for name, one for reduce_ops

    def test_nondeterminism_roots_match_certify(self):
        # L005 reads the same module table C404 refutes on, in the
        # scalar device functions and the vectorized kernels alike.
        class SecretsCompute(NondetProgram):
            def compute(self, src_v, src_static, edge, local_v):
                local_v["level"] = min(local_v["level"],
                                       src_v["level"] + secrets.randbits(8))

        class UuidMessages(NondetProgram):
            def compute(self, src_v, src_static, edge, local_v):
                local_v["level"] = min(local_v["level"], src_v["level"] + 1)

            def messages(self, src_vals, src_static, edge_vals, dest_old):
                tag = uuid.uuid4().int & 0
                return {"level": src_vals["level"] + 1 + tag}, None

        for program, root in ((SecretsCompute(), "secrets"),
                              (UuidMessages(), "uuid")):
            l005 = [v for v in lint_program(program) if v.code == "L005"]
            assert [root in v.message for v in l005] == [True], l005
            assert certify_program(program, cache=False).result(
                "C404").status == "REFUTED"

    def test_violations_carry_location(self):
        spec = LINT_FIXTURES["undeclared-write"]
        hit = [v for v in lint_program(spec.factory()) if v.code == spec.expect]
        assert hit and any(":" in v.location for v in hit)


class TestViolationRecords:
    def test_codes_registry_is_consistent(self):
        for code, (kind, _message) in CODES.items():
            assert code[0] in "LSRPFCW" and code[1:].isdigit()
            assert kind and kind == kind.lower()
        assert len(CODES) >= 20

    def test_describe_known_and_unknown(self):
        assert "reduce_ops" in describe("L001") or "declared" in describe("L001")
        with pytest.raises(KeyError):
            describe("Z999")

    def test_kind_derived_from_code(self):
        v = Violation(code="L002", message="bad op")
        assert v.kind == CODES["L002"][0]

    def test_validation_error_lists_codes(self):
        violations = [
            Violation(code="L001", message="undeclared write to 'x'"),
            Violation(code="S101", message="indptr not monotone"),
        ]
        err = ValidationError(violations)
        assert err.violations == violations
        assert "L001" in str(err) and "S101" in str(err)
