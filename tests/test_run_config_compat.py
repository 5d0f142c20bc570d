"""Exhaustive :class:`RunConfig` knob-compatibility tests.

``RunConfig.__post_init__`` validates every construction against the
declarative ``_INVALID_COMBOS`` table in ``repro.frameworks.base``.
These tests sweep the full cross-product of the enumerated knobs —
every valid combination constructs, every invalid one raises a typed
:class:`~repro.errors.ConfigError` — and prove each table row is
actually reachable, so a new rule cannot be added dead or an old one
silently lost.
"""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.frameworks import Checkpoint, RunConfig
from repro.frameworks.base import _INVALID_COMBOS
from repro.placement import Placement

EXEC_PATHS = ("fast", "reference")
FRONTIERS = ("off", "sparse", "auto")
VALIDATES = ("off", "structure", "full", "perf")
CERTIFIES = ("off", "warn", "enforce")

VALUES = np.zeros(4, dtype=np.int64)
MASK = np.zeros(4, dtype=bool)
_PLACEMENT = Placement.block(4, 2)


def expect_invalid(exec_path, frontier, validate, certify) -> bool:
    """The only cross-knob rule over the enumerated knobs."""
    return certify == "enforce" and validate == "off"


class TestEnumeratedKnobs:
    @pytest.mark.parametrize("kwargs", [
        {"exec_path": "bogus"},
        {"frontier": "bogus"},
        {"validate": "bogus"},
        {"certify": "bogus"},
    ])
    def test_unknown_enum_value_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_config_error_is_a_value_error(self):
        # Legacy callers catch ValueError; the typed subclass must not
        # break them.
        with pytest.raises(ValueError):
            RunConfig(validate="bogus")

    def test_config_error_names_the_knob(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig(certify="enforce", validate="off")
        assert exc.value.knob == "certify"

    def test_full_cross_product(self):
        combos = itertools.product(EXEC_PATHS, FRONTIERS, VALIDATES,
                                   CERTIFIES)
        checked = invalid = 0
        for exec_path, frontier, validate, certify in combos:
            checked += 1
            kwargs = dict(exec_path=exec_path, frontier=frontier,
                          validate=validate, certify=certify)
            if expect_invalid(**kwargs):
                invalid += 1
                with pytest.raises(ConfigError):
                    RunConfig(**kwargs)
                continue
            config = RunConfig(**kwargs)
            assert (config.exec_path, config.frontier, config.validate,
                    config.certify) == (exec_path, frontier, validate,
                                        certify)
        assert checked == (len(EXEC_PATHS) * len(FRONTIERS)
                           * len(VALIDATES) * len(CERTIFIES))
        assert invalid == len(EXEC_PATHS) * len(FRONTIERS)  # enforce+off


class TestResumeAndIterationRules:
    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_max_iterations_must_be_positive(self, max_iterations):
        with pytest.raises(ConfigError) as exc:
            RunConfig(max_iterations=max_iterations)
        assert exc.value.knob == "max_iterations"

    def test_negative_start_iteration_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(resume=Checkpoint.of(-1, VALUES))

    def test_start_iteration_must_stay_below_max(self):
        with pytest.raises(ConfigError):
            RunConfig(max_iterations=5, resume=Checkpoint.of(5, VALUES))

    @pytest.mark.parametrize("resume", [VALUES, 3])
    def test_resume_must_be_a_checkpoint(self, resume):
        with pytest.raises(ConfigError) as exc:
            RunConfig(resume=resume)
        assert exc.value.knob == "resume"

    def test_checkpoint_without_values_refused(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig(resume=Checkpoint(2, None, ""))
        assert exc.value.knob == "resume"

    @pytest.mark.parametrize("frontier", ["sparse", "auto"])
    def test_valid_warm_start_constructs(self, frontier):
        resume = Checkpoint.of(2, VALUES, MASK)
        config = RunConfig(frontier=frontier, resume=resume)
        assert config.start_iteration == 2
        assert config.resume is resume


class TestTableHygiene:
    # One minimal kwargs example per table row, in table order; keeping
    # this list aligned with _INVALID_COMBOS proves no rule is dead.
    EXAMPLES = [
        {"max_iterations": 2.5},
        {"devices": 2.0},
        {"exec_path": "bogus"},
        {"frontier": "bogus"},
        {"validate": "bogus"},
        {"certify": "bogus"},
        {"max_iterations": 0},
        {"resume": Checkpoint.of(9, VALUES), "max_iterations": 9},
        {"certify": "enforce", "validate": "off"},
        {"narrow": "bogus"},
        {"devices": 0},
        {"devices": 1, "placement": _PLACEMENT},
        {"devices": 3, "placement": _PLACEMENT},
    ]

    def test_one_example_per_rule(self):
        assert len(self.EXAMPLES) == len(_INVALID_COMBOS)

    @pytest.mark.parametrize("row,kwargs",
                             list(zip(_INVALID_COMBOS, EXAMPLES)))
    def test_every_rule_is_reachable(self, row, kwargs):
        knob, _predicate, message = row
        with pytest.raises(ConfigError) as exc:
            RunConfig(**kwargs)
        assert str(exc.value).startswith(message.split(" (")[0][:40])
        assert exc.value.knob == knob

    def test_rows_name_real_fields(self):
        fields = set(RunConfig.__dataclass_fields__)
        for knob, _predicate, message in _INVALID_COMBOS:
            assert knob in fields, knob
            assert message
