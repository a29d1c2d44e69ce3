"""RecStepOptions validation and Figure 2 config tests (no Spark needed)."""
from dataclasses import asdict

import pytest

from repro.core.options import ABLATIONS, RecStepOptions


class TestValidation:
    def test_defaults_all_on(self):
        o = RecStepOptions()
        assert o.uie and o.dsd and o.eost and o.fast_dedup
        assert o.oof == "oof" and not o.pbme

    def test_all_on(self):
        assert ABLATIONS["all_on"] == RecStepOptions()

    def test_all_off(self):
        o = ABLATIONS["all_off"]
        assert not (o.uie or o.dsd or o.eost or o.fast_dedup or o.pbme)
        assert o.oof == "na"

    @pytest.mark.parametrize("name", sorted(set(ABLATIONS) - {"all_on", "all_off"}))
    def test_one_switch(self, name):
        # no_<field> turns a boolean field off; oof_<mode> sets the OOF mode.
        prefix, rest = name.split("_", 1)
        expected = {rest: False} if prefix == "no" else {"oof": rest}
        default = asdict(RecStepOptions())
        changed = {k: v for k, v in asdict(ABLATIONS[name]).items() if v != default[k]}
        assert changed == expected

    def test_bad_oof_mode(self):
        with pytest.raises(ValueError, match="oof"):
            RecStepOptions(oof="full")

    def test_bad_static_setdiff(self):
        with pytest.raises(ValueError, match="static_setdiff"):
            RecStepOptions(static_setdiff="threephase")

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError, match="alpha"):
            RecStepOptions(alpha=1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            RecStepOptions().uie = False
