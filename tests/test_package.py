import importlib

import pytest

import rabisweep


class TestExports:
    def test_every_name_resolves_once(self):
        assert len(rabisweep.__all__) == len(set(rabisweep.__all__))
        for name in rabisweep.__all__:
            assert hasattr(rabisweep, name), name

    @pytest.mark.parametrize(
        "name", ["StepPropagator", "propagate_step", "displacement_truncation_defect"]
    )
    def test_deleted_names_are_gone(self, name):
        for module in ("rabisweep", "rabisweep.operators", "rabisweep.sweep", "rabisweep.model"):
            assert not hasattr(importlib.import_module(module), name), module

    def test_truncation_policy_lives_in_model(self):
        from rabisweep import model

        assert rabisweep.displaced_fock_tail is model.displaced_fock_tail
        assert rabisweep.top_fock_occupancy is model.top_fock_occupancy
