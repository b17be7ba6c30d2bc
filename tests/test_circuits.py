import pytest

from dvrcircuits.circuits import CircuitSpec, Family, HamiltonianTerm, OperatorKind, terms
from dvrcircuits.errors import ConfigError


def test_lc_requires_both_energies():
    CircuitSpec.lc(1.0, 1.0)
    with pytest.raises(ConfigError):
        CircuitSpec(Family.LC, E_C=1.0)


def test_family_field_validation():
    with pytest.raises(ConfigError):
        CircuitSpec(Family.LC, E_C=1.0, E_L=1.0, E_J=5.0)  # E_J not an LC parameter
    with pytest.raises(ConfigError):
        CircuitSpec(Family.TRANSMON, E_C=1.0, E_J=5.0, N_g=0.5, E_L=1.0)
    with pytest.raises(ConfigError):
        CircuitSpec.fluxonium(2.5, 0.5, 10.0, A=None)


def test_energies_must_be_positive():
    with pytest.raises(ConfigError):
        CircuitSpec.lc(-1.0, 1.0)
    with pytest.raises(ConfigError):
        CircuitSpec.transmon(0.2, 0.0, 0.5)
    # an integer beyond the float range is not finite
    with pytest.raises(ConfigError, match="E_C"):
        CircuitSpec.lc(10 ** 400, 1.0)
    with pytest.raises(ConfigError, match="E_C"):
        CircuitSpec.from_dict({"family": "lc", "E_C": 10 ** 400, "E_L": 1.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5", True])
def test_offset_charge_must_be_a_finite_real_number(value):
    with pytest.raises(ConfigError):
        CircuitSpec.transmon(0.2, 10.0, value)


def test_lc_terms():
    got = terms(CircuitSpec.lc(1.0, 2.0))
    assert got == [
        HamiltonianTerm(4.0, OperatorKind.N_SQUARED),
        HamiltonianTerm(1.0, OperatorKind.THETA_SQUARED),
    ]


def test_fluxonium_terms_carry_flux():
    got = terms(CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5))
    assert got[0] == HamiltonianTerm(10.0, OperatorKind.N_SQUARED)
    assert got[1] == HamiltonianTerm(0.25, OperatorKind.THETA_SQUARED)
    assert got[2].kind is OperatorKind.COS_THETA
    assert got[2].coefficient == -10.0
    assert got[2].flux == 0.5


def test_transmon_terms_carry_offset_charge():
    got = terms(CircuitSpec.transmon(0.2, 10.0, 0.5))
    assert got[0] == HamiltonianTerm(0.8, OperatorKind.N_SHIFTED_SQUARED, offset=0.5)
    assert got[1].coefficient == -10.0 and got[1].flux == 0.0


def test_serialization_round_trip():
    for spec in (
        CircuitSpec.lc(1.0, 1.0),
        CircuitSpec.fluxonium(2.5, 0.5, 10.0, 0.5),
        CircuitSpec.transmon(5.0, 5.0, 0.5),
    ):
        assert CircuitSpec.from_dict(spec.to_dict()) == spec


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        CircuitSpec.from_dict({"family": "lc", "E_C": 1.0, "E_L": 1.0, "bogus": 2})
    with pytest.raises(ConfigError):
        CircuitSpec.from_dict({"family": "qubit", "E_C": 1.0})
    with pytest.raises(ConfigError):
        CircuitSpec.from_dict({"family": "lc", "E_L": 1.0})
