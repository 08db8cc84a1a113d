"""Scenario parsing, validation, digests, and serialization."""

import dataclasses

import numpy as np
import pytest

from fhn_control import scenario
from fhn_control.errors import ConfigurationError
from fhn_control.scenario import (
    Scenario,
    emit_scenario,
    load_scenario,
    save_scenario,
)


def test_default_scenario_is_valid():
    s = Scenario()
    s.validate()
    assert s.n == 64
    assert s.mode == "deterministic"


def test_scenario_is_frozen_and_builds_its_problem_once():
    s = Scenario(n=16, modes=8, ensemble=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.n = 32
    assert s.problem is s.problem
    assert s.validate() is s.problem
    assert s.problem.grid == s.build_grid()
    assert s.problem.n_paths == 1  # deterministic mode: one path
    noisy = dataclasses.replace(s, mode="stochastic")
    assert noisy.problem is not s.problem
    assert noisy.problem.n_paths == 5
    with pytest.raises(ConfigurationError, match="ensemble"):
        Scenario(ensemble=0).validate()


def test_empty_file_is_default_scenario(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    s = load_scenario(path)
    assert s == Scenario()


def test_load_roundtrip(tmp_path):
    s = Scenario(n=32, modes=16, horizon=0.25, steps=100, sigma1=0.3, mode="stochastic")
    path = tmp_path / "scn.ini"
    save_scenario(s, path)
    back = load_scenario(path)
    assert back == s
    assert back.digest() == s.digest()


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[wrong]\nx = 1\n")
    with pytest.raises(ConfigurationError, match="unknown section"):
        load_scenario(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nresolution = 64\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_scenario(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nn = sixty-four\n")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        load_scenario(path)


def test_validation_errors():
    with pytest.raises(ConfigurationError, match="alpha"):
        Scenario(alpha=0.0).validate()
    with pytest.raises(ConfigurationError, match="cost weights"):
        Scenario(terminal_weight=-0.1).validate()
    with pytest.raises(ConfigurationError, match="mode"):
        Scenario(mode="sideways").validate()
    with pytest.raises(ConfigurationError, match="nonnegative"):
        Scenario(sigma1=-0.1).validate()
    # the truncation is checked where noise is drawn (a noise-free scenario
    # draws none)
    with pytest.raises(ConfigurationError, match="modes"):
        Scenario(n=8, modes=100, mode="stochastic").validate()
    with pytest.raises(ConfigurationError, match="seed"):
        Scenario(seed=-1).validate()
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        Scenario(seed=2.5).validate()
    # every optimize run is the regularized iteration: eps0 = 0 would drop
    # both its perturbation and its penalty
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="eps0 must be positive"):
            Scenario(eps0=bad).validate()
    # no iteration would run, and the optimizer would report an empty history
    for bad in (0, -3):
        with pytest.raises(ConfigurationError, match="max_iters"):
            Scenario(max_iters=bad).validate()
    # dt = 0.1 and I_ion'(10) = 275.25: the explicit cubic step is unstable
    with pytest.raises(ConfigurationError, match=r"dt=0\.1 .* = 27\.5"):
        Scenario(steps=5, v0="constant:10").validate()
    Scenario(steps=5, v0="constant:10", linear=True).validate()


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", np.int64(3)),
        ("n", np.int64(12)),
        ("linear", np.bool_(False)),
        ("horizon", np.float64(0.1)),
        ("n", 12.0),
        ("steps", 30.0),
        ("ensemble", True),
        ("mask", 1),
    ],
)
def test_fields_hold_the_type_of_their_default(key, value):
    # a numpy scalar breaks the manifest's digest or its scenario text, and
    # a float count breaks the grid, so each is rejected when validated
    with pytest.raises(ConfigurationError, match=f"^{key} must be"):
        Scenario(**{key: value}).validate()


def test_an_int_may_stand_for_a_float():
    s = Scenario(n=16, horizon=1, steps=100, alpha=2)
    assert s.problem.timegrid.T == 1.0 and s.problem.cost.alpha == 2.0


def test_digest_stable_under_key_order(tmp_path):
    p1 = tmp_path / "a.ini"
    p1.write_text("[grid]\nn = 48\nd = 1\n")
    p2 = tmp_path / "b.ini"
    p2.write_text("[grid]\nd = 1\nn = 48\n")
    assert load_scenario(p1).digest() == load_scenario(p2).digest()
    assert load_scenario(p1).digest() != Scenario().digest()


def test_build_objects_consistent():
    s = Scenario(n=16, modes=8)
    g = s.build_grid()
    assert g.shape == (16,)
    cov = s.build_cov()
    assert cov.is_zero()  # deterministic mode zeroes the noise
    s2 = Scenario(n=16, modes=8, mode="stochastic", sigma1=0.2)
    assert not s2.build_cov().is_zero()
    tg = s.build_timegrid()
    assert tg.N == s.steps
    cost = s.build_cost()
    assert cost.alpha == s.alpha


def test_initial_field_specs():
    s = Scenario(n=16, v0="constant:0.5", w0="modes:2:0.1")
    x0 = s.build_initial_state()
    np.testing.assert_allclose(x0.v, 0.5)
    assert np.max(np.abs(x0.w)) > 0
    with pytest.raises(ConfigurationError, match="unknown field spec"):
        Scenario(v0="gibberish:1").build_initial_state()
    with pytest.raises(ConfigurationError, match="bad constant"):
        Scenario(v0="constant:zero").build_initial_state()


def test_field_spec_from_file(tmp_path):
    s = Scenario(n=8)
    arr = np.linspace(0, 1, 8)
    path = tmp_path / "v0.npz"
    np.savez(path, v=arr)
    s2 = Scenario(n=8, v0=f"file:{path}:v")
    np.testing.assert_allclose(s2.build_initial_state().v, arr)
    wrong = Scenario(n=16, v0=f"file:{path}:v")
    with pytest.raises(ConfigurationError, match="shape"):
        wrong.build_initial_state()


def test_mask_specs():
    s = Scenario(n=10, mask="left_half")
    mask = s.build_actuator().mask
    assert mask[0] == 1.0 and mask[-1] == 0.0
    with pytest.raises(ConfigurationError, match="mask"):
        Scenario(mask="right_third").build_actuator()


def test_emit_contains_all_sections():
    text = emit_scenario(Scenario())
    for section in ("[grid]", "[dynamics]", "[noise]", "[time]", "[cost]", "[run]"):
        assert section in text


@pytest.mark.parametrize(
    "word, value",
    [("true", True), ("YES", True), ("1", True), ("On", True),
     ("False", False), ("nO", False), ("0", False), ("OFF", False)],
)
def test_boolean_words(tmp_path, word, value):
    path = tmp_path / "scn.ini"
    path.write_text(f"[dynamics]\nlinear = {word}\n")
    assert load_scenario(path).linear is value


def test_boolean_rejects_other_words(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[dynamics]\nlinear = maybe\n")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        load_scenario(path)


def test_every_field_round_trips(tmp_path):
    s = Scenario(
        d=2, n=12, ell=2.0, a=0.3, b=0.9, gamma=0.6, delta=0.7, forcing=0.1,
        linear=True, sigma1=0.2, sigma2=0.05, modes=10, horizon=0.2, steps=40,
        mask="left_half", alpha=1.5, running_weight=0.5, terminal_weight=0.2,
        x_ref="constant:0.1", x_target="constant:0.05|constant:0.02",
        v0="constant:0.2", w0="modes:2:0.1", seed=3, ensemble=7,
        mode="stochastic", tol=1.0e-5, max_iters=12, eps0=2.0e-3,
    )
    assert all(getattr(s, f.name) != f.default for f in dataclasses.fields(s))
    path = tmp_path / "scn.ini"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_section_table_names_every_field_once():
    keys = [key for section in scenario._SECTIONS.values() for key in section]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(Scenario))
