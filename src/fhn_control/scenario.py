"""Scenario configuration: INI-style files, the built problem, and digests.

A scenario file is plain key/value text with sections; every key has a
default, so the empty file is a valid scenario.  `Scenario`'s fields are the
schema: `_SECTIONS` places each in its section, a key parses as the type of
its field's default, and values are read literally, without `%` interpolation.
A frozen `Scenario` builds its `control.Problem` once, checking its own
fields and reading every field spec (the problem checks itself); loading
builds it and rejects unknown keys outright.  The canonical digest is
stable under key reordering and is what run manifests record.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .control import CostSpec, Problem, check_run_settings
from .dynamics import FhnParams
from .errors import ConfigurationError
from .forward import ActuatorSpec, TimeGrid, check_seed, open_npz
from .grid import Field, Grid, StateX, neumann_eigenmode
from .noise import SpectralCovariance

#: The INI section of each `Scenario` field; a key's type is the type of its
#: field's default.
_SECTIONS = {
    "grid": ("d", "n", "ell"),
    "dynamics": ("a", "b", "gamma", "delta", "forcing", "linear"),
    "noise": ("sigma1", "sigma2", "modes"),
    "time": ("horizon", "steps"),
    "actuator": ("mask",),
    "cost": ("alpha", "running_weight", "terminal_weight", "x_ref", "x_target"),
    "initial": ("v0", "w0"),
    "run": ("seed", "ensemble", "mode", "tol", "max_iters", "eps0"),
}

#: What a field holds, by the type of its default: that type, or an int for a float
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


@dataclass(frozen=True)
class Scenario:
    """Flat, serializable description of one run; `problem` holds the
    assembled numerical objects."""

    d: int = 1
    n: int = 64
    ell: float = 1.0
    a: float = 0.25
    b: float = 1.0
    gamma: float = 0.5
    delta: float = 0.8
    forcing: float = 0.0
    linear: bool = False
    sigma1: float = 0.1
    sigma2: float = 0.1
    modes: int = 32
    horizon: float = 0.5
    steps: int = 500
    mask: str = "ones"
    alpha: float = 2.0
    running_weight: float = 1.0
    terminal_weight: float = 0.1
    x_ref: str = "zero"
    x_target: str = "zero"
    v0: str = "constant:0.3"
    w0: str = "constant:0.0"
    seed: int = 0
    ensemble: int = 100
    mode: str = "deterministic"
    tol: float = 1.0e-6
    max_iters: int = 40
    eps0: float = 1.0e-3

    @cached_property
    def problem(self) -> Problem:
        """The one validated build of this scenario, shared by every command
        of a run; a bad field or mask spec, or a NaN or infinity anywhere,
        fails here, before any output.  Only the scenario's own fields are
        checked here: `Problem` checks the problem it is built into.  A numpy
        scalar fails: the manifest can neither serialize nor echo it."""
        for f in fields(self):
            value, typ = getattr(self, f.name), type(f.default)
            if not (type(value) is typ or (typ is float and type(value) is int)):
                raise ConfigurationError(f"{f.name} must be {_KINDS[typ]}, got {value!r}")
            if typ is float and not np.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ConfigurationError("noise amplitudes must be nonnegative")
        if self.mode not in ("deterministic", "stochastic"):
            raise ConfigurationError(
                f"mode must be 'deterministic' or 'stochastic', got {self.mode!r}"
            )
        check_seed(self.seed)
        check_run_settings(self.tol, self.max_iters, self.eps0)
        # each part checks its own values, and Problem checks the whole
        return Problem(
            grid=self.build_grid(), params=self.build_params(), timegrid=self.build_timegrid(),
            cov=self.build_cov(), spec=self.build_actuator(), cost=self.build_cost(),
            x0=self.build_initial_state(), ensemble=self.ensemble,
        )

    def validate(self) -> Problem:
        return self.problem

    def digest(self) -> str:
        canonical = json.dumps(_written_values(self), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- assembly -----------------------------------------------------

    def build_grid(self) -> Grid:
        return Grid(self.d, self.n, self.ell)

    def build_params(self) -> FhnParams:
        return FhnParams(self.a, self.b, self.gamma, self.delta, self.forcing, self.linear)

    def build_cov(self) -> SpectralCovariance:
        if self.mode == "deterministic":
            return SpectralCovariance.zero(self.modes)
        return SpectralCovariance.power_spectrum(self.modes, self.sigma1, self.sigma2)

    def build_timegrid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)

    def build_actuator(self) -> ActuatorSpec:
        grid = self.build_grid()
        return ActuatorSpec(_parse_mask(grid, self.mask))

    def build_cost(self) -> CostSpec:
        grid = self.build_grid()
        return CostSpec(
            alpha=self.alpha,
            c_g=self.running_weight,
            c0=self.terminal_weight,
            x_ref=_parse_state(grid, self.x_ref, "x_ref"),
            x_T=_parse_state(grid, self.x_target, "x_target"),
        )

    def build_initial_state(self) -> StateX:
        grid = self.build_grid()
        return StateX(
            _parse_field(grid, self.v0, "v0"), _parse_field(grid, self.w0, "w0")
        )


def _written_values(scenario: Scenario) -> dict:
    """Every field's value as the digest and the scenario text write it:
    an int in a float field as that float, so a scenario and its saved and
    loaded copy serialize alike."""
    out = {}
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        out[f.name] = float(value) if type(f.default) is float and type(value) is int else value
    return out


def _parse_field(grid: Grid, text: str, key: str) -> Field:
    kind, _, rest = text.partition(":")
    if kind == "constant":
        try:
            out = grid.constant(float(rest))
        except ValueError:
            raise ConfigurationError(f"{key}: bad constant value {rest!r}") from None
    elif kind == "modes":
        out = grid.zeros()
        for item in rest.split(","):
            if not item:
                continue
            k_str, _, amp_str = item.partition(":")
            try:
                out = out + float(amp_str) * neumann_eigenmode(grid, int(k_str))
            except ValueError:
                raise ConfigurationError(f"{key}: bad modal term {item!r}") from None
    elif kind == "file":
        out = _load_array(grid, rest, key)
    else:
        raise ConfigurationError(
            f"{key}: unknown field spec kind {kind!r} (use constant:, modes:, file:)"
        )
    if not np.all(np.isfinite(out)):
        raise ConfigurationError(f"{key}: {text!r} holds non-finite values")
    return out


def _load_array(grid: Grid, rest: str, key: str) -> Field:
    """Array of a `file:<path>[:<name>]` spec: the named array of an .npz
    file, or its first array when no name is given."""
    path, _, arr_key = rest.partition(":")
    with open_npz(path, key) as data:
        name = arr_key or next(iter(data.files), None)
        if name not in data.files:
            raise ConfigurationError(f"{key}: no array {name!r} in {path} (it holds {data.files})")
        arr = np.asarray(data[name])
    if arr.shape != grid.shape:
        raise ConfigurationError(
            f"{key}: array in {path} has shape {arr.shape}, grid is {grid.shape}"
        )
    return arr


def _parse_state(grid: Grid, text: str, key: str):
    if text == "zero":
        return None
    v_spec, _, w_spec = text.partition("|")
    if not w_spec:
        w_spec = "constant:0.0"
    return StateX(_parse_field(grid, v_spec, key), _parse_field(grid, w_spec, key))


def _parse_mask(grid: Grid, text: str) -> Field:
    if text == "ones":
        return np.ones(grid.shape)
    if text == "left_half":
        xi = grid.axis_coords()
        ind = (xi < grid.ell / 2.0).astype(float)
        if grid.d == 1:
            return ind
        return np.multiply.outer(ind, np.ones(grid.n))
    kind, _, rest = text.partition(":")
    if kind == "file":
        return _load_array(grid, rest, "mask")
    raise ConfigurationError(
        f"unknown mask spec {text!r} (use ones, left_half, or file:<path>)"
    )


def load_scenario(path: str) -> Scenario:
    """Parse and validate a UTF-8 scenario file, with or without a leading
    byte-order mark; unknown keys are hard errors, and so is a file that
    does not decode or that the INI parser rejects (a missing section
    header, or a repeated section or key).
    Values are read literally: `%` is not interpolated.  `[DEFAULT]` is
    unknown like any other section."""
    # no header line can name the default section "\n", so no keys merge
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    with open(path, encoding="utf-8-sig") as fh:
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{path}: malformed scenario file: {exc}") from None
    getters = {
        bool: parser.getboolean, int: parser.getint, float: parser.getfloat, str: parser.get
    }
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"unknown section [{section}]; valid sections: {sorted(_SECTIONS)}"
            )
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{section}]; "
                    f"valid keys: {sorted(_SECTIONS[section])}"
                )
            typ = type(getattr(Scenario, key))  # the class attribute is the default
            try:
                values[key] = getters[typ](section, key)
            except ValueError:
                raise ConfigurationError(
                    f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}"
                ) from None
    scenario = Scenario(**values)
    scenario.validate()
    return scenario


def emit_scenario(scenario: Scenario) -> str:
    """Serialize every field (defaults included) back to INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    values = _written_values(scenario)
    for section, keys in _SECTIONS.items():
        parser[section] = {}
        for key in keys:
            value = values[key]
            if isinstance(value, bool):
                parser[section][key] = "true" if value else "false"
            elif isinstance(value, float):
                parser[section][key] = repr(value)
            else:
                parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_scenario(scenario))
