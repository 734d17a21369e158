"""Run configuration: INI-style sections with typed values.

Grammar: standard INI sections and ``key = value`` lines, where each
value is parsed as a Python literal when possible (numbers, strings,
booleans, lists, tuples, nested lists, complex numbers such as
``-0.5j``) and kept as a bare string otherwise.  Multi-line values
follow INI continuation rules (indent the following lines), which keeps
matrices readable:

    [system]
    omega_0 = 1.0
    g = 0.1

    [reservoir]
    model = thermal_ohmic
    eta = 0.3
    omega_j = 20.0
    temperature = 0.5

    [quadrature]
    omega_cutoff = 300.0

A general system replaces ``omega_0`` with explicit levels and
coupling matrices:

    [system]
    levels = [("g", -0.5), ("e", 0.5)]
    coupling_ops = [[[0, -0.5j], [0.5j, 0]]]
    g = 0.1

Everything is validated at parse time: files referenced by the config
must exist and all numeric parameters must satisfy their module
preconditions before any computation starts.
"""

from __future__ import annotations

import ast
import configparser
import math
import os
import warnings

import numpy as np

from .errors import ConfigError
from .kernels import build_kernel
from .quadrature import QuadratureConfig
from .system import SystemSpec, two_level_system, validate_system

_KNOWN_SECTIONS = {"system", "reservoir", "quadrature", "rates", "shift",
                   "evolve", "kk_check", "sweep"}
_SYSTEM_KEYS = {"omega_0", "g", "levels", "coupling_ops"}
_RESERVOIR_KEYS = {"model", "acceleration", "eta", "omega_j", "temperature",
                   "path"}
_QUADRATURE_KEYS = {"omega_cutoff", "abs_tol", "rel_tol", "max_subdivisions",
                    "u_max"}
SWEEPABLE_KEYS = ("acceleration", "eta", "g", "omega_0", "omega_cutoff",
                  "omega_j", "temperature")


def _parse_value(raw):
    raw = raw.strip()
    # a value such as 1if 1 else 2 is a bare string, not a SyntaxWarning
    # on stderr ("invalid decimal literal")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SyntaxWarning)
        try:
            return ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            return raw


class RunConfig:
    """Parsed and validated configuration."""

    __slots__ = ("path", "sections", "_system", "_kernel", "_quadrature")

    def __init__(self, path, sections, _system=None, _kernel=None,
                 _quadrature=None):
        self.path = path
        self.sections = sections
        self._system = _system
        self._kernel = _kernel
        self._quadrature = _quadrature

    def section(self, name):
        return self.sections.get(name, {})

    def get(self, section, key, default=None, required=False):
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                raise ConfigError("missing required key %s.%s" % (section, key))
            return default
        return sec[key]

    def system(self):
        if self._system is None:
            self._system = _build_system(self.section("system"))
        return self._system

    def kernel(self):
        if self._kernel is None:
            self._kernel = _build_reservoir(self.section("reservoir"),
                                            os.path.dirname(self.path))
        return self._kernel

    def quadrature(self):
        if self._quadrature is None:
            self._quadrature = _build_quadrature(self.section("quadrature"))
        return self._quadrature

    def with_overrides(self, overrides):
        """New RunConfig with {(section, key): value} replaced; revalidates.

        The system, kernel and quadrature already built from a section
        that no override touches are carried over, not rebuilt (a
        tabulated kernel would parse its file again).
        """
        sections = {name: dict(sec) for name, sec in self.sections.items()}
        for (section, key), value in overrides.items():
            sections.setdefault(section, {})[key] = value
        touched = {section for section, _ in overrides}
        fresh = RunConfig(
            self.path, sections,
            None if "system" in touched else self._system,
            None if "reservoir" in touched else self._kernel,
            None if "quadrature" in touched else self._quadrature)
        fresh.validate()
        return fresh

    def validate(self):
        for name, sec in self.sections.items():
            if name not in _KNOWN_SECTIONS:
                raise ConfigError("unknown config section [%s]" % name)
            known = {"system": _SYSTEM_KEYS, "reservoir": _RESERVOIR_KEYS,
                     "quadrature": _QUADRATURE_KEYS}.get(name)
            if known is not None:
                for key in sec:
                    if key not in known:
                        raise ConfigError(
                            "unknown key %s.%s (known: %s)"
                            % (name, key, ", ".join(sorted(known)))
                        )
        self.system()
        self.kernel()
        self.quadrature()
        return self


def parse_config(path, validate=True):
    """Read, type and validate a config file.

    ``validate=False`` reads and types it only, for a command that reads
    its own section and builds no system, reservoir or quadrature
    (kk-check).
    """
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    if not read:
        raise ConfigError("cannot read config file %s" % path)
    sections = {
        name: {key: _parse_value(parser.get(name, key))
               for key in parser.options(name)}
        for name in parser.sections()
    }
    cfg = RunConfig(os.path.abspath(path), sections)
    return cfg.validate() if validate else cfg


def _number(section, key, value):
    try:  # TypeError: not a number; OverflowError: an int beyond float
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError("%s.%s must be a finite number, got %r"
                          % (section, key, value))
    return float(value)


def _positive_int(section, key, value):
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError("%s.%s must be a positive integer, got %r"
                          % (section, key, value))
    return value


def _build_system(sec):
    if not sec:
        raise ConfigError("missing [system] section")
    g = _number("system", "g", sec.get("g", 0.0))
    if "omega_0" in sec:
        if "levels" in sec or "coupling_ops" in sec:
            raise ConfigError(
                "system.omega_0 (two-level shortcut) cannot be combined with "
                "explicit system.levels / system.coupling_ops"
            )
        omega_0 = _number("system", "omega_0", sec["omega_0"])
        if omega_0 <= 0:
            raise ConfigError("system.omega_0 must be positive, got %g" % omega_0)
        return two_level_system(omega_0, g)
    if "levels" not in sec or "coupling_ops" not in sec:
        raise ConfigError(
            "system section needs either omega_0 or both levels and coupling_ops"
        )
    levels = sec["levels"]
    if not isinstance(levels, (list, tuple)):
        raise ConfigError("system.levels must be a list of (label, energy) pairs")
    ops = sec["coupling_ops"]
    if not isinstance(ops, (list, tuple)) or not ops:
        raise ConfigError("system.coupling_ops must be a non-empty list of matrices")
    try:
        parsed_levels = tuple((str(lb), float(en)) for lb, en in levels)
        matrices = tuple(np.array(m, dtype=complex) for m in ops)
    except (TypeError, ValueError) as exc:
        raise ConfigError("malformed system.levels or system.coupling_ops: %s"
                          % exc) from exc
    spec = SystemSpec(levels=parsed_levels, coupling_ops=matrices, g=g)
    return validate_system(spec)


def _build_reservoir(sec, base_dir):
    if not sec:
        raise ConfigError("missing [reservoir] section")
    if "model" not in sec:
        raise ConfigError("missing required key reservoir.model")
    params = {k: v for k, v in sec.items() if k != "model"}
    if "path" in params:
        p = str(params["path"])
        if not os.path.isabs(p):
            p = os.path.join(base_dir, p)
        if not os.path.exists(p):
            raise ConfigError("reservoir.path does not exist: %s" % p)
        params["path"] = p
    return build_kernel(str(sec["model"]), **params)


def _build_quadrature(sec):
    kwargs = {}
    for key in ("abs_tol", "rel_tol", "omega_cutoff", "u_max"):
        if key in sec:
            kwargs[key] = _number("quadrature", key, sec[key])
    if "max_subdivisions" in sec:
        kwargs["max_subdivisions"] = _positive_int(
            "quadrature", "max_subdivisions", sec["max_subdivisions"])
    try:
        return QuadratureConfig(**kwargs)
    except Exception as exc:
        raise ConfigError("invalid [quadrature] section: %s" % exc) from exc
