"""Run configuration: INI-style sections with typed values.

Grammar, read by the package itself: ``[section]`` headers, then
``key = value`` or ``key: value`` lines (the first ``=`` or ``:``
splits them; keys are lower-cased, section names kept as written).  A
line whose first non-blank character is ``#`` or ``;`` is a comment,
and so is the rest of a line from a ``#`` that follows whitespace
(``;`` starts no inline comment).  A line indented deeper than its
key's line continues that key's value, joined by a newline, which
keeps matrices readable; blank lines inside such a value are kept.
Each value is parsed as a Python literal when possible (numbers,
strings, booleans, lists, tuples, nested lists, complex numbers such
as ``-0.5j``) and kept as a bare string otherwise:

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
    coupling_ops = [[[0, -0.5j],
                     [0.5j, 0]]]
    g = 0.1

The reader refuses, naming the file and the line, a duplicate section
or key, a key before the first section, a line with neither ``=`` nor
``:``, an empty key, a ``[`` line that is not exactly ``[name]``, and a
``[DEFAULT]`` section (its keys would not be shared with the others).

``_SCHEMA`` is the one list of the sections and keys a config may
hold, and of how each value is typed: a finite number, a positive
integer, a non-empty list of numbers (the ``[sweep]`` axes) or the
value as read.  Any other section or key is refused, naming it.
A ``RunConfig`` is typed and built once, when it is constructed: files
referenced by the config must exist and all numeric parameters must
satisfy their module preconditions before any computation starts.
``system`` and ``kernels`` load only when a system or a reservoir is
built (not for kk-check).
"""

from __future__ import annotations

import ast
import os
import warnings

import numpy as np

from .errors import ConfigError
from .quadrature import QuadratureConfig, is_finite

SWEEPABLE_KEYS = ("acceleration", "eta", "g", "omega_0", "omega_cutoff",
                  "omega_j", "temperature")


def _number(section, key, value):
    if not is_finite(value):
        raise ConfigError("%s.%s must be a finite number, got %r"
                          % (section, key, value))
    return float(value)


def _positive_int(section, key, value):
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError("%s.%s must be a positive integer, got %r"
                          % (section, key, value))
    return value


def _numbers(section, key, value):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError("%s.%s must be a non-empty list" % (section, key))
    return [_number(section, key, v) for v in value]


# Every section and key a config may hold, and the typer of each value
# (None keeps the value as read).
_SCHEMA = {
    "system": {"omega_0": _number, "g": _number, "levels": None,
               "coupling_ops": None},
    "reservoir": {"model": None, "acceleration": _number, "eta": _number,
                  "omega_j": _number, "temperature": _number, "path": None},
    "quadrature": {"omega_cutoff": _number, "abs_tol": _number,
                   "rel_tol": _number, "max_subdivisions": _positive_int},
    "shift": {"level": None},
    "evolve": {"h0": _number, "tau_end": _number, "step": _number,
               "n_samples": _positive_int},
    "kk_check": {"eta": _number, "table": None},
    "sweep": {"quantity": None, **dict.fromkeys(SWEEPABLE_KEYS, _numbers)},
}


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
    """A config, typed by ``_SCHEMA`` in place, and the system, kernel
    and quadrature built from it, in that order, when it is constructed.

    ``only`` names the one section to type instead, for a command that
    builds none of them (kk-check); the three are then None.  ``path``
    anchors a relative table path.  ``_built`` maps a section name to
    what was already built from it (``with_overrides``); its sections
    are typed already and are not typed again.
    """

    __slots__ = ("path", "sections", "system", "kernel", "quadrature")

    def __init__(self, path, sections, only=None, _built=None):
        self.path = path
        self.sections = sections
        if _built is None:  # with_overrides types only its axes
            for name, sec in sections.items():
                if only is not None and name != only:
                    continue
                keys = _SCHEMA.get(name)
                if keys is None:
                    raise ConfigError("unknown config section [%s] (known: %s)"
                                      % (name, ", ".join(_SCHEMA)))
                for key, value in sec.items():
                    if key not in keys:
                        raise ConfigError(
                            "unknown key %s.%s (known: %s)"
                            % (name, key, ", ".join(sorted(keys))))
                    if keys[key] is not None:
                        sec[key] = keys[key](name, key, value)
        self.system = self.kernel = self.quadrature = None
        if only is None:
            built = _built or {}
            self.system = built.get("system") or _build_system(
                self.section("system"))
            self.kernel = built.get("reservoir") or _build_reservoir(
                self.section("reservoir"), os.path.dirname(path))
            self.quadrature = built.get("quadrature") or _build_quadrature(
                self.section("quadrature"))

    def section(self, name):
        return self.sections.get(name, {})

    def with_overrides(self, axes):
        """A new RunConfig with each sweep axis {key: value} set in the
        first section of ``_SCHEMA`` that holds the key ([kk_check] also
        has an eta).  What was built from a section no axis touches is
        reused, not rebuilt (a tabulated kernel would parse its file again).
        Only the axis values are typed and only their sections copied, so
        a point costs the same however long the [sweep] axes are.
        """
        sections = dict(self.sections)
        built = {"system": self.system, "reservoir": self.kernel,
                 "quadrature": self.quadrature}
        for key, value in axes.items():
            name = next(s for s in _SCHEMA if key in _SCHEMA[s])
            typer = _SCHEMA[name][key]
            sections[name] = {**sections.get(name, {}), key:
                              typer(name, key, value) if typer else value}
            built.pop(name, None)
        return RunConfig(self.path, sections, _built=built)


def _read_ini(lines, path):
    """{section: {key: raw value}} from the lines of an INI text, in the
    module docstring's grammar; ``path`` names the text in errors."""
    sections = {}
    section = key = None
    key_indent = lineno = 0

    def refuse(what):
        raise ConfigError("cannot parse %s: %s at line %d"
                          % (path, what, lineno))

    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith(("#", ";")):
            continue
        cut = line.find("#")
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        text = (line if cut < 0 else line[:cut]).strip()
        if not text:
            if key is not None:  # a blank line within a value
                sections[section][key].append("")
            continue
        indent = len(line) - len(line.lstrip())
        if key is not None and indent > key_indent:
            sections[section][key].append(text)
            continue
        key_indent = indent
        if text.startswith("["):
            if len(text) < 3 or not text.endswith("]"):
                refuse("malformed section header %r" % text)
            section, key = text[1:-1], None
            if section == "DEFAULT":
                refuse("a [DEFAULT] section is not supported")
            if section in sections:
                refuse("duplicate section [%s]" % section)
            sections[section] = {}
            continue
        if section is None:
            refuse("key before the first [section]")
        split = min((i for i in (text.find("="), text.find(":")) if i >= 0),
                    default=-1)
        if split < 0:
            refuse("no '=' or ':' in %r" % text)
        key = text[:split].rstrip().lower()
        if not key:
            refuse("empty key in %r" % text)
        if key in sections[section]:
            refuse("duplicate key %s.%s" % (section, key))
        sections[section][key] = [text[split + 1:].strip()]
    return {name: {k: "\n".join(v).rstrip() for k, v in sec.items()}
            for name, sec in sections.items()}


def parse_config(path, only=None):
    """The ``RunConfig`` of an INI file (see ``RunConfig`` for ``only``)."""
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path) as fh:
            raw = _read_ini(fh, path)
    except UnicodeDecodeError as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    except OSError as exc:
        raise ConfigError("cannot read config file %s" % path) from exc
    sections = {name: {key: _parse_value(value) for key, value in sec.items()}
                for name, sec in raw.items()}
    return RunConfig(os.path.abspath(path), sections, only)


def _build_system(sec):
    from .system import SystemSpec, two_level_system

    if not sec:
        raise ConfigError("missing [system] section")
    g = sec.get("g", 0.0)
    if "omega_0" in sec:
        if "levels" in sec or "coupling_ops" in sec:
            raise ConfigError(
                "system.omega_0 (two-level shortcut) cannot be combined with "
                "explicit system.levels / system.coupling_ops"
            )
        omega_0 = sec["omega_0"]
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
    return SystemSpec(levels=parsed_levels, coupling_ops=matrices, g=g)


def _build_reservoir(sec, base_dir):
    from .kernels import build_kernel

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
    try:
        return QuadratureConfig(**sec)
    except Exception as exc:
        raise ConfigError("invalid [quadrature] section: %s" % exc) from exc
