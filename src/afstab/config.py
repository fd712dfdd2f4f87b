"""Experiment configuration: a single JSON file with nested typed sections.

parse -> serialize -> parse is the identity; validation collects every
violation instead of stopping at the first.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ParseError, ValidationError
from .geometry import FAMILIES, FAMILY_PARAMS, MetricChart
from .grid import Grid


@dataclass
class FamilyConfig:
    tag: str = "flat"
    params: dict = field(default_factory=dict)
    box_halfwidth: float = 100.0
    decay_b: float = 10.0
    decay_tau: float = 1.0


@dataclass
class GridConfig:
    nodes: int = 65
    halfwidth: float = 20.0


@dataclass
class SolverConfig:
    tol: float = 1e-11
    max_iter: int = 20000
    method: str = "auto"   # selects nothing: every solve is fast-Poisson CG


@dataclass
class SamplingConfig:
    seed: int | None = None
    ball_radius: float = 3.0
    n_pairs: int = 200
    n_targets: int = 20
    target_radius: float = 2.0
    n_pythagoras_pairs: int = 50
    # read by nothing: the distortion's geodesic ball comes from chord
    # certificates and shots.  It stays, still validated, because the
    # repository configs and the benchmark workloads set it; one schema
    # change is to drop it from all of them
    eikonal_nodes: int = 81


@dataclass
class MassConfig:
    radii: list[float] = field(default_factory=lambda: [20.0, 40.0, 80.0])


@dataclass
class CertificateConfig:
    x_field: dict = field(default_factory=lambda: {"kind": "zero"})
    c_coef: float = 1.0


@dataclass
class SweepConfig:
    parameter: str = "m"
    values: list[float] = field(default_factory=list)


@dataclass
class OutputConfig:
    directory: str = "out"


_SECTIONS = {
    "family": FamilyConfig, "grid": GridConfig, "solver": SolverConfig,
    "sampling": SamplingConfig, "mass": MassConfig,
    "certificate": CertificateConfig, "sweep": SweepConfig, "output": OutputConfig,
}


@dataclass
class ExperimentConfig:
    family: FamilyConfig = field(default_factory=FamilyConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    mass: MassConfig = field(default_factory=MassConfig)
    certificate: CertificateConfig = field(default_factory=CertificateConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        return {name: asdict(getattr(self, name)) for name in _SECTIONS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def chart(self) -> MetricChart:
        f = self.family
        return MetricChart(family=f.tag, params=dict(f.params),
                           box_halfwidth=f.box_halfwidth,
                           decay_b=f.decay_b, decay_tau=f.decay_tau)

    def make_grid(self) -> Grid:
        return Grid(halfwidth=self.grid.halfwidth, nodes=self.grid.nodes)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x) -> bool:
    return _is_number(x) and -math.inf < x < math.inf


# what a field of each annotated type must hold, tested before any range test
# compares it (bools are not numbers; a null seed is left to the range tests)
_TYPES = {int: ("an integer", lambda x: _is_number(x) and isinstance(x, int)),
          int | None: ("an integer",
                       lambda x: x is None or _is_number(x) and isinstance(x, int)),
          float: ("a number", _is_number),
          list[float]: ("a list of numbers",
                        lambda x: isinstance(x, list) and all(map(_is_number, x))),
          str: ("a string", lambda x: isinstance(x, str))}


# what a value of each kind in FAMILY_PARAMS (bar "bumps") or in an
# x_field must be, and its test
_KINDS = {
    "number": ("a finite number", _finite),
    "width": ("finite and positive", lambda x: _finite(x) and x > 0),
    "point": ("a finite 3-vector", lambda x: isinstance(x, (list, tuple))
              and len(x) == 3 and all(map(_finite, x))),
    "x_kind": ("'zero' or 'gradient_bump'", lambda x: x in ("zero", "gradient_bump")),
}
_BUMP = {"amplitude": "number", "center": "point", "width": "width"}
_X_FIELD = {"kind": "x_kind", **_BUMP}


def _entries_violations(where: str, entries, kinds: dict, required=False) -> list:
    """Violations of an object whose keys must be among `kinds` (all of them
    when required) and whose values must be of the kind each names."""
    if not isinstance(entries, dict):
        return [f"{where} must be an object"]
    v = []
    unknown = set(entries) - set(kinds)
    if unknown:
        v.append(f"{where}: unknown key(s) {sorted(unknown)}, expected {sorted(kinds)}")
    if required and set(kinds) - set(entries):
        v.append(f"{where}: missing key(s) {sorted(set(kinds) - set(entries))}")
    for key, value in entries.items():
        kind = kinds.get(key)
        if kind == "bumps":
            if not isinstance(value, list):
                v.append(f"{where}.{key} must be a list")
            else:
                for i, bump in enumerate(value):
                    v += _entries_violations(f"{where}.{key}[{i}]", bump, _BUMP, True)
        elif kind and not _KINDS[kind][1](value):
            v.append(f"{where}.{key} must be {_KINDS[kind][0]}")
    return v


def config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ValidationError([f"unknown section(s): {sorted(unknown)}"])
    kwargs = {}
    violations = []
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            violations.append(f"{name}: expected an object, got {type(section).__name__}")
            continue
        allowed = {f_.name for f_ in cls.__dataclass_fields__.values()}
        bad = set(section) - allowed
        if bad:
            violations.append(f"{name}: unknown field(s) {sorted(bad)}")
            section = {k: v for k, v in section.items() if k in allowed}
        kwargs[name] = cls(**section)
    if violations:
        raise ValidationError(violations)
    cfg = ExperimentConfig(**kwargs)
    violations = validate(cfg)
    if violations:
        raise ValidationError(violations)
    return cfg


def validate(cfg: ExperimentConfig) -> list:
    """All validation violations, empty when the config is usable.

    A field that does not fit its annotation is one violation naming it,
    and the range tests run only when every field fits.  Every real-valued
    field must be finite: NaN fails each range test written as
    `not lo < x < hi`, and inf fails it at hi = math.inf.  The same holds
    inside family.params (keys and kinds from FAMILY_PARAMS),
    certificate.x_field and sweep.values.
    """
    v = [f"{name}.{fld.name} must be {_TYPES[fld.type][0]}"
         for name in _SECTIONS for fld in fields(getattr(cfg, name))
         if fld.type in _TYPES
         and not _TYPES[fld.type][1](getattr(getattr(cfg, name), fld.name))]
    if v:
        return v
    f = cfg.family
    if f.tag not in FAMILIES:
        v.append(f"family.tag must be one of {FAMILIES}, got {f.tag!r}")
    if not 0 < f.box_halfwidth < math.inf:
        v.append("family.box_halfwidth must be finite and positive")
    if not 0 < f.decay_b < math.inf:
        v.append("family.decay_b must be finite and positive")
    if not f.decay_tau > 0.5:
        v.append("family.decay_tau: tau must exceed 1/2")
    elif f.decay_tau > 1.0:
        v.append("family.decay_tau must not exceed 1 for the corpus families")
    family_params = FAMILY_PARAMS.get(f.tag, {})
    if f.tag in FAMILY_PARAMS:
        v += _entries_violations("family.params", f.params, family_params)

    g = cfg.grid
    if g.nodes < 17 or g.nodes % 2 == 0:
        v.append("grid.nodes must be odd and >= 17")
    if not 0 < g.halfwidth < math.inf:
        v.append("grid.halfwidth must be finite and positive")
    elif g.halfwidth > f.box_halfwidth:
        v.append("grid.halfwidth must not exceed family.box_halfwidth")

    s = cfg.solver
    if not 0 < s.tol <= 1e-6:
        v.append("solver.tol must lie in (0, 1e-6]")
    if s.max_iter < 100:
        v.append("solver.max_iter must be at least 100")
    if s.method not in ("auto", "cg"):
        v.append("solver.method must be 'auto' or 'cg' (both run fast-Poisson CG)")

    sm = cfg.sampling
    if sm.seed is None:
        v.append("sampling.seed is mandatory")
    if not 0 < sm.ball_radius < math.inf:
        v.append("sampling.ball_radius must be finite and positive")
    for name in ("n_pairs", "n_targets", "n_pythagoras_pairs"):
        if getattr(sm, name) < 1:
            v.append(f"sampling.{name} must be at least 1")
    if not 0 < sm.target_radius < math.inf:
        v.append("sampling.target_radius must be finite and positive")
    if sm.eikonal_nodes < 33:
        v.append("sampling.eikonal_nodes must be at least 33")

    ms = cfg.mass
    if len(ms.radii) < 3:
        v.append("mass.radii needs at least 3 extraction radii")
    elif not all(-math.inf < r < math.inf for r in ms.radii):
        v.append("mass.radii must be finite")
    elif any(b <= a for a, b in zip(ms.radii, ms.radii[1:])):
        v.append("mass.radii must be strictly increasing")
    elif ms.radii[0] <= 1.0:
        v.append("mass.radii must all exceed 1")
    elif ms.radii[-1] > f.box_halfwidth:
        v.append("mass.radii must fit inside family.box_halfwidth")

    ct = cfg.certificate
    v += _entries_violations("certificate.x_field", ct.x_field, _X_FIELD)
    if not 0.25 < ct.c_coef < math.inf:
        v.append("certificate.c_coef must be finite and exceed 1/4")

    sw = cfg.sweep
    if not all(map(_finite, sw.values)):
        v.append("sweep.values must be finite numbers")
    elif sw.values and f.tag in FAMILY_PARAMS:
        kind = family_params.get(sw.parameter)
        if kind not in ("number", "width"):
            numeric = sorted(k for k, c in family_params.items() if c in ("number", "width"))
            v.append(f"sweep.parameter must be one of {numeric} for family {f.tag!r}")
        elif not all(map(_KINDS[kind][1], sw.values)):
            v.append(f"sweep.values must each be {_KINDS[kind][0]} for {sw.parameter}")

    o = cfg.output
    if not o.directory:
        v.append("output.directory must be a nonempty string")
    return v


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file; raises ParseError / ValidationError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return config_from_dict(data)
