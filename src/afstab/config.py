"""Experiment configuration: a single JSON file with nested typed sections.

parse -> serialize -> parse is the identity; validation collects every
violation instead of stopping at the first.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from .errors import ParseError, ValidationError
from .geometry import FAMILIES, MetricChart
from .grid import Grid


@dataclass
class FamilyConfig:
    tag: str = "flat"
    params: dict = field(default_factory=dict)
    box_halfwidth: float = 100.0
    excision_radius: float = 0.0
    decay_b: float = 10.0
    decay_tau: float = 1.0
    base_point: list = field(default_factory=lambda: [2.0, 0.0, 0.0])


@dataclass
class GridConfig:
    nodes: int = 65
    halfwidth: float = 20.0
    bc: str = "corrected"


@dataclass
class SolverConfig:
    tol: float = 1e-11
    max_iter: int = 20000
    method: str = "auto"
    eps_grad_factor: float = 1e-6


@dataclass
class SamplingConfig:
    seed: int | None = None
    ball_radius: float = 3.0
    rho: float | None = None          # defaults to two grid cells at run time
    n_pairs: int = 200
    n_targets: int = 20
    target_radius: float = 2.0
    n_pythagoras_pairs: int = 50
    eikonal_nodes: int = 81


@dataclass
class MassConfig:
    radii: list = field(default_factory=lambda: [20.0, 40.0, 80.0])
    fit_exponent: float | None = None
    quadrature_polar: int = 32
    quadrature_azimuth: int = 64
    residual_threshold: float = 1e-3


@dataclass
class CertificateConfig:
    x_field: dict = field(default_factory=lambda: {"kind": "zero"})
    c_coef: float = 1.0
    n_sample_points: int = 600
    sample_r_min: float = 0.25
    sample_r_max: float = 10.0


@dataclass
class SweepConfig:
    parameter: str = "m"
    values: list = field(default_factory=list)


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

    def chart(self, override_params: dict | None = None) -> MetricChart:
        f = self.family
        params = dict(f.params)
        if override_params:
            params.update(override_params)
        return MetricChart(family=f.tag, params=params,
                           box_halfwidth=f.box_halfwidth,
                           excision_radius=f.excision_radius,
                           decay_b=f.decay_b, decay_tau=f.decay_tau,
                           base_point=tuple(f.base_point))

    def make_grid(self) -> Grid:
        return Grid(halfwidth=self.grid.halfwidth, nodes=self.grid.nodes)

    def rho(self) -> float:
        if self.sampling.rho is not None:
            return float(self.sampling.rho)
        return 2.0 * 2.0 * self.grid.halfwidth / (self.grid.nodes - 1)


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

    Every real-valued field must be finite: NaN fails each range test
    written as `not lo < x < hi`, and inf fails it at hi = math.inf.
    """
    v = []
    f = cfg.family
    if f.tag not in FAMILIES:
        v.append(f"family.tag must be one of {FAMILIES}, got {f.tag!r}")
    if not 0 < f.box_halfwidth < math.inf:
        v.append("family.box_halfwidth must be finite and positive")
    if not 0 <= f.excision_radius < math.inf:
        v.append("family.excision_radius must be finite and nonnegative")
    if not 0 < f.decay_b < math.inf:
        v.append("family.decay_b must be finite and positive")
    if not f.decay_tau > 0.5:
        v.append("family.decay_tau: tau must exceed 1/2")
    elif f.decay_tau > 1.0:
        v.append("family.decay_tau must not exceed 1 for the corpus families")
    if len(f.base_point) != 3:
        v.append("family.base_point must be a 3-vector")
    elif not all(isinstance(c, (int, float)) and -math.inf < c < math.inf
                 for c in f.base_point):
        v.append("family.base_point components must be finite numbers")

    g = cfg.grid
    if g.nodes < 17 or g.nodes % 2 == 0:
        v.append("grid.nodes must be odd and >= 17")
    if not 0 < g.halfwidth < math.inf:
        v.append("grid.halfwidth must be finite and positive")
    elif g.halfwidth > f.box_halfwidth:
        v.append("grid.halfwidth must not exceed family.box_halfwidth")
    if g.bc not in ("plain", "corrected"):
        v.append("grid.bc must be 'plain' or 'corrected'")

    s = cfg.solver
    if not 0 < s.tol <= 1e-6:
        v.append("solver.tol must lie in (0, 1e-6]")
    if s.max_iter < 100:
        v.append("solver.max_iter must be at least 100")
    if s.method not in ("auto", "cg", "amg"):
        v.append("solver.method must be 'auto', 'cg', or 'amg'")
    if not 0 < s.eps_grad_factor < math.inf:
        v.append("solver.eps_grad_factor must be finite and positive")

    sm = cfg.sampling
    if sm.seed is None:
        v.append("sampling.seed is mandatory")
    elif not isinstance(sm.seed, int):
        v.append("sampling.seed must be an integer")
    if not 0 < sm.ball_radius < math.inf:
        v.append("sampling.ball_radius must be finite and positive")
    if sm.rho is not None and not 0 < sm.rho < math.inf:
        v.append("sampling.rho must be finite and positive when given")
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
    if ms.quadrature_polar < 4 or ms.quadrature_azimuth < 8:
        v.append("mass quadrature orders too small (polar >= 4, azimuth >= 8)")
    if ms.fit_exponent is not None and not -math.inf < ms.fit_exponent < math.inf:
        v.append("mass.fit_exponent must be finite when given")
    if not 0 < ms.residual_threshold < math.inf:
        v.append("mass.residual_threshold must be finite and positive")

    ct = cfg.certificate
    if ct.x_field.get("kind", "zero") not in ("zero", "gradient_bump"):
        v.append("certificate.x_field.kind must be 'zero' or 'gradient_bump'")
    if not 0.25 < ct.c_coef < math.inf:
        v.append("certificate.c_coef must be finite and exceed 1/4")
    if ct.n_sample_points < 10:
        v.append("certificate.n_sample_points must be at least 10")
    if not 0 < ct.sample_r_min < ct.sample_r_max < math.inf:
        v.append("certificate sample radii must satisfy 0 < r_min < r_max < inf")

    o = cfg.output
    if not isinstance(o.directory, str) or not o.directory:
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
