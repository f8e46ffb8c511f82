"""Experiment configuration: a flat key=value file overridable by CLI flags.

Precedence, lowest to highest: built-in defaults, recipe defaults, config
file, command-line flags.  The derived bandwidth parameter D = min(d,
N^2/d^3) is always recomputed from (n, d), never stored.  Degrees outside
the window [N^alpha, N^{2/3-alpha}], alpha = ``WINDOW_ALPHA``, draw a
warning, not an error, so exploratory runs at extreme degrees remain
possible.
"""

import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path


class ConfigError(ValueError):
    """A configuration key failed to parse or validate."""


class DegreeWindowWarning(UserWarning):
    """The degree lies outside the calibrated window [N^a, N^{2/3-a}]."""


def _parse_real_list(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_complex_list(text):
    return tuple(complex(tok) for tok in text.replace(",", " ").split())


_PARSERS = {
    "n": int,
    "d": int,
    "t_grid": _parse_real_list,
    "n_samples": int,
    "seed": int,
    "kappa": float,
    "z_grid": _parse_complex_list,
    "scheme": str,
    "output_dir": Path,
    "workers": int,
}

_SCHEMES = ("exact", "em")
# the margin alpha of the degree window [N^alpha, N^{2/3-alpha}]
WINDOW_ALPHA = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale experiment profile; defaults are N=1000, d=32, 100 samples."""

    n: int = 1000
    d: int = 32
    t_grid: tuple = ()
    n_samples: int = 100
    seed: int = 0
    kappa: float = 0.1
    z_grid: tuple = ()
    scheme: str = "exact"
    output_dir: Path = field(default_factory=lambda: Path("runs"))
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        # the centered, rescaled matrix divides by sqrt(d - 1)
        if not 2 <= self.d < self.n:
            raise ConfigError("d must satisfy 2 <= d < n")
        if self.n * self.d % 2:
            raise ConfigError("n*d must be even for a d-regular graph to exist")
        if self.n_samples < 0:
            raise ConfigError("n_samples must be nonnegative")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if not 0.0 < self.kappa < 0.5:
            raise ConfigError("kappa must lie in (0, 0.5)")
        if not all(map(math.isfinite, self.t_grid)):
            raise ConfigError("t_grid times must be finite")
        if not all(math.isfinite(part) for z in self.z_grid
                   for part in (z.real, z.imag)):
            raise ConfigError("z_grid points must be finite")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")

    @property
    def big_d(self):
        """D = min(d, N^2/d^3), recomputed on every access."""
        return min(float(self.d), self.n ** 2 / self.d ** 3)

    @property
    def degree_window(self):
        return (self.n ** WINDOW_ALPHA, self.n ** (2.0 / 3.0 - WINDOW_ALPHA))

    def warn_if_outside_window(self):
        lo, hi = self.degree_window
        if not lo <= self.d <= hi:
            warnings.warn(
                f"degree d={self.d} outside window [{lo:.2f}, {hi:.2f}] for "
                f"n={self.n}; results are exploratory there",
                DegreeWindowWarning, stacklevel=2)

    def to_dict(self):
        """Full echo of every key, defaults included, for the manifest."""
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = [str(v) if isinstance(v, complex) else v for v in value]
            out[spec.name] = value
        out["big_d"] = self.big_d
        return out


def parse_config_file(path):
    """Read a flat key=value file; '#' starts a comment, blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve_config(recipe_defaults, file_path, overrides):
    """Merge defaults < recipe defaults < config file < explicit overrides.

    Either of the first two may be None; None override values are skipped.
    """
    merged = {}
    merged.update(recipe_defaults or {})
    if file_path is not None:
        merged.update(parse_config_file(file_path))
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
