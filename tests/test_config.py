"""Config parsing, precedence, validation, and manifest serialization."""

import ast
import importlib
import inspect
import pkgutil
import warnings
from pathlib import Path

import pytest

import rrglab
from rrglab.config import (
    ConfigError,
    DegreeWindowWarning,
    ExperimentConfig,
    parse_config_file,
    resolve_config,
)


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_types_comments_and_blanks(tmp_path):
    path = write(tmp_path, """\
# full-width comment
n = 48
d=4          # trailing comment

t_grid = 0.0, 0.5 2.0
n_samples = 7
seed = 123
kappa = 0.2
z_grid = 1+0.05j, -1+0.05j 0.05j
scheme = em
output_dir = out/sub
workers = 3
""")
    values = parse_config_file(path)
    assert values == {
        "n": 48,
        "d": 4,
        "t_grid": (0.0, 0.5, 2.0),
        "n_samples": 7,
        "seed": 123,
        "kappa": 0.2,
        "z_grid": (1 + 0.05j, -1 + 0.05j, 0.05j),
        "scheme": "em",
        "output_dir": Path("out/sub"),
        "workers": 3,
    }
    assert isinstance(values["n"], int)
    assert isinstance(values["output_dir"], Path)


def test_parse_empty_file_gives_no_values(tmp_path):
    assert parse_config_file(write(tmp_path, "# nothing\n\n")) == {}


def test_parse_unknown_key_reports_path_and_line(tmp_path):
    path = write(tmp_path, "n = 10\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'bogus_key'"):
        parse_config_file(path)


def test_parse_missing_equals_reports_line(tmp_path):
    path = write(tmp_path, "n 10\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: expected key=value"):
        parse_config_file(path)


def test_parse_bad_value_reports_key(tmp_path):
    path = write(tmp_path, "n = ten\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: bad value for n"):
        parse_config_file(path)


def test_resolve_precedence_defaults_file_flags(tmp_path):
    path = write(tmp_path, "n = 64\nd = 8\nseed = 5\n")
    config = resolve_config(
        recipe_defaults={"n": 32, "d": 4, "n_samples": 10},
        file_path=path,
        overrides={"seed": 9, "n": None},
    )
    assert config.n == 64            # file beats recipe default
    assert config.d == 8             # file beats recipe default
    assert config.n_samples == 10    # recipe default survives
    assert config.seed == 9          # flag beats file
    assert config.kappa == 0.1       # built-in default survives


def test_resolve_skips_none_overrides():
    config = resolve_config(None, None, {"n": None, "d": None, "seed": None})
    assert (config.n, config.d, config.seed) == (1000, 32, 0)


def test_resolve_rejects_unknown_field():
    with pytest.raises(ConfigError):
        resolve_config({"not_a_field": 1}, None, {})


def test_defaults_match_documented_profile():
    config = ExperimentConfig()
    assert (config.n, config.d, config.n_samples) == (1000, 32, 100)
    assert config.scheme == "exact"
    assert config.output_dir == Path("runs")
    assert config.kappa == 0.1
    assert config.workers == 1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 1}, "n must be at least 2"),
        ({"n": 10, "d": 0}, "d must satisfy 2 <= d < n"),
        ({"n": 10, "d": 10}, "d must satisfy 2 <= d < n"),
        ({"n": 9, "d": 3}, "n\\*d must be even"),
        ({"n_samples": -1}, "n_samples must be nonnegative"),
        ({"seed": -1}, "seed must fit in 64 bits"),
        ({"seed": 2 ** 64}, "seed must fit in 64 bits"),
        ({"kappa": 0.0}, r"kappa must lie in \(0, 0.5\)"),
        ({"kappa": 0.5}, r"kappa must lie in \(0, 0.5\)"),
        ({"scheme": "rk4"}, "scheme must be one of"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"t_grid": (0.0, float("inf"))}, "t_grid times must be finite"),
        ({"t_grid": (0.0, float("nan"))}, "t_grid times must be finite"),
        ({"t_grid": (float("-inf"),)}, "t_grid times must be finite"),
        ({"z_grid": (complex(0.0, float("nan")),)},
         "z_grid points must be finite"),
        ({"z_grid": (0.05j, complex(float("inf"), 0.1))},
         "z_grid points must be finite"),
        # center_rescale divides by sqrt(d - 1): refused before any work
        ({"n": 10, "d": 1}, "d must satisfy 2 <= d < n"),
    ],
)
def test_validation_errors(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**kwargs)


def test_big_d_recomputed_from_n_and_d():
    assert ExperimentConfig(n=1000, d=32).big_d == 1000.0 ** 2 / 32 ** 3
    assert ExperimentConfig(n=32, d=16).big_d == 0.25
    # low degree: the min switches to d itself
    assert ExperimentConfig(n=1000, d=4).big_d == 4.0


def test_degree_window_endpoints():
    config = ExperimentConfig(n=1000, d=32)
    lo, hi = config.degree_window
    assert lo == pytest.approx(1000.0 ** 0.1)
    assert hi == pytest.approx(1000.0 ** (2.0 / 3.0 - 0.1))


def test_warn_outside_window_and_silent_inside():
    with pytest.warns(DegreeWindowWarning, match="d=52 outside window"):
        ExperimentConfig(n=1000, d=52).warn_if_outside_window()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ExperimentConfig(n=1000, d=32).warn_if_outside_window()


def test_to_dict_serializes_for_manifest():
    config = ExperimentConfig(
        n=100, d=4, z_grid=(1 + 0.05j,), t_grid=(0.0, 1.0),
        output_dir=Path("out"))
    echo = config.to_dict()
    assert echo["output_dir"] == "out"
    assert echo["z_grid"] == ["(1+0.05j)"]
    assert echo["t_grid"] == [0.0, 1.0]
    assert echo["big_d"] == config.big_d
    # every declared field appears, defaults included
    for key in ("n", "d", "n_samples", "seed", "kappa", "scheme",
                "workers"):
        assert key in echo
    assert echo["n_samples"] == 100 and echo["seed"] == 0


def test_config_is_frozen():
    config = ExperimentConfig()
    with pytest.raises(AttributeError):
        config.n = 5


def test_defaulted_parameters_do_not_grow():
    """Option ratchet: adding or removing a defaulted parameter must
    change this count."""
    count = 0
    for info in pkgutil.iter_modules(rrglab.__path__):
        module = importlib.import_module(f"rrglab.{info.name}")
        for func in vars(module).values():
            if (inspect.isfunction(func)
                    and func.__module__ == module.__name__):
                count += sum(
                    param.default is not param.empty
                    for param in inspect.signature(func).parameters.values())
    assert count == 7


# (module, function, imported name) of every import inside a function body.
_FUNCTION_LEVEL_IMPORTS = {
    # scipy costs about 0.27 s and 25 MB to import: only its callers pay it
    ("harness", "_tridiagonal_spectrum", "eigvalsh_tridiagonal"),
    # chain imports graphs, and the benchmark's tracer wraps chain.run_chain
    ("graphs", "sample_regular_graph", "run_chain"),
}


def test_function_level_imports_are_the_listed_ones():
    """Import ratchet: a lazy import moves its cost from the benchmark's
    set-up into the recipe's wall time, or hides a function from the
    tracer, so each one must be listed above with its reason."""
    found = set()
    for path in Path(rrglab.__path__[0]).glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.update((path.stem, func.name, alias.name)
                                 for alias in node.names)
    assert found == _FUNCTION_LEVEL_IMPORTS


def test_only_harness_derives_random_streams():
    """Stream ratchet: stream ids are chosen in one place, so every other
    library function takes its generator as a required ``rng=``."""
    naming = set()
    for path in Path(rrglab.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None)
                     for attr in ("id", "attr", "name")}
            if "rng_stream" in names:
                naming.add(path.stem)
    assert naming == {"streams", "harness"}


# Public names that no code in src/rrglab calls but the paper's criteria or
# the documented artifact formats need: criterion 11's eigenvectors and its
# two statistics, and the reader of the graph text.
_UNCALLED_PUBLIC_NAMES = {"eigenpairs", "delocalization_stat", "rigidity_stat",
                          "read_graph_text"}


def test_public_names_are_used_in_the_library():
    """Name ratchet: a public function, class, method or property that
    nothing in src/rrglab names is test-only code, unless it is listed
    above."""
    defined, named = set(), set()
    for path in Path(rrglab.__path__[0]).glob("*.py"):
        tree = ast.parse(path.read_text())
        members = [member for node in tree.body
                   if isinstance(node, ast.ClassDef) for member in node.body]
        defined.update(
            node.name for node in tree.body + members
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert defined - named == _UNCALLED_PUBLIC_NAMES
