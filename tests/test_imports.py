"""What importing the package loads: the core only.  The vapor, EIT and
reference models load on first use, and so do json and hashlib for the
JSON output.  No command or script run loads argparse, or locale, which
its translated messages import, or csv (cli writes CSV with str.join), or
scipy, a test dependency only (its import alone costs twice a run's
set-up), or numpy.polynomial: the velocity nodes are stored constants.  No
source file or script imports scipy or numpy.polynomial at all, not even
lazily in a function body."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourwave

ROOT = Path(__file__).resolve().parents[1]
ON_FIRST_USE = ("fourwave.eit", "fourwave.reference", "fourwave.vapor", "hashlib", "json")
NEVER_LOADED = ("argparse", "csv", "locale", "numpy.polynomial", "scipy")
NEVER_IMPORTED = ("numpy.polynomial", "scipy")

# fourwave.__all__: the core names and those loaded on first use.
PUBLIC_NAMES = [
    "AtomParams", "DiffusionSet", "LambdaParams", "MeanFieldOut",
    "MediumParams", "Observables", "SliceChainParams", "SteadyState", "VaporParams",
    "absorption_spectrum", "atom", "build_coherence_system", "build_drift_m0",
    "commutator_defect", "detection_loss", "diffusion_set",
    "doppler_absorption", "doppler_generator", "eit", "errors", "evaluate", "gains",
    "generator", "ideal_pia_means", "ideal_pia_noise", "integrated_diffusion", "maxwell_pdf",
    "nlo_pia_transfer", "nlo_psa_field", "numkernel", "observables",
    "preparation_probability", "propagation", "psa_gain", "psa_noise", "reference",
    "residual_transmission", "slice_consistency", "sliced_amp_loss", "slowest_relaxation",
    "spectra", "steady_state", "susceptibility", "to_dB", "transit_time",
    "transparency_window", "unbalanced_loss", "units", "vapor", "vapor_density",
]


def loaded_after(code: str, modules=ON_FIRST_USE) -> list[str]:
    """The modules of ``modules`` that a fresh interpreter holds after code."""
    src = os.path.dirname(os.path.dirname(fourwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = f"{code}\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def validating(config: str) -> str:
    path = ROOT / "configs" / config
    return ("import fourwave.cli\nfrom fourwave import config\n"
            f"assert config.validate(config.parse_config(open({str(path)!r}).read())) == []")


@pytest.mark.parametrize("code, loaded", (
    (validating("entangled_pair.ini"), []),
    ("from fourwave import AtomParams, MediumParams, evaluate", []),
    (validating("vapor_gain_scan.ini"), ["fourwave.vapor"]),
), ids=("cold-config-validated", "library-names", "vapor-config-validated"))
def test_import_loads_only_what_is_used(code, loaded):
    assert loaded_after(code, ON_FIRST_USE + NEVER_LOADED) == loaded


def running(config: str, out) -> str:
    path = ROOT / "configs" / config
    return ("from fourwave.cli import main\n"
            f"assert main(['run', '--config', {str(path)!r}, '--out', {str(out)!r}]) == 0")


def test_cold_run_loads_no_model(tmp_path):
    code = running("entangled_pair.ini", tmp_path / "out.csv")
    assert loaded_after(code, ON_FIRST_USE + NEVER_LOADED) == []


def test_vapor_run_loads_only_the_vapor_model(tmp_path):
    code = running("vapor_gain_scan.ini", tmp_path / "out.csv")
    assert loaded_after(code, ON_FIRST_USE + NEVER_LOADED) == ["fourwave.vapor"]


@pytest.mark.parametrize("script", ("entanglement_spectrum", "qbs_two_photon_scan",
                                    "hot_cold_gain_comparison"))
def test_script_run_loads_no_unused_module(tmp_path, script):
    path, out = ROOT / "scripts" / f"{script}.py", tmp_path / "out.csv"
    code = ("import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('script', {str(path)!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            f"module.main(['--out', {str(out)!r}])")
    assert loaded_after(code, NEVER_LOADED) == []
    assert out.exists()


def test_every_public_name_imports():
    assert fourwave.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from fourwave import {name}", namespace)
        assert namespace[name] is getattr(fourwave, name)
    assert fourwave.VaporParams is fourwave.vapor.VaporParams
    assert fourwave.reference is sys.modules["fourwave.reference"]
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fourwave, "no_such_name")


SOURCES = sorted(list((ROOT / "src" / "fourwave").glob("*.py"))
                 + list((ROOT / "scripts").glob("*.py")))


def source_id(path):
    return f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=source_id)
def test_no_unused_import(path):
    # a name bound by an import anywhere in the file (lazy imports in function
    # bodies too) is read somewhere in it; __init__ imports to re-export
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_imports_no_test_only_module(path):
    # covers the code paths no config or script run reaches, lazy imports too
    tree = ast.parse(path.read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0 for alias in node.names]
    assert [name for name in names
            if any(name == m or name.startswith(m + ".") for m in NEVER_IMPORTED)] == []


def linalg_references(path) -> list[str]:
    """How a module reaches numpy.linalg: "linalg.<name>" for each np.linalg.<name>,
    "linalg" for any other reference to it or an import that reaches into it."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            up = parents[node]
            refs.append(f"linalg.{up.attr}" if isinstance(up, ast.Attribute) else "linalg")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            refs += ["linalg" for name in names if "linalg" in name.split(".")]
    return sorted(refs)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fourwave").glob("*.py")), ids=source_id)
def test_only_atom_references_numpy_linalg(path):
    # one pole rule: propagation flags poles by the closed-form kappa_F alone, and
    # no module grows a LAPACK path beside it; atom keeps the 7x7 eigvals of
    # slowest_relaxation and decay_rates
    expected = ["linalg.eigvals"] * 2 if path.name == "atom.py" else []
    assert linalg_references(path) == expected
