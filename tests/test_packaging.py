"""``pyproject.toml`` describes the package that installs the ``insq`` command."""

import importlib
import pathlib
import tomllib

import repro
import repro.cli

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def project():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


class TestPyproject:
    def test_the_version_is_the_package_version(self):
        assert project()["project"]["version"] == repro.__version__

    def test_insq_resolves_to_the_cli_main(self):
        module, _, attribute = project()["project"]["scripts"]["insq"].partition(":")
        assert getattr(importlib.import_module(module), attribute) is repro.cli.main

    def test_nothing_is_required_and_no_extra_exists(self):
        meta = project()["project"]
        assert meta["dependencies"] == []
        assert meta["requires-python"] == ">=3.11"
        assert "optional-dependencies" not in meta

    def test_the_package_is_found_under_src(self):
        where = project()["tool"]["setuptools"]["packages"]["find"]["where"]
        assert where == ["src"]
        assert (PYPROJECT.parent / "src" / "repro" / "__init__.py").is_file()
