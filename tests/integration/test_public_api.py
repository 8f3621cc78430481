"""Public API smoke tests: the README quickstart must work as written."""

import pytest


def test_quickstart_flow():
    from repro import CONFIG_16_16, build, plan_network

    net = build("alexnet")
    run = plan_network(net, CONFIG_16_16, "adaptive-2")
    assert run.total_cycles > 0
    assert run.milliseconds() > 0
    assert len(run.layers) == 5


def test_select_scheme_export():
    from repro import CONFIG_16_16, build, select_scheme

    choice = select_scheme(build("alexnet").conv1(), CONFIG_16_16)
    assert choice.scheme == "partition"


def test_custom_config_flow():
    from repro import build, named_config, plan_network

    cfg = named_config("16-28").with_frequency(100e6)
    run = plan_network(build("alexnet"), cfg, "adaptive-2")
    assert run.config.tout == 28


def test_machine_flow():
    from repro import CONFIG_16_16, Machine, build
    from repro.isa import compile_network

    program = compile_network(build("alexnet"), CONFIG_16_16, "adaptive-2")
    result = Machine(CONFIG_16_16).execute(program)
    assert result.total_cycles > 0


def test_errors_are_catchable_via_base():
    from repro import ReproError, build

    with pytest.raises(ReproError):
        build("resnet")


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    import importlib
    import pkgutil

    import repro

    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    assert "repro.nn.zoo" in {p.__name__ for p in packages}
    for package in packages:
        for name in getattr(package, "__all__", ()):
            assert getattr(package, name) is not None, (package.__name__, name)


def test_a_module_import_loads_only_the_packages_it_needs():
    """A package ``__init__`` re-exports only what its callers import, so
    importing one module loads only the packages that module needs."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"

    def loaded_after(statement):
        code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=300,
        )
        return result.stdout.split()

    loaded = loaded_after("from repro.analysis.headline import headline_numbers")
    analysis = [
        m for m in loaded if m.startswith(("repro.analysis", "repro.baselines"))
    ]
    assert analysis == [
        "repro.analysis", "repro.analysis.headline", "repro.analysis.metrics"
    ]
    stacks = tuple(
        f"repro.{name}"
        for name in ("control", "capacity", "tenancy", "resilience", "cluster",
                     "integrity", "analysis")
    )
    loaded = loaded_after("import repro.serve")
    assert "repro.serve.engine" in loaded
    assert [m for m in loaded if m.startswith(stacks)] == []
