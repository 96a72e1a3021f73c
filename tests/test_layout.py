import ast
from pathlib import Path

import storedlight

ORACLE_NAMES = ("ModeBasis", "OccupationBasis", "TruncatedState", "build_fock_input", "gaussian_oracle",
                "homodyne_oracle", "oracle_distribution", "oracle_moments", "released_number_operator")

PRODUCTION_MODULES = ("mode_transform", "fock_interference", "gaussian_states", "homodyne", "cli")


def test_oracles_stay_off_the_production_path():
    # every exported oracle is defined in storedlight.oracles ...
    for name in ORACLE_NAMES:
        assert getattr(storedlight, name).__module__ == "storedlight.oracles", name
    # ... and no closed-form module or the CLI imports it
    package = Path(storedlight.__file__).parent
    for module in PRODUCTION_MODULES:
        imported = set()
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any(name.split(".")[-1] == "oracles" for name in imported), module


def test_the_count_route_has_one_entry_point():
    # the CLI's one remaining unit-overlap name is an alias of the general
    # distribution, bound for the benchmark's per-layer spans
    from storedlight import cli, fock_interference

    assert cli.release_distribution_unit_overlap is fock_interference.release_distribution
    assert not hasattr(fock_interference, "release_distribution_unit_overlap")
    assert not hasattr(storedlight.errors, "OverlapDomainError")
    assert "release_distribution_unit_overlap" not in storedlight.__all__


def test_the_oracles_build_their_own_transfer():
    # storedlight.oracles names no closed-form transfer builder and reads no
    # .transfer attribute; HomodyneConfig no longer offers one
    builders = {"build_transfer_matrix", "transfer_entries", "magnetic_phase_matrix", "magnetic_phase_entries"}
    source = (Path(storedlight.__file__).parent / "oracles.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            assert node.id not in builders, node.id
        elif isinstance(node, ast.Attribute):
            assert node.attr not in builders | {"transfer"}, node.attr
        elif isinstance(node, ast.alias):
            assert node.name not in builders, node.name
    assert not hasattr(storedlight.HomodyneConfig, "transfer")
