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
