import ast
from pathlib import Path

import dualcal

PACKAGE = Path(dualcal.__file__).parent


def test_no_private_name_crosses_a_module_boundary():
    # a `_`-prefixed name is its module's own; what another module needs
    # is public, or belongs in that module
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").startswith("dualcal"))):
                crossings += [f"{path.name}: {alias.name} from {node.module}"
                              for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_only_cli_serializes():
    # the library returns records in radians and meters; cli alone turns
    # them into the JSON of docs/formats.md
    serializers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "to_dict":
                serializers.append(f"{path.name}: def to_dict")
            elif isinstance(node, ast.ImportFrom):
                serializers += [f"{path.name}: imports asdict"
                                for alias in node.names if alias.name == "asdict"]
    assert serializers == []
