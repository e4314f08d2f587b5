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
