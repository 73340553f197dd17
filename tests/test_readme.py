"""The README's Python example runs and shows the values it states."""

import ast
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _example_values() -> dict[str, object]:
    """Run the one ```python block; map each expression line to its value."""
    blocks, block = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```python"):
            block = []
        elif line.startswith("```") and block is not None:
            blocks.append("\n".join(block))
            block = None
        elif block is not None:
            block.append(line)
    [source] = blocks
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    return values


def test_readme_example_states_its_values():
    values = _example_values()
    np.testing.assert_allclose(values["stationary_closed_form(p, (1,)).pi"],
                               [0.4, 0.4, 0.2], rtol=1e-12)
    assert values["policy_profit(p, (1,))"] == pytest.approx(3.86, abs=5e-3)
    np.testing.assert_allclose(values["perturbation_factors(p, (1,)).prf"],
                               [-3.22], atol=5e-3)
    assert values['optimize(p, "full").best_policy'] == (1,)
    assert values["threshold_scan(p).theta_star"] == 1
