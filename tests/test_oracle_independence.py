"""The dense oracle, ``netgraph.run_float_reference``, names none of the
packed engine it checks, so a fault in the engine cannot reach both sides."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bitflow"

ENGINE = {
    "conv_fused", "conv_i8", "conv_i32", "staged_conv_i8", "threshold_bits",
    "apply_threshold", "pack_bitplanes", "pack_activations", "run_model",
    "run_vgg_block", "run_resnet_block",
}


def names_in_function(source: str, name: str) -> set:
    """Every name and attribute read inside the top-level function ``name``."""
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_float_reference_names_no_engine_code():
    names = names_in_function((SRC / "netgraph.py").read_text(), "run_float_reference")
    assert "conv_float_oracle" in names  # the walk reaches the body
    assert sorted(names & ENGINE) == []


def test_checker_sees_names_and_attributes():
    source = "def f(x):\n    return binconv.conv_i8(x) + run_model(x).values\n"
    assert names_in_function(source, "f") & ENGINE == {"conv_i8", "run_model"}
