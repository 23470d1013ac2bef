"""The dense oracle, ``netgraph.run_float_reference``, names none of the
packed engine it checks, so a fault in the engine cannot reach both sides.
The engine, in turn, takes the 8-bit range from ``bitcore.I8_MAX`` alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bitflow"

ENGINE = {
    "conv_fused", "conv_i8", "conv_i32", "staged_conv_i8", "threshold_bits",
    "apply_threshold", "pack_bitplanes", "pack_activations", "run_model",
    "run_vgg_block", "run_resnet_block", "saturate", "saturate_into", "clip_free",
    # the forms the engine prepares once from a block's kernel and thresholds
    "fuse_kernel", "fused", "kinv", "tile_plan", "i8_limits", "le",
}

# Functions that spell the clamp law's 127 themselves: the independent
# checkers, which must not take it from the code they check.
OWN_LITERALS = {"run_float_reference", "conv_sweep"}


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


def literal_127s(source: str) -> list:
    """Lines of numeric 127 literals outside the functions in OWN_LITERALS
    (a docstring or comment holds no numeric literal)."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in OWN_LITERALS:
            skip.update(id(n) for n in ast.walk(node))
    return [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value == 127
        and id(n) not in skip
    ]


def test_only_bitcore_spells_the_int8_range():
    found = {p.name: literal_127s(p.read_text()) for p in SRC.glob("*.py")}
    assert len(found.pop("bitcore.py")) == 1  # I8_MAX itself
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_literal_checker_sees_ints_and_floats_but_spares_the_checkers():
    source = (
        "def f(x):\n    return clip(x, -127.0, 127)\n"
        "def conv_sweep(x):\n    return clip(x, -127, 127)\n"
        'def g(x):\n    """Clamps to 127."""\n    return x  # not 127\n'
    )
    assert literal_127s(source) == [2, 2]
