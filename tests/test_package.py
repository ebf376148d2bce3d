import ast
import sys
from pathlib import Path

import isiecc

SRC = Path(isiecc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

PUBLIC = {
    "BatchCodec", "ChannelParams", "CodeSpec", "Codebook", "ExperimentConfig", "TrialReport",
    "bits_to_str", "build_codebook", "calibrate_threshold", "codeword_isi_bound", "decode",
    "density_profile", "design_for_rate", "detect", "detection_threshold", "encode",
    "expected_isi", "export_codebook_csv", "hitting_prob", "load_channel_config", "make_coder",
    "message_matrix", "parity_weight_cap", "parse_bits", "run_ber_experiment",
    "run_isi_experiment", "simulate_stream", "slot_law", "slot_probs", "swap_gain",
    "verify_min_distance", "write_report",
}


def test_public_names_pinned():
    # no submodule is exported, and any change to the package API shows up here
    assert set(isiecc.__all__) == PUBLIC


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    assert unused_imports("import math\nfrom x import a, b as c\nprint(a)\n") == ["math", "c"]


def test_no_orphaned_imports():
    # __init__.py imports to re-export; every other module and test file,
    # conftest.py included, imports only what it uses
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + [*TESTS.glob("*.py")]
    for path in sorted(paths):
        assert unused_imports(path.read_text()) == [], path.name


def imported_modules(source: str) -> list[tuple[int, str]]:
    """(relative level, module) of every import in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    return found


def test_imports_are_stdlib_numpy_or_siblings():
    # pyproject.toml declares numpy only, so nothing else may be imported
    siblings = {path.stem for path in SRC.glob("*.py")}
    for path in sorted(SRC.glob("*.py")):
        for level, module in imported_modules(path.read_text()):
            top = module.split(".")[0]
            if level:
                assert level == 1 and (top in siblings or not module), (path.name, module)
            else:
                assert top in sys.stdlib_module_names or top == "numpy", (path.name, module)


def test_channel_imports_no_package_module():
    # the channel model stands below the code modules; swap_gain lives in codec
    levels = [level for level, _ in imported_modules((SRC / "channel.py").read_text())]
    assert not any(levels)


def test_channel_calls_no_coder():
    # the harness encodes and decodes; the channel sees only transmitted bit streams
    tree = ast.parse((SRC / "channel.py").read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"encode", "decode", "message_len", "block_len"}


def test_import_graph_detects_a_foreign_import():
    assert imported_modules("import scipy.special\nfrom . import x\nfrom .codec import y\n") == [
        (0, "scipy.special"),
        (1, ""),
        (1, "codec"),
    ]
