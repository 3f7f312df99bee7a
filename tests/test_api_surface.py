"""Ratchet on the library's surface: a public module-level function or class
of ``src/dunkl`` must be used inside the package, or be listed here, and a
private module-level function, class or constant must be referenced inside
the package beyond its own definition.

A use is any reference by name or attribute; its definition, an import and
an ``__all__`` entry are not uses.  A name that only tests call belongs in
the tests, as a test-local reference; a private name nothing reads is dead
code, such as a helper or block size that a refactor left behind.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dunkl"

#: the README's "Library surface" section
README_SURFACE = (
    "rootsystem", "RootSystemA", "KernelValue", "Kernel", "RatioReport",
    "spherical_exact", "spherical_envelope", "certify_ratio",
    "heat_exact", "heat_envelope", "heat_mass", "certify_heat_ratio",
    "newton_exact", "newton_envelope_d3", "certify_newton_ratio",
    "stable_exact", "subordinator_density", "subordinator_inversion",
    "certify_stable_ratio", "prop_In",
)
#: the identities that verify the kernels
IDENTITY_CHECKS = (
    "generator_check", "chapman_kolmogorov_check", "parabolic_rescale_residual",
    "homogeneity_residual", "stable_scaling_residual", "stable_mass",
    "subordinator_bounds_check",
)
#: what the benchmark (perfbench/) imports or traces
BENCHMARK_NAMES = (
    "spherical_row", "heat_row", "newton_row", "stable_row", "certify_ratio",
    "certify_heat_ratio", "certify_newton_ratio", "certify_stable_ratio",
    "pairing_sweep_grid", "heat_sweep_grid", "newton_sweep_grid",
    "stable_sweep_grid", "read_csv_report", "write_csv", "SweepConfig",
    "spherical_log", "spherical_oracle_k1", "default_node_plan", "heat_log",
    "heat_log_for_times", "heat_mass", "newton_log", "stable_log",
    "subordinator_log_density", "chamber_heat_integral", "sweep_claim",
    "build_ratio_report", "level_nodes", "logsumexp", "exp_weighted_log_integral",
)
ALLOWED = frozenset(README_SURFACE + IDENTITY_CHECKS + BENCHMARK_NAMES)


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _public_definitions(modules):
    """(module, name) of every public module-level function and class."""
    return [(mod, node.name) for mod, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _defined_names(modules):
    """Every name bound at module level: definitions and assignments."""
    names = set()
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _used_names(modules):
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_definition_is_used_or_listed():
    modules = _modules()
    used = _used_names(modules)
    unused = [f"{mod}.{name}" for mod, name in _public_definitions(modules)
              if name not in used and name not in ALLOWED]
    assert not unused, (
        f"public names no kernel, CLI command or selftest check uses: {unused}; "
        "move each into the tests that call it, or list it here with its reason")


def test_listed_names_exist():
    # a deleted name leaves the list too
    assert not sorted(ALLOWED - _defined_names(_modules()))


def _private_definitions(modules):
    """(module, name, node) of every private module-level function, class and
    constant (dunder names aside), node the statement that defines it."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            yield from ((mod, name, node) for name in names
                        if name.startswith("_") and not name.startswith("__"))


def test_every_private_definition_is_referenced():
    modules = _modules()
    reads = {}  # name -> the nodes that read it: loads by name, and attributes
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    unreferenced = []
    for mod, name, definition in _private_definitions(modules):
        own = {id(node) for node in ast.walk(definition)}
        if all(id(node) in own for node in reads.get(name, ())):
            unreferenced.append(f"{mod}.{name}")
    assert not unreferenced, (
        f"private names nothing in src/dunkl reads beyond their own definition: "
        f"{unreferenced}; delete them")
