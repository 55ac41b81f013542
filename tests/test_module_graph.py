"""The module graph of the spectral code: one owner per decision.

``qwlab.fourier`` holds the eigenvector frames and the n-cube's convention
and imports nothing from ``qwlab.spectral``; ``qwlab.spectral`` imports it
at load time and alone chooses a walk's spectral route; ``qwlab.quotient``
leaves that choice, and the eigensolve's memory check, to the spectral
report.  A new route (an S_m or a dihedral frame, say) that brings back the
import cycle or a second copy of the decision fails here.  Every hitting-time
route reads its start in one form, the spec's D x k columns; a second body
for a vector or a density matrix fails here too.  The final indices have one
normalizer, ``spectral._final_array``; a second range check fails here.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import qwlab

SRC = pathlib.Path(qwlab.__file__).parent


def parsed(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def imports(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_fourier_loads_without_spectral():
    # qwlab's __init__ imports every module, so a bare package over the same
    # directory stands in for it: then only what fourier imports is loaded
    code = (
        "import sys, types\n"
        f"pkg = types.ModuleType('qwlab'); pkg.__path__ = [{str(SRC)!r}]\n"
        "sys.modules['qwlab'] = pkg\n"
        "import qwlab.fourier\n"
        "print(sorted(m for m in sys.modules if m.startswith('qwlab.')))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(run.stdout)
    assert "qwlab.fourier" in loaded and "qwlab.spectral" not in loaded


def test_fourier_names_no_spectral_import():
    for node in imports(parsed("fourier")):
        names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        assert not any(name.split(".")[-1] == "spectral" for name in names), ast.dump(node)


def test_spectral_imports_fourier_at_module_top_only():
    tree = parsed("spectral")
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports(tree) == top  # no import inside a function or an if block
    assert any(isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               and [a.name for a in node.names] == ["fourier"] for node in top)
    assert "TYPE_CHECKING" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_quotient_does_not_decide_the_spectral_route():
    tree = parsed("quotient")
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {a.name for node in imports(tree) for a in node.names}
    assert not named & {"_as_matrix", "_cube_coin", "_frame", "_split_stack"}
    (verdict,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "quotient_infinite_hitting"]
    assert not [node for node in ast.walk(verdict) if isinstance(node, ast.Try)]


@pytest.mark.parametrize("name, owner", [("_split_stack", "spectral"), ("_frame", "spectral"),
                                         ("_cube_coin", "fourier")])
def test_each_route_piece_has_one_module_and_one_binding(name, owner):
    defined, imported = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body):
            defined.append(path.stem)
        if any(a.name == name for node in imports(tree) for a in node.names):
            imported.append(path.stem)
    assert (defined, imported) == ([owner], [])


def test_the_closed_form_has_one_body_over_any_frame():
    # inside SpectralReport only ``route`` reads the frame's bits; the start
    # and A_r read neither W nor the walk, and the frame keeps U on its
    # chains in place of its blocks
    (report,) = [node for node in parsed("spectral").body
                 if isinstance(node, ast.ClassDef) and node.name == "SpectralReport"]
    methods = {node.name: node for node in report.body if isinstance(node, ast.FunctionDef)}
    attrs = {name: {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
             for name, fn in methods.items()}
    assert {name for name, read in attrs.items() if "bits" in read} == {"route"}
    for name in ("untrapped_start", "reduced_step"):
        assert not attrs[name] & {"bits", "untrapped", "walk"}, name
    (frame,) = [node for node in parsed("fourier").body if isinstance(node, ast.ClassDef) and node.name == "Frame"]
    fields = {node.target.id for node in frame.body if isinstance(node, ast.AnnAssign)}
    assert "blocks" not in fields and "chains" in fields


def readers(tree: ast.Module, attrs: set) -> set:
    """The top-level definitions of ``tree`` that read any of ``attrs``."""
    return {top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr in attrs}


def test_every_route_reads_the_start_in_one_form():
    # a start is read as its D x k columns: the spectral report never asks
    # whether it was a vector or a matrix, and only the spec itself and the
    # channel's density step read the vector or the density matrix
    spectral_tree = parsed("spectral")
    assert not [node for node in ast.walk(spectral_tree) if isinstance(node, ast.Attribute) and node.attr == "ndim"]
    hitting_tree, decoherence_tree = parsed("hitting"), parsed("decoherence")
    assert readers(hitting_tree, {"psi0", "rho0", "state"}) == {"MeasuredWalkSpec"}
    assert readers(decoherence_tree, {"psi0", "rho0", "state"}) == {"_density_hit_probabilities"}
    (steps,) = [node for node in hitting_tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_hit_probabilities"]
    assert [a.arg for a in steps.args.args + steps.args.kwonlyargs] == ["spec"]
    (report,) = [node for node in spectral_tree.body if isinstance(node, ast.ClassDef) and node.name == "SpectralReport"]
    assert "escape" not in {node.name for node in report.body if isinstance(node, ast.FunctionDef)}


def test_final_indices_are_range_checked_in_one_place():
    # every route reads the finals through spectral._final_array, which
    # sorts, deduplicates and range-checks them; no other module carries
    # its own copy of the check
    raisers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and "final index out of range" in node.value for node in ast.walk(top)):
                raisers.add((path.stem, getattr(top, "name", None)))
    assert raisers == {("spectral", "_final_array")}
