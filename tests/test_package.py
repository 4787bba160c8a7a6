import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import fvsde

MODULES = sorted(m.name for m in pkgutil.iter_modules(fvsde.__path__)
                 if m.name != "__main__")
PACKAGE = pathlib.Path(fvsde.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"fvsde.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"fvsde.{name}.__all__ names missing objects: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_are_defined_in_their_module(name):
    module = importlib.import_module(f"fvsde.{name}")
    objects = [getattr(module, n) for n in getattr(module, "__all__", ())]
    foreign = [obj.__qualname__ for obj in objects
               if (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ != module.__name__]
    assert not foreign, f"fvsde.{name}.__all__ re-exports {foreign}"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_read_outside_the_tests(name):
    # a read: another package module (not the __init__ re-export), the
    # module itself beyond its def/class line and its __all__ entry, the
    # README, or the benchmark scripts
    module = importlib.import_module(f"fvsde.{name}")
    own = re.sub(r"__all__ = \[.*?\]", "",
                 (PACKAGE / f"{name}.py").read_text(), flags=re.S)
    others = [p.read_text() for p in PACKAGE.glob("*.py")
              if p.stem not in (name, "__init__")]
    others.append((ROOT / "README.md").read_text())
    others += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    unread = []
    for export in getattr(module, "__all__", ()):
        word = rf"\b{re.escape(export)}\b"
        body = re.sub(rf"^(def|class) {word}.*$", "", own, flags=re.M)
        if not any(re.search(word, text) for text in [body] + others):
            unread.append(export)
    assert not unread, f"fvsde.{name}.__all__ names only tests read: {unread}"


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_private_name_of_another(name):
    # dunders such as __version__ are public by convention
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("fvsde"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, f"fvsde.{name} imports private names {private}"


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if m not in ("mesh", "discrete_ops")])
def test_only_mesh_and_discrete_ops_read_the_face_arrays(name):
    # the discrete norms and operators live in discrete_ops, so no other
    # module needs a face's cells or transmissibility
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    reads = sorted({node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("edge_cells", "transmissibilities")})
    assert not reads, f"fvsde.{name} reads the face arrays {reads}"


@pytest.mark.parametrize("name", [
    m for m in MODULES
    if m not in ("mesh", "discrete_ops", "scheme", "projections")])
def test_no_other_module_reads_the_cell_measures(name):
    # measure-weighted sums go through discrete_ops.integral; only the step
    # (scheme) and the flux right-hand side (projections) need m_K per cell
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert not any(isinstance(node, ast.Attribute) and node.attr == "measures"
                   for node in ast.walk(tree)), \
        f"fvsde.{name} reads mesh.measures"


def test_scheme_has_one_stepping_loop():
    # one path and a block, on either solver, step through the one Newton
    # loop of StepWorkspace.advance
    tree = ast.parse((PACKAGE / "scheme.py").read_text())
    stepping = [loop.lineno for loop in ast.walk(tree)
                if isinstance(loop, (ast.For, ast.While))
                and any(isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_implicit"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        for node in ast.walk(loop))]
    assert len(stepping) == 1, f"loops calling self._implicit: {stepping}"


def test_the_time_loop_lives_in_integrate_workspace():
    # no helper below integrate_workspace marches the steps for it
    tree = ast.parse((PACKAGE / "scheme.py").read_text())
    owners = [(getattr(top, "name", "<module>"), loop.lineno)
              for top in tree.body for loop in ast.walk(top)
              if isinstance(loop, (ast.For, ast.While))
              and any(isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "advance"
                      for node in ast.walk(loop))]
    assert [name for name, _ in owners] == ["integrate_workspace"], \
        f"loops calling .advance(, by enclosing definition: {owners}"


def test_no_module_has_a_global_statement():
    # a worker's state lives in its call, not in a module global
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements at {found}"


def test_readme_python_blocks_run_in_order(capsys):
    # the library examples share one namespace, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```",
                        (ROOT / "README.md").read_text(), flags=re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", ["discrete_ops", "mesh", "scheme"])
def test_operators_take_plain_arrays(name):
    # one representation per discrete quantity: a CellField is only returned
    # by the functions that sample a user function, never taken as input
    module = importlib.import_module(f"fvsde.{name}")
    public = []
    for key, obj in vars(module).items():
        if (key.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            public.append(obj)
        elif inspect.isclass(obj):
            public += [f for attr, f in vars(obj).items()
                       if inspect.isfunction(f)
                       and (attr == "__init__" or not attr.startswith("_"))]
    taking = [f.__qualname__ for f in public
              if any("CellField" in str(p.annotation)
                     for p in inspect.signature(f).parameters.values())]
    assert not taking, f"fvsde.{name} functions take a CellField: {taking}"


def test_the_fields_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("fvsde.fields")
