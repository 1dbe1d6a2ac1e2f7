"""Source rules of the library: explicit exceptions, Fraction only in tests,
no unused imports, and no top-level name that only tests reach.

An ``assert`` disappears under ``python -O``, so invariants raise instead,
and they raise a named exception rather than ``AssertionError``, or a
bare ``RuntimeError`` or ``Exception``, which the command line would
not report as a failed check (exactlinalg.VerificationFailed is the
base of those).
Fraction arithmetic lives in tests/fraction_oracles.py as a reference;
the library computes in integers only.  A name a module imports and never
uses is dead weight; ``from __future__`` imports and names the module
re-exports through ``__all__`` (as ``__init__.py`` does) are exempt.
A top-level name that no library module reads (``__all__`` aside) serves
no command: it goes, or moves into tests/ as a check or an oracle.  The
imports of ``__init__.py`` are the package surface, not reads, so a
re-export alone does not keep a name.  Dunders are exempt, and
UNREAD_ALLOWED keeps a few public entry points.
The same holds for the fields, methods and properties of library
classes: a member whose name no library module reads as an attribute
goes, unless MEMBER_UNREAD_ALLOWED keeps it.  Orders become names and
unimodular maps in one place: equivalence.py is the only module that
calls unimodular_map, _least_orders, _witnesses, normal_form or
edge_form (EQUIVALENCE_ONLY); the others name configurations through its
RowSet and symmetries.  An ordered empty tetrahedron has one key,
emptytetra._ordered_key, read in the frame of its first facet: outside
emptytetra.py only classify6._cap_frame, which memoizes the cap rule's
frames, calls _facet_frame (FRAME_CALLERS).  A configuration's
quadruple volumes are computed once, by PointConfig.volumes(), and
every other determinant of
configuration points is read off them: in the library, det4 is called
only by quad_volumes, quad_volumes only by PointConfig.volumes, and
det3 only inside exactlinalg.py.  A volume table is set only by
PointConfig's own methods (volumes, and _extended, which evaluates a
polytope.Extension): no other code assigns _volumes.
A case's candidates, rejections and survivors are kept in one record: in
classify6.py, a Counter is constructed only inside the _Funnel class.
A case decides "exactly six lattice points" by one size argument: in
classify6.py, size and hull_summary are called only from HULL_COUNTERS.
The cap rule reads each cap in its facet's unimodular frame: no function
of CAP_PATH calls det4.  Replaced kernels, such as the tests that the
frame kernels replaced, are test oracles: no library module defines
REPLACED_KERNELS.
"""

import ast
from pathlib import Path

import lattice6

SOURCES = sorted(Path(lattice6.__file__).parent.glob("*.py"))

#: Top-level names kept in the library although no library module reads them.
UNREAD_ALLOWED = {
    "polytope.hull_facets": "the facet entry point; hull_summary reads the planes off its own placing",
    "size5.classify5": "the size-5 entry point with its size and dimension gates",
    "classify6.width1_family": "the width-one constructors; the width-one identification will call them",
    "classify6.identify": "the row-naming entry point; the library names rows through _class_rows",
}

#: Class members kept in the library although no library module reads them.
MEMBER_UNREAD_ALLOWED = {}


#: Exceptions the library does not raise: an invariant's failure is named.
UNNAMED_FAILURES = {"AssertionError", "RuntimeError", "Exception"}


def _raised_name(exc):
    """Name of the exception class in ``raise X`` or ``raise X(...)``."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


def _unused_imports(path):
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.asname or a.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported.setdefault(a.asname or a.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for name, lineno in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            yield f"{path.name}:{lineno}: imports {name} and never uses it"


def _violations(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif isinstance(node, ast.Raise) and _raised_name(node.exc) in UNNAMED_FAILURES:
            yield f"{path.name}:{node.lineno}: raises {_raised_name(node.exc)}"
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                yield f"{path.name}:{node.lineno}: imports fractions"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "fractions":
                yield f"{path.name}:{node.lineno}: imports fractions"


def test_library_has_no_assert_and_no_fractions():
    assert SOURCES, "no library sources found"
    found = [v for path in SOURCES for v in _violations(path)]
    assert not found, "\n".join(found)


def test_library_has_no_unused_imports():
    found = [v for path in SOURCES for v in _unused_imports(path)]
    assert not found, "\n".join(found)


def test_raising_assertion_error_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    if x:\n        raise AssertionError('x')\n"
                    "    raise AssertionError\n", encoding="utf-8")
    assert sorted(_violations(path)) == ["sample.py:3: raises AssertionError",
                                       "sample.py:4: raises AssertionError"]


def test_raising_runtime_error_or_exception_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(x):\n    if x:\n        raise RuntimeError('x')\n"
                    "    if x < 0:\n        raise Exception\n"
                    "    raise ValueError(x)\n", encoding="utf-8")
    assert sorted(_violations(path)) == ["sample.py:3: raises RuntimeError",
                                       "sample.py:5: raises Exception"]


def test_unused_import_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "import sys as system\n"
                    "from typing import Dict, List, Tuple\n"
                    "__all__ = ['Tuple']\n"
                    "def f(x: List[int]):\n"
                    "    return system.argv\n", encoding="utf-8")
    assert list(_unused_imports(path)) == ["sample.py:2: imports os and never uses it",
                                           "sample.py:4: imports Dict and never uses it"]


def _defined_names(stmt):
    """Names a top-level statement defines, dunders excluded."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _unread_definitions(paths):
    """Top-level names of the modules in paths that none of them reads.

    Module m reads its own name n as a bare n outside n's definition;
    another module reads it by ``from .m import n`` or, after
    ``from . import m``, as ``m.n`` (so ``cell.n`` does not count).  The
    imports of ``__init__`` re-export the package surface and read nothing.
    """
    defined, read = {}, set()
    for path in paths:
        mod, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))
        own, modules = {}, {}
        for stmt in tree.body:
            for name in _defined_names(stmt):
                defined[mod, name] = stmt.lineno
                own.update((id(node), name) for node in ast.walk(stmt))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if own.get(id(node)) != node.id:
                    read.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level and mod != "__init__":
                for a in node.names:
                    if node.module:
                        read.add((node.module, a.name))
                    else:
                        modules[a.asname or a.name] = a.name
        read.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    for (mod, name), lineno in sorted(defined.items(), key=lambda item: (item[0][0], item[1])):
        if (mod, name) not in read:
            yield f"{mod}.py:{lineno}: defines {name} and no library module reads it"


def test_library_defines_nothing_only_tests_read():
    """Every top-level name is read in the library or allowlisted, and
    every allowlisted name is still unread."""
    unread = {}
    for v in _unread_definitions(SOURCES):
        where, _, name = v.split()[:3]  # "classify6.py:12:", "defines", name
        unread[f"{where.split('.')[0]}.{name}"] = v
    assert sorted(unread) == sorted(UNREAD_ALLOWED), "\n".join(unread.values())


def test_unread_definition_is_a_violation(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "__version__ = '1'\nLIMIT = 3\n"
        "def area(x):\n    return area(x - 1) if x > LIMIT else x\n"
        "def countdown(x):\n    return countdown(x - 1) if x else 0\n"
        "def volume(x):\n    return x\n"
        "class Cell:\n    vertices = 4\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text(
        "from .shapes import Cell\nfrom . import shapes\n"
        "def main(cell: Cell):\n    return shapes.area(cell.vertices) + cell.volume\n",
        encoding="utf-8")
    assert list(_unread_definitions(sorted(tmp_path.glob("*.py")))) == [
        "cli.py:3: defines main and no library module reads it",
        "shapes.py:5: defines countdown and no library module reads it",
        "shapes.py:7: defines volume and no library module reads it"]


def test_name_only_init_reexports_is_a_violation(tmp_path):
    (tmp_path / "shapes.py").write_text("def area(x):\n    return x\ndef volume(x):\n    return x\n",
                                        encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .shapes import area, volume\n"
                                          "__all__ = ['area', 'volume']\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text("from .shapes import area\n", encoding="utf-8")
    assert list(_unread_definitions(sorted(tmp_path.glob("*.py")))) == [
        "shapes.py:3: defines volume and no library module reads it"]


def _unread_members(paths):
    """Fields, methods and properties of the top-level classes of the
    modules in paths whose name none of them reads as an attribute
    (``x.name`` in a load), dunders excluded."""
    members, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += [(path.stem, cls.name, name, stmt.lineno)
                            for stmt in cls.body for name in _defined_names(stmt)]
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    for mod, cls, name, lineno in members:
        if name not in read:
            yield f"{mod}.py:{lineno}: {cls}.{name} is read by no library module"


def test_library_classes_have_no_member_only_tests_read():
    """Every class member is read in the library or allowlisted, and every
    allowlisted member is still unread."""
    unread = {}
    for v in _unread_members(SOURCES):
        where, member = v.split()[:2]  # "size5.py:48:", "Size5Class.width"
        unread[f"{where.split('.')[0]}.{member}"] = v
    assert sorted(unread) == sorted(MEMBER_UNREAD_ALLOWED), "\n".join(unread.values())


def test_unread_member_is_a_violation(tmp_path):
    (tmp_path / "shapes.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Cell:\n    __slots__ = ()\n    size: int\n    spare: int = 0\n"
        "    def area(self):\n        return self.size\n"
        "    @property\n    def volume(self):\n        return 0\n"
        "    def __len__(self):\n        return 1\n", encoding="utf-8")
    (tmp_path / "cli.py").write_text(
        "from .shapes import Cell\n"
        "def main(cell: Cell):\n    cell.spare = 1\n    return cell.area()\n",
        encoding="utf-8")
    assert list(_unread_members(sorted(tmp_path.glob("*.py")))) == [
        "shapes.py:6: Cell.spare is read by no library module",
        "shapes.py:10: Cell.volume is read by no library module"]


def _calls(path, callee):
    """Calls of callee, as a bare name or an attribute, in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                yield f"{path.name}:{node.lineno}: calls {callee}"


#: The functions that turn orders into names and maps, called only
#: inside equivalence.py.
EQUIVALENCE_ONLY = ("unimodular_map", "_least_orders", "_witnesses", "normal_form", "edge_form")


def test_only_equivalence_solves_unimodular_maps():
    found = [v for path in SOURCES if path.name != "equivalence.py"
             for callee in EQUIVALENCE_ONLY for v in _calls(path, callee)]
    assert not found, "\n".join(found)


def test_unimodular_map_call_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import exactlinalg\nfrom .exactlinalg import unimodular_map\n"
                    "def f(a, b):\n    return unimodular_map(a, b) or exactlinalg.unimodular_map(b, a)\n",
                    encoding="utf-8")
    assert list(_calls(path, "unimodular_map")) == ["sample.py:4: calls unimodular_map",
                                                    "sample.py:4: calls unimodular_map"]


def test_key_order_call_outside_equivalence_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import equivalence\n"
                    "from .equivalence import _least_orders, _witnesses, normal_form\n"
                    "def named(a, rep):\n    _, orders = _least_orders(a, a.top_volume())\n"
                    "    if normal_form(a) != equivalence.normal_form(rep):\n"
                    "        return None\n"
                    "    return next(_witnesses(a, orders[0], rep, orders), None)\n",
                    encoding="utf-8")
    assert [v for callee in EQUIVALENCE_ONLY for v in _calls(path, callee)] == [
        "sample.py:4: calls _least_orders", "sample.py:7: calls _witnesses",
        "sample.py:5: calls normal_form", "sample.py:5: calls normal_form"]


def test_edge_form_call_outside_equivalence_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import exactlinalg\nfrom .exactlinalg import edge_form\n"
                    "def same(a, b):\n    return edge_form(a) == exactlinalg.edge_form(b)\n",
                    encoding="utf-8")
    assert [v for callee in EQUIVALENCE_ONLY for v in _calls(path, callee)] == [
        "sample.py:4: calls edge_form", "sample.py:4: calls edge_form"]


#: The one function outside emptytetra.py, per module, that reads a facet
#: frame itself: the cap rule's memoized frames.  Every other reader takes
#: the key of an ordered tetrahedron (emptytetra._ordered_key).
FRAME_CALLERS = {"classify6.py": "_cap_frame"}


def _frames_outside(path):
    """Calls of _facet_frame, as a bare name or an attribute, in path
    outside its module's function in FRAME_CALLERS."""
    allowed = FRAME_CALLERS.get(path.name)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed for node in ast.walk(fn)}
    return [f"{path.name}:{node.lineno}: calls _facet_frame" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "_facet_frame"]


def test_only_the_cap_frame_calls_the_facet_frame():
    found = [v for path in SOURCES if path.name != "emptytetra.py" for v in _frames_outside(path)]
    assert not found, "\n".join(found)


def test_facet_frame_call_outside_the_cap_frame_is_a_violation(tmp_path):
    source = ("from . import emptytetra\nfrom .emptytetra import _facet_frame\n"
              "def _cap_frame(a, b, c):\n    return _facet_frame(a, b, c)\n"
              "def _cells_empty(a, b, c):\n    return emptytetra._facet_frame(a, b, c)\n")
    for name in ("classify6.py", "polytope.py"):
        (tmp_path / name).write_text(source, encoding="utf-8")
    assert _frames_outside(tmp_path / "classify6.py") == ["classify6.py:6: calls _facet_frame"]
    assert _frames_outside(tmp_path / "polytope.py") == ["polytope.py:4: calls _facet_frame",
                                                         "polytope.py:6: calls _facet_frame"]


def test_only_exactlinalg_computes_det3():
    """det3 is exactlinalg's kernel, for the matrices of affine maps; a
    determinant of configuration points elsewhere is a table entry."""
    found = [v for path in SOURCES if path.name != "exactlinalg.py" for v in _calls(path, "det3")]
    assert not found, "\n".join(found)


#: The one caller of each determinant kernel: every det4 of configuration
#: points is a volume of PointConfig.volumes(), or read off those volumes.
DETERMINANT_CALLERS = {"det4": "quad_volumes", "quad_volumes": "PointConfig.volumes"}


def _volume_passes(path):
    """Calls of det4 or quad_volumes, as a bare name or an attribute, in
    path outside their one caller in DETERMINANT_CALLERS (a top-level
    function, or a method named Class.method)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    owner = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            defs = [(stmt.name, stmt)]
        elif isinstance(stmt, ast.ClassDef):
            defs = [(f"{stmt.name}.{fn.name}", fn) for fn in stmt.body
                    if isinstance(fn, ast.FunctionDef)]
        else:
            defs = []
        for name, fn in defs:
            owner.update((id(node), name) for node in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            caller = DETERMINANT_CALLERS.get(name)
            if caller is not None and owner.get(id(node)) != caller:
                found.append((node.lineno, f"{path.name}:{node.lineno}: calls {name} outside {caller}"))
    return [message for _, message in sorted(found)]


def test_only_point_config_computes_its_volumes():
    found = [v for path in SOURCES for v in _volume_passes(path)]
    assert not found, "\n".join(found)


def test_quad_volumes_of_config_points_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import exactlinalg\nfrom .exactlinalg import det4, quad_volumes\n"
                    "class PointConfig:\n    def volumes(self):\n"
                    "        return quad_volumes(self.points)\n"
                    "def chirotope(points):\n    return quad_volumes(points)\n"
                    "def width(config):\n    return quad_volumes(config.points)\n"
                    "def circuits(cfg):\n    return exactlinalg.quad_volumes(cfg.points)\n"
                    "def normal_form(config):\n    pts = config.points\n"
                    "    return quad_volumes(pts)\n"
                    "def quad_volumes(points):\n    return [det4(*points)]\n"
                    "def _swap_key(back):\n    return exactlinalg.det4(*back)\n",
                    encoding="utf-8")
    assert _volume_passes(path) == ["sample.py:7: calls quad_volumes outside PointConfig.volumes",
                                    "sample.py:9: calls quad_volumes outside PointConfig.volumes",
                                    "sample.py:11: calls quad_volumes outside PointConfig.volumes",
                                    "sample.py:14: calls quad_volumes outside PointConfig.volumes",
                                    "sample.py:18: calls det4 outside quad_volumes"]


def _volume_assignments(path, owner="PointConfig"):
    """Assignments of a _volumes attribute in path, as an assignment target
    (x._volumes = ...) or by name (setattr or __setattr__ with the string
    "_volumes"), outside the methods of the class owner."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    inside = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == owner
              for fn in cls.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
    lines = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "_volumes"
                   for target in targets for t in ast.walk(target)):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("setattr", "__setattr__") and any(
                    isinstance(arg, ast.Constant) and arg.value == "_volumes" for arg in node.args):
                lines.add(node.lineno)
    return [f"{path.name}:{lineno}: assigns _volumes outside {owner}" for lineno in sorted(lines)]


def test_only_point_config_sets_its_volume_table():
    found = [v for path in SOURCES for v in _volume_assignments(path)]
    assert not found, "\n".join(found)


def test_volume_table_assignment_outside_point_config_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class PointConfig:\n    def volumes(self):\n        self._volumes = ()\n"
                    "        object.__setattr__(self, '_volumes', ())\n"
                    "    _volumes = None\n"
                    "def extend(cfg, vols):\n    cfg._volumes = vols\n"
                    "    setattr(cfg, '_volumes', vols)\n"
                    "    object.__setattr__(cfg, '_volumes', vols)\n"
                    "    cfg.points, cfg._volumes = (), vols\n"
                    "    return cfg._volumes\n", encoding="utf-8")
    assert _volume_assignments(path) == ["sample.py:7: assigns _volumes outside PointConfig",
                                         "sample.py:8: assigns _volumes outside PointConfig",
                                         "sample.py:9: assigns _volumes outside PointConfig",
                                         "sample.py:10: assigns _volumes outside PointConfig"]


def _counters_outside(path, owner):
    """Calls of Counter, as a bare name or an attribute, outside the class
    owner in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == owner
              for node in ast.walk(cls)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in inside
                   and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "Counter")
    return [f"{path.name}:{lineno}: constructs a Counter outside {owner}" for lineno in lines]


def test_only_the_funnel_counts_in_classify6():
    path = next(path for path in SOURCES if path.name == "classify6.py")
    found = _counters_outside(path, "_Funnel")
    assert not found, "\n".join(found)


def test_counter_outside_the_funnel_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import collections\nfrom collections import Counter\n"
                    "class _Funnel:\n    def __init__(self):\n        self.rejected = Counter()\n"
                    "def run():\n    rejected: Counter = Counter()\n"
                    "    return rejected, collections.Counter()\n",
                    encoding="utf-8")
    assert _counters_outside(path, "_Funnel") == [
        "sample.py:7: constructs a Counter outside _Funnel",
        "sample.py:8: constructs a Counter outside _Funnel"]


#: The functions of classify6.py that may count the lattice points of a
#: hull, each with the reason: the cross-check of the cap rule, and the
#: function that counts the hull of a configuration no case runner built.
#: Case A decides its candidates with polytope.holds_only_its_points.
HULL_COUNTERS = {
    "_six_by_caps": "the cap rule's cross-check of cases B-H",
    "width1_family": "the construction check of a width-one family member",
}


def _hull_counts_outside(path, allowed):
    """Calls of size or hull_summary, as a bare name or an attribute, in
    path outside the top-level functions named in allowed."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("size", "hull_summary"):
                calls.append((node.lineno, name))
    return [f"{path.name}:{lineno}: calls {name} outside the size arguments"
            for lineno, name in sorted(calls)]


def test_only_the_size_arguments_count_hulls_in_classify6():
    path = next(path for path in SOURCES if path.name == "classify6.py")
    found = _hull_counts_outside(path, HULL_COUNTERS)
    assert not found, "\n".join(found)


def test_hull_count_outside_the_size_arguments_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import polytope\nfrom .polytope import hull_summary, size\n"
                    "def _six_by_caps(cfg):\n    return size(cfg) == 6\n"
                    "def run_case_d(cfg):\n    if size(cfg) > 6:\n        return None\n"
                    "    return hull_summary(cfg), polytope.size(cfg)\n",
                    encoding="utf-8")
    assert _hull_counts_outside(path, HULL_COUNTERS) == [
        "sample.py:6: calls size outside the size arguments",
        "sample.py:8: calls hull_summary outside the size arguments",
        "sample.py:8: calls size outside the size arguments"]


#: The functions of classify6.py that decide caps: their seen, empty and
#: interior-point tests read the new point in a facet frame, not det4.
CAP_PATH = ("_caps", "_cap_frame", "_six_by_caps", "_glued_verdict")

#: The names of replaced kernels, now oracles in tests/: the tests the
#: frame kernels of emptytetra.py replaced (emptytetra_oracles.py), and
#: the target shells of the width scan (width_oracles.py).
REPLACED_KERNELS = {"_EDGE_PAIRS", "_has_interior_point", "_shell"}


def _calls_inside(path, functions, callee):
    """Calls of callee, as a bare name or an attribute, inside the
    top-level functions of path named in functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno}: {fn.name} calls {callee}"
            for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in functions
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == callee]


def test_cap_path_computes_no_det4():
    path = next(path for path in SOURCES if path.name == "classify6.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert defined >= set(CAP_PATH)
    found = _calls_inside(path, CAP_PATH, "det4")
    assert not found, "\n".join(found)


def test_det4_call_in_the_cap_path_is_a_violation(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from . import exactlinalg\nfrom .exactlinalg import det4\n"
                    "def _caps(p):\n    return det4(*p) * exactlinalg.det4(*p)\n"
                    "def run_case_c(p):\n    return det4(*p)\n", encoding="utf-8")
    assert _calls_inside(path, CAP_PATH, "det4") == ["sample.py:4: _caps calls det4",
                                                     "sample.py:4: _caps calls det4"]


def test_replaced_kernels_are_not_in_the_library():
    found = [f"{path.name}:{stmt.lineno}: defines {name}"
             for path in SOURCES for stmt in ast.parse(path.read_text(encoding="utf-8")).body
             for name in _defined_names(stmt) if name in REPLACED_KERNELS]
    assert not found, "\n".join(found)
