"""Surface guard: every public top-level name of the package is read
somewhere in the package or the benchmark, and every private one in its
own module, so code that only tests reach does not pile up in ``src``. An
AST walk over the sources, no imports.

A read is qualified by its module: ``rx.matched_filter`` after
``from . import rxchain as rx`` reads ``rxchain.matched_filter``, a bare
``shaping_taps`` after ``from .waveform import shaping_taps`` reads
``waveform.shaping_taps``, and a bare name defined in the module itself
reads that module's name. The attribute strings the benchmark's trace
tables (``LAYERS`` and ``ROOTS`` in ``perfbench/spans.py``) wrap count as
reads of the module they are looked up in.

Likewise every defaulted parameter of a function in ``src`` is passed, by
keyword or by position, by some call in ``src/`` or ``perfbench/``, so a
value only tests set does not stay a parameter. A call counts by the
callee's final name (``rx.decode_suboptimal(...)`` and
``decode_suboptimal(...)`` alike), and a method's positions skip
``self``.
"""

import ast
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "chaosmodem")
BENCH = os.path.join(ROOT, "perfbench")

# public names that stay although nothing in src/ or perfbench/ reads them
ALLOWED = {
    "waveform.simulate_hybrid": "A2's independent construction of the "
                                "waveform, compared with the superposition",
    "theory.R_PEAK": "the closed-form response peak r(0) the module "
                     "docstring quotes, checked against A3's table",
}

# defaulted parameters that stay although no call in src/ or perfbench/
# passes them
ALLOWED_UNSET = {
    "cli.main.argv": "the console entry reads sys.argv, and tests pass argv",
}


def _trees(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _top_level(tree):
    """Names a module binds at top level, by definition or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _public(tree):
    """Names a module binds at top level without a leading underscore."""
    return (n for n in _top_level(tree) if not n.startswith("_"))


def _imports(tree, in_package):
    """(module aliases, imported names) of one file: local name -> package
    module, and local name -> 'module.name'."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if in_package and node.level == 1:
            source = "chaosmodem" + ("." + source if source else "")
        if source == "chaosmodem":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif source.startswith("chaosmodem."):
            names.update((a.asname or a.name, f"{source[11:]}.{a.name}")
                         for a in node.names)
    return modules, names


def _reads(module, tree, in_package):
    """The qualified names one file reads."""
    modules, names = _imports(tree, in_package)
    own = set(_public(tree)) if in_package else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names:
                yield names[node.id]
            elif node.id in own:
                yield f"{module}.{node.id}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield f"{modules[node.value.id]}.{node.attr}"
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("LAYERS", "ROOTS")):
            for row in node.value.elts:
                yield f"{modules[row.elts[0].id]}.{row.elts[1].value}"


def test_every_public_name_is_read():
    defined, reads, reexports = set(), set(), {}
    for module, tree in _trees(PACKAGE):
        defined.update(f"{module}.{name}" for name in _public(tree))
        reads.update(_reads(module, tree, True))
        for local, source in _imports(tree, True)[1].items():
            reexports[f"{module}.{local}"] = source
    for module, tree in _trees(BENCH):
        reads.update(_reads(module, tree, False))
    # a read through a module that imported the name reads its source
    reads = {reexports.get(q, q) for q in reads}
    unread = defined - reads
    assert unread == set(ALLOWED), (
        f"read nowhere in src/ or perfbench/: {sorted(unread - set(ALLOWED))}; "
        f"allowed but now read: {sorted(set(ALLOWED) - unread)}")


def test_every_private_name_is_read_in_its_module():
    unread = []
    for module, tree in _trees(PACKAGE):
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}.{name}" for name in _top_level(tree)
                   if name.startswith("_") and not name.startswith("__")
                   and name not in loads]
    assert not unread, f"private names their own module never reads: {unread}"


def _functions(node, prefix="", in_class=False):
    """(qualified name, definition, is a method) of every function under
    ``node``, nested ones and methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield prefix + child.name, child, in_class
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        else:
            yield from _functions(child, prefix, in_class)


def _defaulted(fn, method):
    """(parameter, position in a call, None if keyword-only) of each
    defaulted parameter of one definition; a method's positions skip
    ``self``."""
    skip = method and not any(getattr(d, "id", None) == "staticmethod"
                              for d in fn.decorator_list)
    params = fn.args.posonlyargs + fn.args.args
    for i in range(len(params) - len(fn.args.defaults), len(params)):
        yield params[i].arg, i - skip
    for param, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield param.arg, None


def _passed(trees):
    """(final callee name -> keywords passed, -> most positions passed)
    over every call in ``trees``; ``**`` passes every keyword and ``*``
    every position."""
    keywords, positions = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords.setdefault(name, set()).update(
                k.arg or "**" for k in node.keywords)
            n = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            positions[name] = max(positions.get(name, 0), n)
    return keywords, positions


def test_every_defaulted_parameter_is_set():
    package = list(_trees(PACKAGE))
    keywords, positions = _passed(
        [tree for _, tree in package] + [tree for _, tree in _trees(BENCH)])
    unset = set()
    for module, tree in package:
        for qualname, fn, method in _functions(tree):
            passed = keywords.get(fn.name, set())
            for param, pos in _defaulted(fn, method):
                if not (param in passed or "**" in passed or (
                        pos is not None and positions.get(fn.name, 0) > pos)):
                    unset.add(f"{module}.{qualname}.{param}")
    assert unset == set(ALLOWED_UNSET), (
        f"defaulted parameters no call in src/ or perfbench/ passes: "
        f"{sorted(unset - set(ALLOWED_UNSET))}; allowed but now passed: "
        f"{sorted(set(ALLOWED_UNSET) - unset)}")
