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
"""

import ast
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
