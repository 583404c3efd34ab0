"""One import order: every ``repro`` package sits on a layer and imports
only from layers below its own.

The order follows the paper's build-up of Mermaid (Sections 3-4,
Fig 1): the Pearl kernel and the leaf vocabularies at the bottom, the
computational and communication models on them, the analyzers and
executors above, then the workbench, the job plans (``repro.plans``:
one table of job kinds that the service and the CLI both read, so
neither imports the other), the service, the paper's experiments and
the CLI on top.  The walk reads every import statement of every module under
``src/repro`` -- top-level, in a function, under ``TYPE_CHECKING`` and
``from .. import pkg`` -- so a lazy import cannot hide an edge.  The
package root (``repro/__init__``, ``repro/__main__``) sits above every
layer.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every top-level package or module of ``repro``, lowest layer first.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("store", "diagnostics", "operations", "pearl"),
    ("config", "observe", "tracegen"),
    ("compmodel", "topology"),
    ("commmodel",),
    ("analysis", "apps", "check", "faults", "hybrid", "machines",
     "sharedmem"),
    ("parallel", "vsm"),
    ("bounds", "chaos", "verify"),
    ("core",),
    ("plans",),
    ("service",),
    ("experiments",),
    ("cli",),
)

#: The one upward edge that remains, with why it is not cut yet.
ALLOWED: dict[tuple[str, str], str] = {
    ("commmodel", "faults"):
        "the network builds the fault injector and the reliable "
        "transport only when a fault plan is attached; the fault layer "
        "is a client of the network (message ids, links, routes), so "
        "the edge is a lazy call back into a consumer; cutting it means "
        "handing the network its injector and transport from above",
}

LAYER_OF = {pkg: n for n, layer in enumerate(LAYERS) for pkg in layer}


def package_of(module: str) -> str | None:
    """``repro.x.y`` -> ``x``; ``None`` for the root and for non-repro."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement of a block and of the blocks nested in it (an
    import is a statement, so expressions need no visit)."""
    for stmt in body:
        yield stmt
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from statements(getattr(stmt, block, []))


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, absolute module) of every import in one source file.  A
    ``from X import name`` also yields ``X.name``, so ``from .. import
    faults`` names the ``faults`` package."""
    package = list(path.relative_to(SRC).parts[:-1])
    found: list[tuple[int, str]] = []
    for node in statements(ast.parse(path.read_text(), str(path)).body):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[:len(package) - node.level + 1]
                stem = ".".join(base + ([node.module] if node.module else []))
            else:
                stem = node.module or ""
            found.append((node.lineno, stem))
            found += [(node.lineno, f"{stem}.{alias.name}")
                      for alias in node.names]
    return found


@functools.cache
def package_edges() -> dict[tuple[str, str], list[str]]:
    """(importer package, imported package) -> the import sites."""
    edges: dict[tuple[str, str], list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        src = package_of(module.removesuffix(".__init__"))
        if src in (None, "__main__"):
            continue
        for line, target in imported_modules(path):
            dst = package_of(target)
            if dst in (None, src):
                continue
            sites = edges.setdefault((src, dst), [])
            site = f"{path.relative_to(SRC)}:{line}"
            if site not in sites:
                sites.append(site)
    return edges


def test_every_package_has_a_layer():
    on_disk = {p.stem for p in (SRC / "repro").iterdir()
               if p.suffix == ".py" or (p / "__init__.py").exists()}
    on_disk -= {"__init__", "__main__"}
    assert on_disk == set(LAYER_OF)
    assert sum(map(len, LAYERS)) == len(LAYER_OF)


def test_imports_point_down_the_layer_order():
    edges = package_edges()
    unknown = sorted({dst for _, dst in edges} - set(LAYER_OF))
    assert not unknown, f"imports of modules that do not exist: {unknown}"
    upward = [f"{src} -> {dst}: {', '.join(sites)}"
              for (src, dst), sites in sorted(edges.items())
              if LAYER_OF[dst] >= LAYER_OF[src]
              and (src, dst) not in ALLOWED]
    assert not upward, ("imports that point to the same layer or up:\n"
                        + "\n".join(upward))


def test_every_allowed_edge_still_occurs():
    """An allowlist entry whose edge was cut goes, so the list only
    shrinks."""
    edges = package_edges()
    stale = [edge for edge in ALLOWED if edge not in edges]
    assert not stale, f"allowlisted edges no longer imported: {stale}"
    assert all(LAYER_OF[dst] >= LAYER_OF[src] for src, dst in ALLOWED)


#: What importing each entry loads, run in a fresh interpreter.
_PROBE = """
import json, sys
mods = {}
for name in sys.argv[1:]:
    before = set(sys.modules)
    __import__(name)
    mods[name] = sorted(set(sys.modules) - before)
    for m in mods[name]:
        if m.startswith("repro"):
            del sys.modules[m]
print(json.dumps(mods))
"""


def test_an_import_loads_only_what_it_stands_on():
    """``import repro.pearl`` is the kernel, not the workbench: the lazy
    package root loads nothing, a leaf loads no layer above it, and no
    leaf loads numpy (only trace-set ``.npz`` I/O uses it)."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, "repro.pearl", "repro.store",
         "repro.diagnostics", "repro.config"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    loaded = json.loads(proc.stdout)
    for leaf in loaded:
        assert not any(m == "numpy" or m.startswith("numpy.")
                       for m in loaded[leaf]), leaf
    for leaf in ("repro.pearl", "repro.store", "repro.diagnostics"):
        assert {package_of(m) for m in loaded[leaf]} <= {
            None, leaf.split(".")[1]}, (leaf, loaded[leaf])
    config_layer = LAYER_OF["config"]
    above = sorted(m for m in loaded["repro.config"]
                   if package_of(m) in LAYER_OF
                   and LAYER_OF[package_of(m)] >= config_layer
                   and package_of(m) != "config")
    assert not above, above
