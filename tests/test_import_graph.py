"""The package's own import graph: every import of one studyforge module by
another is a statement at module top level, and the graph has no cycle, so
no module needs a deferred import to load."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "studyforge"


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def package_graph(sources: dict[str, str]) -> tuple[dict[str, set[str]], list[str]]:
    """Module -> the modules it imports relatively (``from .x import ...``,
    ``from . import x``), and the ``module:line`` of every relative import
    that is not a top-level statement."""
    graph, nested = {}, []
    for module, source in sources.items():
        tree = ast.parse(source)
        graph[module] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module:
                graph[module].add(node.module.split(".")[0])
            else:
                graph[module].update(alias.name for alias in node.names)
            if node not in tree.body:
                nested.append(f"{module}:{node.lineno}")
    return graph, nested


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle as a closed path of modules, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return None
        path.append(module)
        for target in sorted(graph[module]):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_every_package_import_is_at_module_top_level():
    _, nested = package_graph(package_sources())
    assert nested == []


def test_package_import_graph_is_acyclic():
    graph, _ = package_graph(package_sources())
    assert find_cycle(graph) is None


class TestTheChecks:
    """The checks see what they look for."""

    def test_a_nested_import_is_named(self):
        graph, nested = package_graph({
            "a": "from .b import X\n"
                 "if TYPE_CHECKING:\n    from .c import Y\n"
                 "def f():\n    from . import d\n",
        })
        assert graph == {"a": {"b", "c", "d"}}
        assert nested == ["a:3", "a:5"]

    def test_a_cycle_is_found(self):
        graph, _ = package_graph({
            "a": "from .b import X\n",
            "b": "from . import c, errors\n",
            "c": "from .a.sub import Y\n",
            "d": "from .a import Z\n",
        })
        assert find_cycle(graph) == ["a", "b", "c", "a"]
        graph, _ = package_graph({"a": "from .b import X\n", "b": "from .errors import E\n"})
        assert find_cycle(graph) is None
