#!/usr/bin/env python
"""Public-API import boundary check (PR 10).

External-facing code — the CLI and the experiment drivers — should talk
to the stack through :mod:`repro.api` (the ``Client`` facade and the
typed serving boundary), not construct engines from the internals.
This script AST-scans ``src/repro/cli.py`` and
``src/repro/experiments/*.py`` for imports of engine internals:

* ``repro.query.engine`` / ``repro.query.standing`` — batch and
  standing engine construction;
* ``repro.shard`` — sharded / process-parallel store construction;
* ``QueryEngine`` re-exported through ``repro.query``.

Pre-existing offenders are **grandfathered** (listed below) and only
warn — they predate the facade and migrate opportunistically.  Any NEW
violation fails the lint (exit 1): new code starts on the public
surface.  So does a grandfathered entry that matches no import any
more: the list only shrinks, and a migrated import leaves it.

A second rule keeps the layering one-way: nothing under
``src/repro/query/`` or ``src/repro/telemetry/`` imports ``repro.shard``
— the shard layer builds on the query engine and the store, never the
reverse.  It has no grandfather list.

Run from the repository root: ``python tools/check_api_imports.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: module prefixes that are engine internals (dotted-prefix match)
FORBIDDEN_PREFIXES = (
    "repro.query.engine",
    "repro.query.standing",
    "repro.shard",
)

#: names that are internals even when imported off the package root
FORBIDDEN_FROM_QUERY = frozenset({"QueryEngine"})

#: (path relative to src/, forbidden module) pairs that predate the
#: repro.api facade — these warn instead of failing.  An entry that
#: matches no import fails the lint, so the list shrinks as imports
#: migrate
GRANDFATHERED = {
    ("repro/experiments/loops_exp.py", "repro.query.engine"),
    ("repro/experiments/obs_exp.py", "repro.query"),
    ("repro/experiments/obs_exp.py", "repro.query.standing"),
    ("repro/experiments/parallel_exp.py", "repro.shard"),
    # was the sharded engine, imported from repro.shard; E18 builds it
    # over bare stores and pins its INLINE_SCATTER_SERIES
    ("repro/experiments/parallel_exp.py", "repro.query.engine"),
    # the store's own downsample helper is gone; E1 and E10 time the
    # engine's binned mean over a bare store, which no facade builds
    ("repro/experiments/pipeline_exp.py", "repro.query.engine"),
    ("repro/experiments/query_exp.py", "repro.query.engine"),
    ("repro/experiments/shard_exp.py", "repro.query.engine"),
    ("repro/experiments/shard_exp.py", "repro.query.standing"),
    ("repro/experiments/shard_exp.py", "repro.shard"),
    ("repro/experiments/standing_exp.py", "repro.query"),
    ("repro/experiments/standing_exp.py", "repro.query.standing"),
    ("repro/experiments/tsdb_exp.py", "repro.query.engine"),
}

#: packages (paths relative to src/) that must not import LOWER_FORBIDDEN
LOWER_LAYERS = ("repro/query", "repro/telemetry")
LOWER_FORBIDDEN = "repro.shard"


def _is_forbidden(module: str, names: Tuple[str, ...]) -> bool:
    for prefix in FORBIDDEN_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return True
    if module == "repro.query" and FORBIDDEN_FROM_QUERY.intersection(names):
        return True
    return False


def _violations(path: Path) -> Iterator[Tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_forbidden(alias.name, ()):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names = tuple(alias.name for alias in node.names)
            if _is_forbidden(node.module, names):
                yield node.lineno, node.module


def _layer_violations(path: Path, package: str) -> Iterator[Tuple[int, str]]:
    """Imports of :data:`LOWER_FORBIDDEN` in ``path`` (a module of
    ``package``), relative ones resolved, ``from X import name``
    counting as an import of ``X.name`` too."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            parts = parts[: len(parts) + 1 - node.level] if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            if module == LOWER_FORBIDDEN or module.startswith(LOWER_FORBIDDEN + "."):
                yield node.lineno, module
                break


def main(src: Path = Path(__file__).resolve().parent.parent / "src") -> int:
    targets: List[Path] = [src / "repro" / "cli.py"]
    targets += sorted((src / "repro" / "experiments").glob("*.py"))
    warned = failed = 0
    matched = set()
    for layer in LOWER_LAYERS:
        for path in sorted((src / layer).rglob("*.py")):
            package = path.parent.relative_to(src).as_posix().replace("/", ".")
            for lineno, module in _layer_violations(path, package):
                failed += 1
                print(f"error: {path.relative_to(src).as_posix()}:{lineno}: imports "
                      f"{module} — {layer.replace('/', '.')} sits below the shard layer",
                      file=sys.stderr)
    for path in (p for p in targets if p.exists()):
        rel = path.relative_to(src).as_posix()
        for lineno, module in _violations(path):
            if (rel, module) in GRANDFATHERED:
                warned += 1
                matched.add((rel, module))
                print(f"warning: {rel}:{lineno}: grandfathered import of "
                      f"{module} (migrate to repro.api)")
            else:
                failed += 1
                print(f"error: {rel}:{lineno}: imports engine internal "
                      f"{module} — use repro.api instead", file=sys.stderr)
    for rel, module in sorted(GRANDFATHERED - matched):
        failed += 1
        print(f"error: stale grandfathered entry ({rel}, {module}) matches no "
              f"import — drop it", file=sys.stderr)
    print(f"check_api_imports: {len(targets)} file(s), "
          f"{warned} grandfathered warning(s), {failed} new violation(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
