#!/usr/bin/env python3
"""Docs lint: intra-repo markdown links resolve; architecture is complete.

Eight checks, run by CI (see ``.github/workflows/ci.yml``):

1. Every relative link in every tracked ``*.md`` file points at a file
   or directory that exists (anchors after ``#`` are stripped; external
   ``http(s)://`` and ``mailto:`` links are skipped).
2. ``docs/architecture.md`` mentions every package under ``src/repro``
   by its ``repro.<name>`` dotted name, so new subsystems cannot land
   without an architecture note.
3. Every file under ``docs/`` is linked from at least one *other*
   tracked markdown file, so a new doc cannot land orphaned (written
   but unreachable from the README / docs index).
4. Every backticked file path (``scripts/x.py``, ``core/stream.py``,
   a bare ``kernel.py``) is a path suffix of a file that exists — so
   deleting or renaming a file fails the lint until the prose that
   points at it is repointed.  ``CHANGES.md`` and ``ROADMAP.md`` are
   history and may name what no longer exists.
5. Every backticked CamelCase identifier (``ReliableChannel``,
   ``_DataFrame.cached_size``) is a name that occurs in a ``*.py`` file
   under ``src/``, ``tests/``, ``benchmarks/``, ``scripts/`` or
   ``examples/`` — check 4 for classes: deleting or renaming one fails
   the lint until the prose is repointed.  History files are exempt
   here too, and fenced code blocks are not read.
6. Every keyword shown in a code span — ``Class(name=...)`` or a bare
   ``name=`` — is a parameter or class-level field declared somewhere
   under ``src/``: check 5 for options, so prose cannot keep advertising
   a knob after the code stopped accepting it.
7. Every backticked ``CamelCase.method`` reference (``Broker.publish``,
   ``WatchReplicator._resync``) names a ``def`` in the body of a class
   of that name, or of one of its base classes, under the same five
   directories as check 5 — check 5 for methods: deleting one fails the
   lint until the prose is repointed.  A field (a class-level name, a
   ``__slots__`` entry or a ``self.<name>`` its methods assign) or an
   ``__init__`` parameter counts as declared too.  Dunders, and a name
   that is no class in the code (``Path.exists``), are not read;
   history files are exempt.
8. Every backticked dotted ``repro.*`` name (``repro.core.stream``,
   ``repro.causal.stage.GatedWatchFrontend``) resolves: its longest
   prefix that is a module under ``src/`` is followed by nothing, or by
   a name that module's top level defines, assigns or imports.  A path
   (``src/repro/...``) is not read; history files are exempt.

    python scripts/check_docs.py

Exits nonzero with one line per violation.
"""

import ast
import fnmatch
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: markdown inline links: [text](target) — excludes images' inner text
#: handling because ![alt](target) still matches on the (target) part
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: generated / scratch files that may legitimately reference paths
#: outside the repo or carry tool-generated links (SNIPPETS.md quotes
#: external repos' own relative links verbatim)
_SKIP_FILES = {"ISSUE.md", "SNIPPETS.md"}

#: per-PR logs: they describe the repo as it was, deleted files included
_HISTORY_FILES = {"CHANGES.md", "ROADMAP.md"}

#: a backticked file path — bare (``kernel.py``), partial
#: (``core/stream.py``), full, ``../``-prefixed or a glob — up to the
#: first space (arguments) or ``:`` (a line number or pytest node id)
_FILE_RE = re.compile(
    r"`(?:\.\./)*((?:[\w.-]+/)*[\w.*-]+\.(?:py|json|md|txt|toml|yml))[`\s:]"
)

#: inline code spans, read after fenced blocks are cut out
_FENCE_RE = re.compile(r"^```.*?^```", re.S | re.M)
_CODE_RE = re.compile(r"`([^`\n]+)`")

#: an identifier that starts with a capital (after an optional ``_``)
#: and has a lowercase letter: classes, not ``CONSTANTS`` or ``E12``
_CAMEL_RE = re.compile(r"\b_?[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*\b")

#: a lowercase keyword directly followed by ``=`` (not ``==``), not part
#: of a dotted name, a ``--flag=`` or an ``ENV=`` assignment
_KEYWORD_RE = re.compile(r"(?<![\w.-])([a-z_]\w*)=(?!=)")

#: ``Class.method`` inside a code span: a CamelCase class (check 5's
#: pattern) then a lowercase or ``_``-led attribute, not a dotted
#: continuation of a longer name (``Class.method.attr`` still counts)
_METHOD_RE = re.compile(
    r"(?<![\w.])(_?[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)\.(_*[a-z]\w*)"
)

#: a dotted ``repro.*`` name inside a code span, not part of a path
_DOTTED_RE = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")

_CODE_DIRS = ("src", "tests", "benchmarks", "scripts", "examples")

_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def repo_files():
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        for filename in filenames:
            yield os.path.join(dirpath, filename)


def markdown_files():
    return (path for path in repo_files() if path.endswith(".md"))


def current_prose():
    """``(relative path, text)`` of every markdown file that describes
    the repo as it is — generated and history files left out."""
    for path in markdown_files():
        if os.path.basename(path) in _SKIP_FILES | _HISTORY_FILES:
            continue
        with open(path, encoding="utf-8") as fh:
            yield os.path.relpath(path, REPO_ROOT), fh.read()


def inline_code(text):
    """The inline code spans of a markdown text, fenced blocks cut out."""
    return _CODE_RE.findall(_FENCE_RE.sub("", text))


def check_links():
    errors = []
    for path in markdown_files():
        rel = os.path.relpath(path, REPO_ROOT)
        if os.path.basename(path) in _SKIP_FILES:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path)
            )
            if not os.path.exists(resolved):
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def check_paths_exist():
    """Every backticked file path is (a suffix of) a file in the repo."""
    errors = []
    existing = ["/" + os.path.relpath(path, REPO_ROOT) for path in repo_files()]
    for rel, text in current_prose():
        for target in sorted(set(_FILE_RE.findall(text))):
            pattern = "*/" + target
            if not any(fnmatch.fnmatchcase(file, pattern) for file in existing):
                errors.append(f"{rel}: no such file -> {target}")
    return errors


def check_identifiers_exist():
    """Every backticked CamelCase identifier occurs in the code."""
    known = set()
    for path in repo_files():
        top = os.path.relpath(path, REPO_ROOT).split(os.sep)[0]
        if top in _CODE_DIRS and path.endswith(".py"):
            with open(path, encoding="utf-8") as fh:
                known.update(re.findall(r"\w+", fh.read()))
    errors = []
    for rel, text in current_prose():
        named = {
            identifier
            for span in inline_code(text)
            for identifier in _CAMEL_RE.findall(span)
        }
        for identifier in sorted(named - known):
            errors.append(f"{rel}: no such identifier -> {identifier}")
    return errors


def _members(node):
    """What a class body declares: its defs, its class-level names and
    ``__slots__`` entries, the ``self.<name>`` its methods assign, and
    its ``__init__``'s parameters (options, named ``Class.option``)."""
    members = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(stmt.name)
            if stmt.name == "__init__":
                args = stmt.args
                members.update(
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
                    if target.id == "__slots__":
                        members.update(
                            const.value for const in ast.walk(stmt.value)
                            if isinstance(const, ast.Constant)
                        )
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name) and sub.value.id == "self"
        ):
            members.add(sub.attr)
    return members


def _code_classes():
    """Each class name defined under the code directories -> what every
    class of that name declares, and the names of their bases."""
    members, bases = {}, {}
    for path in repo_files():
        top = os.path.relpath(path, REPO_ROOT).split(os.sep)[0]
        if top not in _CODE_DIRS or not path.endswith(".py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members.setdefault(node.name, set()).update(_members(node))
            bases.setdefault(node.name, set()).update(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            )
    return members, bases


def check_methods_exist():
    """Every backticked ``Class.member`` is declared by that class or a base."""
    methods, bases = _code_classes()

    def defines(cls, name, seen):
        if cls in seen or cls not in methods:
            return False
        seen.add(cls)
        return name in methods[cls] or any(
            defines(base, name, seen) for base in bases[cls]
        )

    errors = []
    for rel, text in current_prose():
        named = {
            pair
            for span in inline_code(text)
            for pair in _METHOD_RE.findall(span)
        }
        for cls, name in sorted(named):
            if name.startswith("__") and name.endswith("__"):
                continue  # every class has its dunders (object, dataclass)
            if cls in methods and not defines(cls, name, set()):
                errors.append(f"{rel}: no such member -> {cls}.{name}")
    return errors


def check_keywords_exist():
    """Every ``name=`` in a code span is a declared parameter or field."""
    declared = set()
    for path in repo_files():
        rel = os.path.relpath(path, REPO_ROOT)
        if rel.split(os.sep)[0] != "src" or not path.endswith(".py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                declared.update(
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                )
            elif isinstance(node, ast.ClassDef):
                declared.update(
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
    errors = []
    for rel, text in current_prose():
        named = {
            keyword
            for span in inline_code(text)
            for keyword in _KEYWORD_RE.findall(span)
        }
        for keyword in sorted(named - declared):
            errors.append(f"{rel}: no such parameter or field -> {keyword}=")
    return errors


def _module_source(parts):
    """The source file of module ``parts`` under ``src/``, or None."""
    base = os.path.join(REPO_ROOT, "src", *parts)
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def _top_level_names(path):
    """The names a module's top level defines, assigns or imports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0] for alias in stmt.names
            )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(
                node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)
            )
    return names


def check_dotted_names_resolve():
    """Every backticked ``repro.*`` name is a module or a name in one."""
    errors = []
    for rel, text in current_prose():
        named = {
            dotted
            for span in inline_code(text)
            for dotted in _DOTTED_RE.findall(span)
        }
        for dotted in sorted(named):
            parts = dotted.split(".")
            depth = len(parts)
            while depth and _module_source(parts[:depth]) is None:
                depth -= 1
            if depth == len(parts) or (
                depth and parts[depth] in _top_level_names(
                    _module_source(parts[:depth])
                )
            ):
                continue
            errors.append(f"{rel}: no such module or name -> {dotted}")
    return errors


def check_architecture_mentions():
    errors = []
    architecture = os.path.join(REPO_ROOT, "docs", "architecture.md")
    with open(architecture, encoding="utf-8") as fh:
        text = fh.read()
    src_repro = os.path.join(REPO_ROOT, "src", "repro")
    packages = sorted(
        name for name in os.listdir(src_repro)
        if os.path.isdir(os.path.join(src_repro, name))
        and not name.startswith("__")
    )
    for package in packages:
        if f"repro.{package}" not in text:
            errors.append(
                f"docs/architecture.md: package repro.{package} not mentioned"
            )
    return errors


def check_docs_reachable():
    """Every docs/*.md is the target of a link from some other file."""
    errors = []
    linked = set()
    for path in markdown_files():
        if os.path.basename(path) in _SKIP_FILES:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path)
            )
            if resolved != path:  # self-links don't make a doc reachable
                linked.add(resolved)
    docs_dir = os.path.join(REPO_ROOT, "docs")
    for filename in sorted(os.listdir(docs_dir)):
        if not filename.endswith(".md"):
            continue
        path = os.path.join(docs_dir, filename)
        if path not in linked:
            errors.append(
                f"docs/{filename}: orphaned (not linked from any other doc)"
            )
    return errors


def main() -> int:
    errors = (
        check_links() + check_paths_exist() + check_identifiers_exist()
        + check_keywords_exist() + check_methods_exist()
        + check_dotted_names_resolve()
        + check_architecture_mentions() + check_docs_reachable()
    )
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"\n{len(errors)} docs lint violation(s)", file=sys.stderr)
        return 1
    print("docs lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
