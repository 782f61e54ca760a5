"""Rule framework: file walking, pragma handling, violation collection.

The engine is deliberately self-contained (``ast`` + stdlib only) so it can
lint the tree it lives in — it is run over ``src/`` and ``tests/`` in CI
and must stay clean under its own rules.
"""

from __future__ import annotations

import ast
import io
import os
import re
import time
import tokenize
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # import cycle: rules import FileContext from here
    from repro.analysis.rules import Rule

#: Directory names skipped during tree walks.  ``fixtures`` holds the test
#: corpus of deliberately-bad code (tests/analysis/fixtures) which must be
#: lintable on demand but must not fail the self-host run.
DEFAULT_EXCLUDED_DIRS = frozenset({".git", "__pycache__", "fixtures", ".mypy_cache"})

_PRAGMA_RE = re.compile(
    r"#\s*replint:\s*(?P<scope>file-)?allow\("
    r"(?P<rules>[A-Za-z0-9_\-, ]+)\)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: Short spellings accepted inside ``allow(...)`` in addition to rule names.
PRAGMA_ALIASES = {
    "wallclock": "wallclock",
    "rng": "rng-source",
    "seq": "seq-arith",
}


def canonical_path(path: str) -> str:
    """Repo-relative posix form, anchored at ``src/`` or ``tests/``.

    Rules scope themselves by path prefix (``src/repro/...``); anchoring
    makes that work no matter where the linter is invoked from.  Paths
    outside both anchors are returned relative, untouched.
    """
    p = path.replace(os.sep, "/")
    for anchor in ("src/repro/", "tests/"):
        idx = p.rfind(anchor)
        if idx >= 0:
            return p[idx:]
    while p.startswith("./"):
        p = p[2:]
    return p


@dataclass(frozen=True)
class Violation:
    """One rule finding at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class Pragma:
    """One parsed ``replint: allow(...)`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: Optional[str]
    file_scope: bool
    standalone: bool  # comment-only line: applies to the following line
    used: bool = False

    def suppresses(self, rule: str, line: int) -> bool:
        if rule not in self.rules:
            return False
        if self.file_scope:
            return True
        target = self.line + 1 if self.standalone else self.line
        return line == target


@dataclass
class FileContext:
    """Everything a rule needs to know about the file being linted."""

    path: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(self, node: ast.AST, rule: str, message: str) -> Violation:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            path=self.path,
            line=line,
            col=col,
            rule=rule,
            message=message,
            snippet=self.snippet(line),
        )


def parse_pragmas(source: str, path: str) -> Tuple[List[Pragma], List[Violation]]:
    """Extract ``replint:`` pragmas; malformed ones become violations.

    Only genuine comment tokens are considered, so docstrings and string
    literals that *mention* the pragma syntax (like this module's) are
    never misread as suppressions.
    """
    pragmas: List[Pragma] = []
    problems: List[Violation] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []  # ast.parse already reported the real problem
    for token in tokens:
        if token.type != tokenize.COMMENT or "replint:" not in token.string:
            continue
        lineno, col = token.start
        snippet = token.line.strip()
        match = _PRAGMA_RE.search(token.string)
        if match is None:
            problems.append(Violation(
                path, lineno, col, "pragma",
                "unparseable replint pragma (expected"
                " `# replint: allow(rule) -- reason`)", snippet,
            ))
            continue
        names = []
        for raw in match.group("rules").split(","):
            name = raw.strip()
            if name:
                names.append(PRAGMA_ALIASES.get(name, name))
        reason = match.group("reason")
        if not reason:
            problems.append(Violation(
                path, lineno, col, "pragma",
                "pragma without a justification; append `-- <why>`", snippet,
            ))
        pragmas.append(Pragma(
            line=lineno,
            rules=tuple(names),
            reason=reason,
            file_scope=match.group("scope") is not None,
            standalone=(token.line[:col].strip() == ""),
        ))
    return pragmas, problems


class LintEngine:
    """Run a rule set over sources, honouring ``replint`` pragmas."""

    def __init__(
        self,
        rules: Optional[Sequence["Rule"]] = None,
        semantic: bool = False,
    ):
        if rules is None:
            from repro.analysis.rules import ALL_RULES, SEMANTIC_RULES
            classes = list(ALL_RULES) + (list(SEMANTIC_RULES) if semantic else [])
            rules = [cls() for cls in classes]
        self.rules: List["Rule"] = list(rules)
        self.files_checked = 0
        #: Cumulative wall-time per rule (seconds) — the BENCH_lint source.
        #: Project-summary fixpoints are charged under ``<rule>:project``.
        self.rule_seconds: Dict[str, float] = {}
        self._dormant_rule_names: Optional[frozenset] = None

    def _dormant_rules(self) -> frozenset:
        """Registry rules not active in this engine (e.g. the semantic
        plane in a syntactic-only run).  Pragmas naming them are not
        reported unused — the rule that would consume them never ran."""
        if self._dormant_rule_names is None:
            from repro.analysis.rules import ALL_RULES, SEMANTIC_RULES
            registry = {cls.name for cls in ALL_RULES + SEMANTIC_RULES}
            active = {rule.name for rule in self.rules}
            self._dormant_rule_names = frozenset(registry - active)
        return self._dormant_rule_names

    # -- entry points ------------------------------------------------------

    def lint_source(self, source: str, path: str) -> List[Violation]:
        """Lint one source string as if it lived at ``path``."""
        return self.lint_sources({path: source})

    def lint_paths(self, paths: Iterable[str]) -> List[Violation]:
        """Lint files and the ``.py`` files under directories, as one run."""
        files: List[str] = []
        for path in paths:
            if os.path.isdir(path):
                files.extend(iter_python_files(path))
            else:
                files.append(path)
        sources: Dict[str, str] = {}
        for file_path in files:
            with open(file_path, "r", encoding="utf-8") as handle:
                sources[file_path] = handle.read()
        return self.lint_sources(sources)

    def lint_sources(self, sources: Mapping[str, str]) -> List[Violation]:
        """Lint ``{path: source}`` as one run, each as if it lived at its path.

        Every source that parses goes into one project index first, so the
        rules that need the whole run (interprocedural summaries, who
        imports what) see every file of it.
        """
        trees: Dict[str, ast.AST] = {}
        broken: Dict[str, Violation] = {}
        for path, source in sources.items():
            try:
                trees[path] = ast.parse(source)
            except SyntaxError as exc:
                broken[path] = Violation(
                    canonical_path(path), exc.lineno or 1, exc.offset or 0,
                    "syntax", f"cannot parse: {exc.msg}",
                )
        project_rules = [r for r in self.rules if getattr(r, "needs_project", False)]
        if project_rules:
            from repro.analysis.callgraph import ProjectIndex
            index = ProjectIndex()
            for path, tree in trees.items():
                index.add(canonical_path(path), tree)
            for rule in project_rules:
                start = time.perf_counter()  # replint: allow(wallclock) -- linter self-profiling feeds BENCH_lint.json
                rule.begin_project(index)
                elapsed = time.perf_counter() - start  # replint: allow(wallclock) -- linter self-profiling feeds BENCH_lint.json
                key = f"{rule.name}:project"
                self.rule_seconds[key] = self.rule_seconds.get(key, 0.0) + elapsed
        violations: List[Violation] = []
        for path, source in sources.items():
            if path in broken:
                violations.append(broken[path])
            else:
                violations.extend(
                    self._lint_tree(source, canonical_path(path), trees[path])
                )
        return violations

    def _lint_tree(self, source: str, path: str, tree: ast.AST) -> List[Violation]:
        pragmas, problems = parse_pragmas(source, path)
        ctx = FileContext(path=path, source=source, tree=tree)
        raw: List[Violation] = []
        seen: Set[Violation] = set()
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            start = time.perf_counter()  # replint: allow(wallclock) -- linter self-profiling feeds BENCH_lint.json
            findings = list(rule.check(ctx))
            elapsed = time.perf_counter() - start  # replint: allow(wallclock) -- linter self-profiling feeds BENCH_lint.json
            self.rule_seconds[rule.name] = (
                self.rule_seconds.get(rule.name, 0.0) + elapsed
            )
            for violation in findings:
                if violation not in seen:  # dedupe nested-expression repeats
                    seen.add(violation)
                    raw.append(violation)
        kept = problems
        for violation in sorted(raw, key=lambda v: (v.line, v.col, v.rule)):
            suppressed = False
            for pragma in pragmas:
                if pragma.suppresses(violation.rule, violation.line):
                    pragma.used = True
                    suppressed = True
                    break
            if not suppressed:
                kept.append(violation)
        dormant = self._dormant_rules()
        for pragma in pragmas:
            if set(pragma.rules) & dormant:
                continue
            if not pragma.used and pragma.rules:
                kept.append(Violation(
                    path, pragma.line, 0, "pragma",
                    "unused pragma: no"
                    f" {'/'.join(pragma.rules)} violation here to allow",
                    ctx.snippet(pragma.line),
                ))
        self.files_checked += 1
        return sorted(kept, key=lambda v: (v.line, v.col, v.rule))


def iter_python_files(root: str) -> Iterable[str]:
    """Yield ``.py`` files under ``root``, skipping excluded directories."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d not in DEFAULT_EXCLUDED_DIRS
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_source(source: str, path: str, semantic: bool = False) -> List[Violation]:
    """Convenience wrapper: lint one string with the full default rule set."""
    return LintEngine(semantic=semantic).lint_source(source, path)


def lint_paths(paths: Iterable[str]) -> List[Violation]:
    """Convenience wrapper: lint files/trees with the default rule set."""
    return LintEngine().lint_paths(paths)
