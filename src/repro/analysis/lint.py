"""spmdlint: AST lint rules for SPMD correctness (see package docstring).

The checker is a single pass of :class:`ast.NodeVisitor` per file (rules
SL001-SL004) plus one project-level rule (SL005) that cross-references the
``PipelineConfig`` fields against the CLI parser and the README knob table.
No code is imported or executed except :mod:`repro.core.counters`, the
declared-counter registry that SL004 checks against.

Suppressions
------------
A finding is silenced by an inline comment naming the rule *with a reason*::

    value = comm.allreduce(seed)  # spmdlint: disable=SL001 all ranks reach this

The comment may sit on the flagged line or on a comment-only line directly
above it (a block of consecutive comment lines applies to the next source
line).  A suppression without a reason is itself reported (SL000).
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core.counters import REGISTERED_COUNTERS

__all__ = ["Finding", "RULES", "lint_paths", "lint_source", "main"]

#: Rule catalogue: id -> one-line description (``--list-rules`` prints this).
RULES: dict[str, str] = {
    "SL000": "malformed spmdlint suppression (missing rule list or reason)",
    "SL001": "collective called under rank-dependent control flow "
             "(ranks may disagree on whether/which collective runs: deadlock)",
    "SL002": "superstep exchange or SuperstepSchedule without a phase label "
             "(unlabelled ops cannot be matched across supersteps/diagnosed)",
    "SL003": "nondeterminism: iteration over a set, global RNG, or wall-clock "
             "value feeding computation (breaks cross-backend bit-identity)",
    "SL004": "counter key not declared in repro.core.counters "
             "(backend-invariance tests iterate the registry)",
    "SL005": "PipelineConfig knob missing one of CLI flag / DIBELLA_* env "
             "default / README knob-table row, or a README row naming no "
             "PipelineConfig field",
}

#: SimCommunicator collective methods (call sites, not definitions).
_COLLECTIVES = frozenset({
    "barrier", "bcast", "gather", "allgather", "allreduce", "reduce",
    "alltoall", "alltoallv", "alltoallv_start", "alltoallv_finish",
})

#: Exchange entry points that take the ``label=`` phase keyword (SL002).
_LABELLED_EXCHANGES = frozenset({"alltoallv", "alltoallv_start"})

#: Stdlib ``random`` module functions that mutate/read the *global* RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "shuffle", "choice",
    "choices", "sample", "seed", "getrandbits", "gauss", "normalvariate",
})

#: ``numpy.random`` attributes that are fine (explicitly seeded generators).
_SEEDED_NP_RANDOM = frozenset({"default_rng", "Generator", "SeedSequence",
                               "BitGenerator", "PCG64", "Philox"})

#: Files whose counter writes SL004 audits (relative-name match).
_COUNTER_FILES = ("stages.py", "supersteps.py", "pipeline.py")

_SUPPRESS_RE = re.compile(
    r"#\s*spmdlint:\s*disable=([A-Za-z0-9,\s]*?)(?:\s+(.*))?$")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, printable as ``path:line:col: rule message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def _iter_comments(source: str) -> "list[tokenize.TokenInfo]":
    """The file's real comment tokens (examples inside strings don't count)."""
    try:
        return [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []  # the parse pass reports the syntax error


def _collect_suppressions(
    path: str, source: str, lines: list[str]
) -> tuple[dict[int, set[str]], list[Finding]]:
    """Map line number -> suppressed rule ids, plus SL000 findings.

    A suppression on a comment-only line covers the next non-blank,
    non-comment line (so a wrapped reason spanning several comment lines
    still lands on the statement below the block).
    """
    suppressed: dict[int, set[str]] = {}
    findings: list[Finding] = []
    for token in _iter_comments(source):
        lineno, col = token.start
        text = token.string
        match = _SUPPRESS_RE.search(text)
        if match is None:
            if "spmdlint" in text and "disable" in text:
                findings.append(Finding(path, lineno, 1, "SL000",
                                        "unparseable spmdlint suppression"))
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        reason = (match.group(2) or "").strip()
        if not rules or any(rule not in RULES for rule in rules):
            findings.append(Finding(path, lineno, 1, "SL000",
                                    f"unknown rule id in suppression: "
                                    f"{sorted(rules) or '(empty)'}"))
            continue
        if not reason:
            findings.append(Finding(
                path, lineno, 1, "SL000",
                f"suppression of {','.join(sorted(rules))} needs a reason "
                f"(# spmdlint: disable=SLxxx <why this is safe>)"))
        target = lineno
        if not lines[lineno - 1][:col].strip():
            # Comment-only line: the suppression covers the next code line.
            for ahead in range(lineno + 1, len(lines) + 1):
                body = lines[ahead - 1].strip()
                if body and not body.startswith("#"):
                    target = ahead
                    break
        suppressed.setdefault(target, set()).update(rules)
    return suppressed, findings


# ---------------------------------------------------------------------------
# Per-file visitor: SL001-SL004
# ---------------------------------------------------------------------------

def _dotted_name(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _mentions_rank(node: ast.AST) -> bool:
    """Whether an expression reads a ``rank`` variable or attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "rank":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
    return False


def _is_set_expr(node: ast.AST) -> bool:
    """Whether an expression is literally a set (unordered iteration)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra (a | b, keys - flags, ...) stays a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, check_counters: bool) -> None:
        self.path = path
        self.check_counters = check_counters
        self.findings: list[Finding] = []
        self._rank_depth = 0

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno,
                                     node.col_offset + 1, rule, message))

    # -- rank-dependent control flow (SL001 context) ------------------------

    def _visit_branches(self, test: ast.AST, bodies: list[list[ast.stmt]]) -> None:
        rank_dep = _mentions_rank(test)
        self.visit(test)
        if rank_dep:
            self._rank_depth += 1
        for body in bodies:
            for stmt in body:
                self.visit(stmt)
        if rank_dep:
            self._rank_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        self._visit_branches(node.test, [node.body, node.orelse])

    def visit_While(self, node: ast.While) -> None:
        self._visit_branches(node.test, [node.body, node.orelse])

    def visit_IfExp(self, node: ast.IfExp) -> None:
        rank_dep = _mentions_rank(node.test)
        self.visit(node.test)
        if rank_dep:
            self._rank_depth += 1
        self.visit(node.body)
        self.visit(node.orelse)
        if rank_dep:
            self._rank_depth -= 1

    # -- SL003: unordered iteration ----------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._report(node.iter, "SL003",
                         "iteration over a set: order differs across "
                         "runs/backends — sort it first")
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            if _is_set_expr(gen.iter):
                self._report(gen.iter, "SL003",
                             "comprehension over a set: order differs across "
                             "runs/backends — sort it first")
        self.generic_visit(node)

    visit_ListComp = visit_GeneratorExp = _visit_comp  # type: ignore[assignment]

    # -- SL001/SL002/SL003/SL004: calls ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _COLLECTIVES and self._rank_depth > 0:
                self._report(node, "SL001",
                             f"collective .{func.attr}() under rank-dependent "
                             f"control flow: ranks taking different branches "
                             f"deadlock or mismatch")
            if func.attr in _LABELLED_EXCHANGES:
                label = next((kw.value for kw in node.keywords
                              if kw.arg == "label"), None)
                if label is None or (isinstance(label, ast.Constant)
                                     and label.value is None):
                    self._report(node, "SL002",
                                 f".{func.attr}() without a phase label: pass "
                                 f"label=... so the exchange op name carries "
                                 f"its phase")
            if self.check_counters and func.attr == "update":
                self._check_counter_update(node, func)
        name = _dotted_name(func)
        if name is not None:
            self._check_call_determinism(node, name)
        if (name is not None and name[-1] == "SuperstepSchedule"
                and not any(kw.arg == "label" for kw in node.keywords)):
            self._report(node, "SL002",
                         "SuperstepSchedule(...) without label=: the schedule "
                         "stamps the phase into every exchange op name")
        self.generic_visit(node)

    def _check_call_determinism(self, node: ast.Call,
                                name: tuple[str, ...]) -> None:
        dotted = ".".join(name)
        if name[-2:] == ("time", "time"):
            self._report(node, "SL003",
                         "time.time() is wall clock: use time.perf_counter() "
                         "for durations; never feed wall clock into results")
        elif name[-1] in ("now", "utcnow", "today") and "datetime" in name[:-1]:
            self._report(node, "SL003",
                         f"{dotted}() is wall clock: results must not depend "
                         f"on the current date/time")
        elif (len(name) >= 3 and name[-2] == "random"
                and name[0] in ("np", "numpy")
                and name[-1] not in _SEEDED_NP_RANDOM):
            self._report(node, "SL003",
                         f"{dotted}() uses numpy's global RNG: use a seeded "
                         f"np.random.default_rng(seed) generator")
        elif (len(name) == 2 and name[0] == "random"
                and name[1] in _GLOBAL_RANDOM_FNS):
            self._report(node, "SL003",
                         f"{dotted}() uses the process-global RNG: use a "
                         f"seeded random.Random(seed) instance")

    # -- SL004: counter writes ----------------------------------------------

    @staticmethod
    def _is_counters_store(node: ast.AST) -> bool:
        if not isinstance(node, ast.Subscript):
            return False
        name = _dotted_name(node.value)
        return name is not None and name[-1] == "counters"

    def _check_counter_key(self, key_node: ast.AST) -> None:
        if isinstance(key_node, ast.Constant) and isinstance(key_node.value, str):
            if key_node.value not in REGISTERED_COUNTERS:
                self._report(key_node, "SL004",
                             f"counter {key_node.value!r} is not declared in "
                             f"repro.core.counters.PIPELINE_COUNTERS")
        else:
            self._report(key_node, "SL004",
                         "non-literal counter key: declare the keys in "
                         "repro.core.counters and write them literally (or "
                         "suppress with the key source documented)")

    def _check_counter_update(self, node: ast.Call, func: ast.Attribute) -> None:
        base = _dotted_name(func.value)
        if base is None or base[-1] != "counters":
            return
        arg = node.args[0] if node.args else None
        if isinstance(arg, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str)
                for k in arg.keys):
            for key in arg.keys:
                self._check_counter_key(key)
        else:
            self._report(node, "SL004",
                         "dynamic .counters.update(...): keys cannot be "
                         "checked against the registry — declare them in "
                         "repro.core.counters and suppress with the source "
                         "documented")

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.check_counters:
            for target in node.targets:
                if self._is_counters_store(target):
                    self._check_counter_key(target.slice)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.check_counters and self._is_counters_store(node.target):
            self._check_counter_key(node.target.slice)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# SL005: knob plumbing (project-level)
# ---------------------------------------------------------------------------

def _config_fields(tree: ast.Module) -> list[tuple[str, int, set[str]]]:
    """``(field, lineno, env_vars)`` per PipelineConfig dataclass field
    (init-only ``InitVar`` names are not fields)."""
    fields: list[tuple[str, int, set[str]]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PipelineConfig":
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "InitVar" not in ast.unparse(stmt.annotation)):
                    envs = set()
                    for sub in ast.walk(stmt):
                        if (isinstance(sub, ast.Constant)
                                and isinstance(sub.value, str)
                                and sub.value.startswith("DIBELLA_")):
                            envs.add(sub.value)
                    fields.append((stmt.target.id, stmt.lineno, envs))
    return fields


def _cli_flags(cli_path: Path) -> set[str]:
    """Every ``--flag`` string passed to an ``add_argument`` call."""
    tree = ast.parse(cli_path.read_text(encoding="utf-8"), filename=str(cli_path))
    flags: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            for arg in node.args:
                if (isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("-")):
                    flags.add(arg.value)
    return flags


def _readme_knob_fields(readme_path: Path) -> set[str]:
    """Backticked names appearing in README table rows (lines starting '|')."""
    names: set[str] = set()
    for line in readme_path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("|"):
            names.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", line))
    return names


def _readme_config_cells(readme_path: Path) -> list[tuple[int, str]]:
    """``(lineno, cell)`` of every body row's "Config field" cell, over the
    README tables whose header has that column."""
    cells: list[tuple[int, str]] = []
    column: int | None = None  # None outside a table, -1 in other tables
    lines = readme_path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.lstrip().startswith("|"):
            column = None
            continue
        row = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if column is None:
            column = row.index("Config field") if "Config field" in row else -1
        elif 0 <= column < len(row) and set(row[column]) - set("-: "):
            cells.append((lineno, row[column]))
    return cells


def _check_knob_plumbing(
    config_path: Path, tree: ast.Module, suppressed: dict[int, set[str]]
) -> list[Finding]:
    """SL005: every participating config knob has flag + env + README row,
    and every README knob-table row names a live config field.

    A field *participates* in knob plumbing once it is exposed through any
    of the three surfaces (a derived CLI flag, a ``DIBELLA_*`` env default,
    or a README knob-table row); participation requires all three, so a knob
    cannot be settable from the CLI but invisible to scripted env-driven CI,
    or documented but not settable.  Purely programmatic fields (scoring
    schemes, hints) expose none of the three and are exempt.  The reverse
    check catches a deleted knob's leftover row: a "Config field" cell must
    name a ``PipelineConfig`` field, unless it is ``—`` (a flag that reports
    rather than configures).
    """
    cli_path = config_path.parent.parent / "cli.py"
    readme_path = next(
        (parent / "README.md" for parent in config_path.resolve().parents
         if (parent / "README.md").is_file()), None)
    if not cli_path.is_file() or readme_path is None:
        return []
    flags = _cli_flags(cli_path)
    rows = _readme_knob_fields(readme_path)
    findings: list[Finding] = []
    for name, lineno, envs in _config_fields(tree):
        derived = "--" + name.replace("_", "-")
        no_variant = "--no-" + derived.removeprefix("--")
        has_flag = derived in flags or no_variant in flags
        has_env = bool(envs)
        has_row = name in rows
        if not (has_flag or has_env or has_row):
            continue  # programmatic-only field: exempt
        missing = [label for present, label in (
            (has_flag, f"CLI flag {derived}"),
            (has_env, "DIBELLA_* env default"),
            (has_row, "README knob-table row"),
        ) if not present]
        if missing and "SL005" not in suppressed.get(lineno, set()):
            findings.append(Finding(
                str(config_path), lineno, 1, "SL005",
                f"knob {name!r} is missing: {', '.join(missing)}"))
    live = {name for name, _lineno, _envs in _config_fields(tree)}
    for lineno, cell in _readme_config_cells(readme_path):
        names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", cell)
        if cell != "—" and (not names or not set(names) <= live):
            findings.append(Finding(
                str(readme_path), lineno, 1, "SL005",
                f"README knob-table row names {cell}, which is no "
                f"PipelineConfig field"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one file's source text (SL001-SL004 + suppression hygiene)."""
    lines = source.splitlines()
    suppressed, findings = _collect_suppressions(path, source, lines)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(Finding(path, exc.lineno or 1, exc.offset or 1,
                                "SL000", f"syntax error: {exc.msg}"))
        return sorted(findings)
    visitor = _Visitor(path, check_counters=path.endswith(_COUNTER_FILES))
    visitor.visit(tree)
    findings.extend(
        finding for finding in visitor.findings
        if finding.rule not in suppressed.get(finding.line, set()))
    return sorted(findings)


def lint_paths(paths: Iterable[Path]) -> tuple[list[Finding], int]:
    """Lint every ``.py`` file under *paths*; returns (findings, n_files)."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file)))
        if str(file).replace("\\", "/").endswith("core/config.py"):
            suppressed, _ = _collect_suppressions(str(file), source,
                                                  source.splitlines())
            findings.extend(_check_knob_plumbing(
                file, ast.parse(source, filename=str(file)), suppressed))
    return sorted(findings), len(files)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.analysis.lint [paths...]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--list-rules" in argv:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0
    paths = [Path(arg) for arg in argv if not arg.startswith("-")] or [Path("src")]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"spmdlint: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    findings, n_files = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"spmdlint: {len(findings)} finding(s) in {n_files} file(s)")
        return 1
    print(f"spmdlint: clean ({n_files} files)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
