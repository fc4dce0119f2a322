import ast
import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from qrook.boards import FerrersBoard, parse_board_spec

from cli_runner import invoke

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_prints_what_it_states():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    stated = [
        line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert stated and out.getvalue().splitlines() == stated


# shell examples whose comment describes the output instead of quoting it,
# with the last line each must print (None: exit 0 suffices); every other
# example must print exactly its comment, less a trailing "(= ...)" gloss
PROSE_EXAMPLES = {
    "qrook hit --board tri:3 --method all --format text": "CONSISTENT",
    "qrook verify --suite all --max-n 4": None,
    "qrook table --family mat --n 4": None,
}


def readme_shell_examples() -> list[tuple[str, list[str]]]:
    """(command, comment lines) for each qrook line of the README's CLI block."""
    readme = (ROOT / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "qrook " in b]
    examples: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        if command.startswith("qrook "):
            examples.append((command, [comment] if comment else []))
        elif comment:
            examples[-1][1].append(comment)
    return examples


def test_readme_shell_examples_run():
    examples = readme_shell_examples()
    assert set(PROSE_EXAMPLES) <= {command for command, _ in examples}
    for command, comments in examples:
        result = invoke(shlex.split(command)[1:])
        assert result.exit_code == 0, command
        lines = result.output.splitlines()
        if command in PROSE_EXAMPLES:
            assert PROSE_EXAMPLES[command] in (None, lines[-1]), command
        else:
            assert lines == [re.sub(r"\s+\(=.*\)$", "", c) for c in comments], command


def ci_job() -> dict:
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    return job


def test_ci_workflow_runs_both_test_suites():
    job = ci_job()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12", "3.13"]
    commands = [step["run"] for step in job["steps"] if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    # every check is a test: the workflow runs tier-1, again with assert
    # statements stripped so no check can hide in one, and the benchmark's
    # self-test and traced pass, and nothing else
    assert commands == [
        "python -m pip install pytest hypothesis pyyaml",
        tier1,
        tier1.replace("python -m pytest", "python -O -m pytest"),
        "python -m pytest perfbench -q",
        "for workload in verify-identities word-stats board-queries rank-counts; do\n"
        '  python3 perfbench/run.py --workload "$workload" --trace 1\n'
        "done\n",
    ]


def test_ci_installs_exactly_the_test_extra():
    # `pip install -e .[test]` gets what CI gets, so no test that CI runs
    # skips elsewhere for want of a package
    (extra,) = re.findall(r"^test = (\[.*\])$", (ROOT / "pyproject.toml").read_text(), re.M)
    (install,) = [step["run"] for step in ci_job()["steps"] if "pip install" in step.get("run", "")]
    command, packages = install.split()[:4], install.split()[4:]
    assert command == ["python", "-m", "pip", "install"]
    assert sorted(packages) == sorted(ast.literal_eval(extra))


def test_ci_job_has_a_time_limit():
    # a query that lost its budget never returns, so a test's own time
    # assert never runs; the job limit stops it in half an hour, where
    # GitHub's default lets it run for six
    assert ci_job()["timeout-minutes"] == 30


def test_ci_workflow_runs_a_traced_pass_of_every_workload():
    (script,) = [step["run"] for step in ci_job()["steps"] if "perfbench/run.py" in step.get("run", "")]
    assert "--trace 1" in script
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        assert workload["name"] in script


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_benchmark_clears_every_library_cache():
    # the benchmark clears the caches named in perfbench/spans.py CACHES
    # before each pass; a cache missing there would carry values across passes
    cached = set()
    for path in sorted((ROOT / "src" / "qrook").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list
            ):
                cached.add((path.stem, node.name))
    (caches,) = [
        node.value
        for node in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CACHES"]
    ]
    assert cached == set(ast.literal_eval(caches))


def _imported_names(tree: ast.AST) -> list[str]:
    """module.name per name imported from a module, the module alone per
    ``import module``; a relative module keeps only its own name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return names


def test_oracles_share_no_private_kernel_with_the_library():
    # an oracle that reached a private qrook kernel could share a fault
    # with the route it checks, and then the check would prove nothing
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    for name in _imported_names(tree):
        parts = name.split(".")
        assert parts[0] != "qrook" or not any(part.startswith("_") for part in parts), name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_") or node.attr.endswith("__"), node.attr


def test_packed_form_stays_in_qpoly():
    # the x-series kernel takes polynomials and an l1 bound and picks the
    # width itself, so no other module packs, unpacks or chooses a width
    private = {"_pack", "_unpack", "_kronecker_width"}
    for path in sorted((ROOT / "src" / "qrook").glob("*.py")):
        if path.stem != "qpoly":
            tree = ast.parse(path.read_text())
            used = {name.rpartition(".")[2] for name in _imported_names(tree)}
            used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not private & used, (path.name, private & used)


def test_cli_builds_no_trusted_board():
    # user input reaches the validating constructors: the trusted ones,
    # which skip the checks, serve values derived from validated data
    tree = ast.parse((ROOT / "src" / "qrook" / "cli.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {name.rpartition(".")[2] for name in _imported_names(tree)}
    assert "_built" not in names


def test_user_boards_reach_the_validating_constructors():
    for bad in ("heights:2,1", "heights:1.5", "steps:1x0", "gv:0"):
        with pytest.raises(ValueError, match=f"bad board spec {re.escape(repr(bad))}"):
            parse_board_spec(bad)
    with pytest.raises(ValueError, match="not an integer"):
        FerrersBoard((1.0, 2.5))


def test_library_imports_no_test_module():
    for path in sorted((ROOT / "src" / "qrook").glob("*.py")):
        for name in _imported_names(ast.parse(path.read_text())):
            assert not {"tests", "oracles"} & set(name.split(".")), (path.name, name)


# method names that change a list, dict or set in place
_MUTATORS = set("append extend insert pop popitem remove clear update setdefault add discard sort reverse".split())


def _root_name(node: ast.expr) -> str | None:
    """The name an attribute or subscript chain such as ``x.a[0].b`` starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _own_scope(fn: ast.AST):
    """The nodes of a function's body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def module_state_writes(source: str) -> list[str]:
    """Each place where a function assigns to, or mutates, a name bound at
    module level: a ``global`` declaration, an item or attribute store or
    delete on the name, ``setattr`` on it, or a call of a list, dict or set
    mutator on it.  A parameter or local of the same name shadows it."""
    tree = ast.parse(source)
    module = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                module.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    writes = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = list(_own_scope(fn))
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local.update(n.id for n in body if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load))
        shared = module - local
        for node in body:
            if isinstance(node, ast.Global):
                writes += [f"line {node.lineno}: global {name}" for name in set(node.names) & module]
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                for target in targets:
                    for t in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                        if isinstance(t, (ast.Attribute, ast.Subscript)) and _root_name(t) in shared:
                            writes.append(f"line {node.lineno}: stores into {_root_name(t)}")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATORS and _root_name(func.value) in shared:
                    writes.append(f"line {node.lineno}: {_root_name(func.value)}.{func.attr}()")
                elif (
                    isinstance(func, ast.Name) and func.id == "setattr"
                    or isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                ) and node.args and _root_name(node.args[0]) in shared:
                    writes.append(f"line {node.lineno}: setattr on {_root_name(node.args[0])}")
    return writes


@pytest.mark.parametrize(
    "body,flagged",
    [
        ("_MEMO = {}\ndef f(x):\n    _MEMO[x] = 1", True),
        ("_MEMO = {}\ndef f(x):\n    _MEMO.setdefault(x, 1)", True),
        ("_ONE = object()\ndef f(x):\n    _ONE.memo = x", True),
        ("_ONE = object()\nclass A:\n    def f(self, x):\n        setattr(_ONE, 'memo', x)", True),
        ("COUNT = 0\ndef f():\n    global COUNT\n    COUNT += 1", True),
        ("_MEMO = {}\ndef f(_MEMO, x):\n    _MEMO[x] = 1", False),
        ("_MEMO = {}\ndef f(x):\n    _MEMO = {}\n    _MEMO[x] = 1", False),
        ("def f(p, x):\n    p._memo = x\n    return [x].append(1)", False),
    ],
)
def test_module_state_writes_are_found(body, flagged):
    assert bool(module_state_writes(body)) == flagged


def test_library_functions_write_no_module_state():
    # a value kept across calls lives in an lru_cache, which the benchmark
    # clears before each pass (test_benchmark_clears_every_library_cache),
    # or on an object such a cache or the caller holds; a module-level
    # memo would carry work from one benchmark pass into the next
    for path in sorted((ROOT / "src" / "qrook").glob("*.py")):
        assert module_state_writes(path.read_text()) == [], path.name


def _functions_with(tree: ast.AST, predicate) -> set[str]:
    """The names of the functions, and "<module>" for module-level code,
    whose own body holds a node the predicate accepts."""
    scopes = [("<module>", tree)]
    scopes += [(fn.name, fn) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {name for name, scope in scopes if any(predicate(node) for node in _own_scope(scope))}


def _catches(name: str):
    """A predicate for the except clauses that name the exception ``name``."""

    def predicate(node):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            return False
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return name in {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}

    return predicate


def test_exit_codes_are_decided_in_main():
    # a command raises; main alone turns a ValueError into exit 2 and an
    # IdentityViolation into exit 1, with the message on stderr
    for path in sorted((ROOT / "src" / "qrook").glob("*.py")):
        tree = ast.parse(path.read_text())
        writers = _functions_with(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "stderr")
        assert writers == ({"main"} if path.stem == "cli" else set()), path.name
    cli = ast.parse((ROOT / "src" / "qrook" / "cli.py").read_text())
    assert _functions_with(cli, _catches("IdentityViolation")) == {"main"}
    # hit --method all turns a route's refusal into a SKIPPED line
    assert _functions_with(cli, _catches("ValueError")) == {"main", "hit_cmd"}
