import ast
import hashlib
import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "jetforms"


def test_no_assert_statements_in_library():
    # python -O strips assert statements; checks that guard the mathematics
    # raise explicitly so they hold under every interpreter flag
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    hits = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, f"assert statements in the library: {hits}"


def test_one_coordinate_vocabulary():
    # a wedge factor dc is keyed by the coordinate c itself; "dx", "dy" and
    # "dz" are keywords of the problem language and nothing else
    hits = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "problem.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ("dx", "dy", "dz")
    ]
    assert not hits, f"one-form tags outside the problem language: {hits}"


def _run_fresh(statements: str) -> tuple:
    """Run ``statements`` in a fresh interpreter on this checkout's package;
    return their stdout lines and the numpy and scipy modules now loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")])
    )
    probe = statements + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    *out, heavy = result.stdout.splitlines()
    return out, heavy


def test_import_does_not_load_scipy():
    # the symbolic core is exact and imports neither numpy nor scipy; both
    # load only with jetforms.numeric (evolve and the prolongation flow
    # oracle), and scipy only once the flow oracle runs
    assert _run_fresh("import jetforms, jetforms.dedonder") == ([], "[]")


@pytest.mark.parametrize(
    "command,exit_code",
    [
        ("euler-lagrange", 0),
        ("boundary-form", 0),
        ("dedonder-form", 0),
        ("verify", 0),
        ("noether", 0),
        ("residual", 1),  # all sections; the bump is not a solution
    ],
)
def test_symbolic_commands_do_not_load_numpy(command, exit_code):
    fixture = str(SOURCE / "fixtures" / "fourth_order_wave.jet")
    statements = (
        "import contextlib, io\n"
        "from jetforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{command!r}, {fixture!r}])\n"
        "print(code)"
    )
    assert _run_fresh(statements) == ([str(exit_code)], "[]")


def _imported_modules(node) -> list:
    """The modules an import statement names; relative ones start with '.'."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    modules = [node.module] if node.module else [a.name for a in node.names]
    return ["." * node.level + module for module in modules]


def _eager_imports(tree) -> list:
    """(line, module) for each import outside every function body, i.e. each
    one that runs when the module is imported."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, module) for module in _imported_modules(node)]
        stack.extend(ast.iter_child_nodes(node))
    return found


def _lazy_imports(tree) -> list:
    """(line, module) for each import inside a function body."""
    every = {
        (node.lineno, module)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in _imported_modules(node)
    }
    return sorted(every - set(_eager_imports(tree)))


def test_only_numeric_imports_numpy_or_scipy_at_module_level():
    # importing numpy, scipy or .numeric outside a function would load numpy
    # with every module that imports this one; inside a function is allowed
    eager = {
        path.name: [
            f"{path.name}:{line} {module}"
            for line, module in _eager_imports(ast.parse(path.read_text()))
            if module.split(".")[0] in ("numpy", "scipy") or module == ".numeric"
        ]
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert eager.pop("numeric.py")  # the scan does see numeric's own import
    hits = [hit for found in eager.values() for hit in found]
    assert not hits, f"module-level numpy, scipy or numeric imports: {hits}"


def test_function_local_imports_are_only_the_deliberate_lazy_loads():
    # numpy, scipy and .numeric load inside functions so that importing the
    # symbolic core stays light, and json and logging so that a command
    # loads them only to write JSON or to log; every other import belongs at
    # the top
    lazy = ("numpy", "scipy", "json", "logging")
    hits = [
        f"{path.name}:{line} {module}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, module in _lazy_imports(ast.parse(path.read_text()))
        if module.split(".")[0] not in lazy and module != ".numeric"
    ]
    assert not hits, f"function-local imports: {hits}"


def test_a_command_loads_no_standard_library_module_it_does_not_run():
    # each command is a fresh process, so every module it imports costs
    # start-up: dataclasses (with inspect), logging and json took about 20
    # ms of a 100 ms command.  A text command without JETFORMS_LOG runs none
    # of them, so it loads none beyond what the bare interpreter loads
    watched = ("dataclasses", "inspect", "logging", "json")
    fixture = str(SOURCE / "fixtures" / "fourth_order_wave.jet")
    env = {name: value for name, value in os.environ.items() if name != "JETFORMS_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")])
    )
    show = f"\nprint(sorted(m for m in sys.modules if m in {watched!r}))"
    command = (
        "import contextlib, io, sys\n"
        "import jetforms.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = jetforms.cli.main(['verify', {fixture!r}])\n"
        "print(code)"
    )
    loaded = []
    for statements in ("import sys", command):
        result = subprocess.run(
            [sys.executable, "-c", statements + show],
            env=env, capture_output=True, text=True, check=True,
        )
        loaded.append(result.stdout.splitlines())
    bare, (code, after) = loaded[0][-1], loaded[1]
    assert code == "0"
    assert set(ast.literal_eval(after)) <= set(ast.literal_eval(bare))


def test_no_library_module_uses_dataclasses():
    # importing dataclasses (with inspect) costs a command 6-9 ms, and each
    # class it decorates about 0.7 ms more; the classes write their own
    # __init__
    hits = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "dataclass" in line
    ]
    assert not hits, f"dataclass in the library: {hits}"


def _unused_imports(path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_library_modules_use_every_name_they_import():
    # __init__ imports to re-export; every other module imports to use
    paths = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert paths
    hits = [hit for path in paths for hit in _unused_imports(path)]
    assert not hits, f"imported but never used: {hits}"


def _top_level_public_names(tree) -> dict:
    """name -> defining statement, for each public function, class and
    assigned name at module level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        found[leaf.id] = node
    return {name: node for name, node in found.items() if not name.startswith("_")}


def _public_definitions(tree) -> list:
    """(label, name, defining node) for each public name at module level and
    each public method and property of a module-level class."""
    found = [(name, name, node) for name, node in _top_level_public_names(tree).items()]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name, item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return found


def _referenced_names(tree, skip=None) -> set:
    """Every name the tree reads, imports or spells as an identifier string
    (the benchmarks bind library functions with getattr on such strings);
    the subtree ``skip`` is left out."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_library_name_has_a_caller_outside_the_tests():
    # __init__ re-exports, so it counts as no caller; a name only tests call
    # belongs in the tests, as a reference or a helper.  Methods and
    # properties count by name: one is called if another module, a demo, a
    # benchmark or its own module outside its definition reads the name
    root = SOURCE.parents[1]
    modules = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set()
    for folder in ("demos", "benchmarks"):
        paths = sorted((root / folder).glob("*.py"))
        assert paths, folder
        for path in paths:
            outside |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    by_module = {stem: _referenced_names(tree) for stem, tree in modules.items()}
    # the scan does see methods and properties
    labels = {label for label, _, _ in _public_definitions(modules["expressions"])}
    assert {"Expr.derivation", "Expr.is_zero", "PolynomialSection.jet"} <= labels
    hits = []
    for stem, tree in modules.items():
        elsewhere = outside.union(*(names for other, names in by_module.items() if other != stem))
        for label, name, node in _public_definitions(tree):
            if name in elsewhere:
                continue
            if name not in _referenced_names(tree, skip=node):
                hits.append(f"{stem}.{label}")
    assert not hits, f"public library names that only tests call: {hits}"


def _optional_parameters(node) -> list:
    """(position, name) for each parameter of a function definition that has
    a default; the position of a keyword-only parameter is None."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
    keyword_only = zip(args.kwonlyargs, args.kw_defaults)
    return found + [(None, arg.arg) for arg, default in keyword_only if default is not None]


def _calls(tree):
    """(callee name, positional arguments, keyword names) for each call in
    the tree; a function handed to a wrapper, as in ``call(f, *args)``, counts
    as called with the arguments that follow it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = {keyword.arg for keyword in node.keywords}  # None: **kwargs
        for position, target in enumerate([node.func] + node.args):
            if isinstance(target, (ast.Name, ast.Attribute)):
                name = target.id if isinstance(target, ast.Name) else target.attr
                yield name, node.args[position:], keywords


def _sets(call, position, name) -> bool:
    _, args, keywords = call
    if name in keywords or None in keywords:
        return True
    if position is None:
        return False
    return len(args) > position or any(isinstance(a, ast.Starred) for a in args)


def test_every_option_of_a_public_library_function_is_set_outside_the_tests():
    # an option that no command, demo or benchmark sets only ever takes its
    # default: it belongs in the body as a constant
    root = SOURCE.parents[1]
    paths = [
        path
        for folder in (SOURCE, root / "demos", root / "benchmarks")
        for path in sorted(folder.glob("*.py"))
    ]
    calls = [call for path in paths for call in _calls(ast.parse(path.read_text()))]
    hits = [
        f"{path.stem}.{node.name}.{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        for position, name in _optional_parameters(node)
        if not any(_sets(call, position, name) for call in calls if call[0] == node.name)
    ]
    assert not hits, f"options that only tests set: {hits}"


def test_rational_arithmetic_of_the_symbolic_core_lives_in_expressions():
    # Expr stores integer numerators over one denominator and takes int and
    # Fraction scalars itself; the modules built on it import no fractions
    hits = [
        f"{name}:{line} {module}"
        for name in ("forms.py", "dedonder.py", "prolongations.py", "jets.py")
        for line, module in _eager_imports(ast.parse((SOURCE / name).read_text()))
        + _lazy_imports(ast.parse((SOURCE / name).read_text()))
        if module.split(".")[0] == "fractions"
    ]
    assert not hits, f"fractions imported outside expressions: {hits}"


def _private_imports(tree) -> list:
    """(line, module, name) for each name starting with "_" that an import
    takes from a jetforms module, relative or absolute."""
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "jetforms")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_library_module_imports_a_private_name_of_another():
    # each canonical order and shared helper has one owner that exports it
    # under a public name; a private name stays in the module defining it
    # the scan does see a private import, relative or absolute
    snippet = "from .expressions import _x\nfrom jetforms.jets import _y\n"
    assert [name for _, _, name in _private_imports(ast.parse(snippet))] == ["_x", "_y"]
    hits = [
        f"{path.name}:{line} {module}.{name}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, module, name in _private_imports(ast.parse(path.read_text()))
    ]
    assert not hits, f"private names imported across library modules: {hits}"


# the storage of an Expr and the kernels and tables keyed by interned ids,
# a section's table of images and the method that fills it included
EXPR_STORAGE_NAMES = {"_num", "_den", "_add_product", "_id", "_lift", "_images", "_image"}


def _storage_reads(tree):
    """(line, name) for each attribute read, name or import of an Expr
    storage name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in EXPR_STORAGE_NAMES:
            yield node.lineno, name


def test_only_expressions_reads_the_storage_of_an_expr():
    # an Expr's monomials are keyed by interned coordinate ids; every other
    # module reads coordinate tuples through terms(), variables() and
    # gradient(), and names a lift as the coordinate jet_coord(a, I + (i,))
    # that holonomic reduction hands to sum_of_products, so the id layout
    # cannot leak into what it computes
    root = SOURCE.parents[1]
    paths = [
        path
        for folder in (SOURCE, root / "demos", root / "benchmarks")
        for path in sorted(folder.glob("*.py"))
        if path != SOURCE / "expressions.py"
    ]
    assert len(paths) > 10
    found = {
        name
        for _, name in _storage_reads(ast.parse((SOURCE / "expressions.py").read_text()))
    }
    assert found == EXPR_STORAGE_NAMES  # the scan does see them where they live
    hits = [
        f"{path.name}:{line} {name}"
        for path in paths
        for line, name in _storage_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, f"Expr storage read outside expressions.py: {hits}"


def _int_calls(tree) -> list:
    """The calls of ``int`` in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    ]


def test_the_parser_converts_an_int_token_only_in_its_literal():
    # an int token's value, and its error when it has too many digits, come
    # from one value function, so the syntax pass converts nothing and no
    # value error can come before a syntax error later in the file
    assert len(_int_calls(ast.parse("int(a)\nfloat(b)\nf(int)\nint(int(c))"))) == 3
    tree = ast.parse((SOURCE / "problem.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    inside = _int_calls(functions["_literal"])
    assert inside  # the scan does see the conversion where it lives
    outside = [node.lineno for node in _int_calls(tree) if node not in inside]
    assert not outside, f"int() called outside _literal in problem.py: {outside}"
    parser = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Parser")
    assert "expect_int" not in {node.name for node in parser.body
                                if isinstance(node, ast.FunctionDef)}


def _load_tool(name):
    path = SOURCE.parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_line_counter_sums_the_modules_and_skips_docstrings(capsys):
    # tools/code_lines.py counts lines that hold code: a docstring-only edit
    # changes no count, and the total row is the sum of the module rows
    tool = _load_tool("code_lines")
    counts = tool.count()
    assert "dedonder.py" in counts
    assert tool.main([]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == list(counts)
    assert total.split() == [
        "total", str(sum(code for code, _ in counts.values())),
        str(sum(lines for _, lines in counts.values())),
    ]
    terse = 'class A:\n    """A."""\n\n    def f(self):\n        return 1  # one\n'
    wordy = (
        '"""Module\ndocs."""\nclass A:\n    """A,\n    at length."""\n\n'
        '    def f(self):\n        """F."""\n        # a comment\n        return 1\n'
    )
    assert tool.code_lines(terse) == tool.code_lines(wordy) == 3
    assert tool.code_lines('x = """a\nb"""\n') == 2


def test_startup_probe_prints_one_row_per_module_the_command_imports(capsys, monkeypatch):
    # tools/startup.py reads -X importtime from fresh processes; this checks
    # the shape of its table, not the times
    tool = _load_tool("startup")
    assert tool.main(["verify", "--runs", "2"]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "self_ms", "cumulative_ms"]
    table = {name: (float(s), float(c)) for name, s, c in (row.split() for row in rows)}
    assert len(table) == len(rows)
    assert {"jetforms", "jetforms.cli", "jetforms.problem", "jetforms.expressions"} <= set(table)
    assert "argparse" in table  # standard library, imported by the CLI
    assert "site" not in table  # imported before the command starts
    assert all(
        name.split(".")[0] in sys.stdlib_module_names or name.split(".")[0] == "jetforms"
        for name in table
    )
    assert all(0 <= s <= c for s, c in table.values())
    cumulative = [c for _, c in table.values()]
    assert cumulative == sorted(cumulative, reverse=True)
    # the total row sums one run's self times; each row is the best of the
    # runs, so the rows sum to no more than the total, up to their rounding
    words = total.split()
    assert words[:3] == ["total", "verify:", "jetforms"] and words[5:7] == ["standard", "library"]
    package, stdlib = float(words[3]), float(words[7])
    ours = [s for name, (s, _) in table.items() if name.split(".")[0] == "jetforms"]
    rounding = 0.005 * len(table)
    assert sum(ours) <= package + rounding
    assert sum(s for s, _ in table.values()) - sum(ours) <= stdlib + rounding
    # several commands give one table each, and "all" names the eight
    # commands of a benchmark pass; a label sets the command's options
    calls = []
    monkeypatch.setattr(tool, "best_times",
                        lambda argv, runs, checkout: calls.append(argv) or ({}, (1, 2)))
    assert tool.main(["all", "residual"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("total")] == [
        f"total {label}" for label in (*tool.FIXTURE_COMMANDS, "residual")
    ]
    fixture = str(tool.ROOT / tool.FIXTURE)
    assert calls[5] == ["residual", fixture, "--section", "sol"]
    assert calls[-1] == ["residual", fixture]


# the API calls of one rung of benchmarks/symbolic_ladder.py
LADDER_CALLS = {
    "dedonder." + name for name in (
        "phi_from_lagrangian", "symmetric_boundary_coefficients", "assemble_boundary_form",
        "dedonder_form", "lagrange_derivative", "perturbed_coefficients", "verify_condition3",
        "dedonder_residual", "compare_boundary_forms", "double_vertical_contraction_vanishes")
} | {"forms.is_semibasic", "forms.holonomic_reduce"} | {
    "prolongations." + name for name in ("prolong", "is_symmetry", "noether_current")
}


# (workload, options, header line, row label) of tools/ab.py: one alternated
# run per side, evolve on a small grid
AB_RUNS = [
    ("ladder", ["--runs", "1", "--seed", "2"], "runs 1, seed 2", "call"),
    ("evolve", ["--runs", "1", "--grid-n", "64", "--seed", "3"], "runs 1, grid-n 64, seed 3",
     "stage"),
]


@pytest.mark.parametrize("workload,options,header,label", AB_RUNS,
                         ids=[run[0] for run in AB_RUNS])
def test_ab_prints_a_row_for_every_call_or_stage(workload, options, header, label, capsys):
    # this checkout against itself; this checks the shape of the table, not
    # the times
    tool = _load_tool("ab")
    root = SOURCE.parents[1]
    folders = [root / name for name in ("src", "benchmarks", "tools")]
    before = sorted(path for folder in folders for path in folder.rglob("*"))
    modules, path, package = set(sys.modules), list(sys.path), sys.modules.get("jetforms")
    assert tool.main([workload, str(root), str(root), *options]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert lines[1].startswith("A ") and lines[2].startswith("B ")
    assert lines[3].startswith("B/A run ratio: median ")
    # each side's median count of minor page faults per run
    assert re.fullmatch(r"page faults per run: A median \d+(\.5)?, B median \d+(\.5)?",
                        lines[4]), lines[4]
    assert lines[5].split() == [label, "A", "ms", "B", "ms", "B/A"]
    rows = {name: (float(a), float(b), float(ratio)) for name, a, b, ratio in
            (line.split() for line in lines[6:])}
    assert len(rows) == len(lines) - 6
    if workload == "ladder":
        assert set(rows) == LADDER_CALLS
    else:
        assert list(rows) == [stage.replace(" ", "_") for stage in tool.Evolve.ROWS]
        assert all(a > 0 and b > 0 for name, (a, b, _) in rows.items() if name != "rest")
    # the copies leave no package behind, and nothing is written into the checkout
    assert not {name for name in set(sys.modules) - modules if name.startswith("jetforms")}
    assert sys.path == path and sys.modules.get("jetforms") is package
    assert sorted(path for folder in folders for path in folder.rglob("*")) == before
    with pytest.raises(SystemExit):
        tool.main([workload, str(root), str(root / "tools")])


DIFFERS = "the warm-up of B differs from A's warm-up"
# (workload, options, module, text, its replacement, error): one planted fault
# that changes an output the tool compares and no check of the benchmark
# sees, or one that a check of the benchmark sees
AB_FAULTS = [
    ("ladder", ["--seed", "2"], "dedonder.py",  # every level's sign flipped
     "terms[c[1]].append((partial, I, -1 if len(I) % 2 else 1))",
     "terms[c[1]].append((partial, I, 1 if len(I) % 2 else -1))", DIFFERS),
    ("evolve", ["--grid-n", "64"], "cli.py",  # the symmetric energy to 15 digits
     "{e_sym:.17g},{e_skew:.17g}", "{e_sym:.15g},{e_skew:.17g}", DIFFERS),
    ("ladder", ["--seed", "2"], "dedonder.py",  # every boundary form refused
     "            return False\n    return True", "            return False\n    return False",
     "rung 2-2-2: boundary form fails the double_vertical check"),
]


@pytest.mark.parametrize("workload,options,module,old,new,error", AB_FAULTS,
                         ids=["ladder-signs", "evolve-digits", "ladder-check"])
def test_ab_stops_when_b_computes_another_output(workload, options, module, old, new, error,
                                                  tmp_path, capsys):
    tool = _load_tool("ab")
    root = SOURCE.parents[1]
    copy = tmp_path / "src" / "jetforms"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / module).read_text()
    assert source.count(old) == 1
    (copy / module).write_text(source.replace(old, new))
    modules, package = set(sys.modules), sys.modules.get("jetforms")
    with pytest.raises(SystemExit, match=error):
        tool.main([workload, str(root), str(tmp_path), "--runs", "1", *options])
    assert not capsys.readouterr().out
    assert not {name for name in set(sys.modules) - modules if name.startswith("jetforms")}
    assert sys.modules.get("jetforms") is package


def test_startup_probe_runs_the_checkout_it_is_given(tmp_path, monkeypatch, capsys):
    # --checkout points both the package source and the fixture at another
    # checkout, so one copy of the tool measures two trees
    tool = _load_tool("startup")
    fixture = tmp_path / tool.FIXTURE
    fixture.parent.mkdir(parents=True)
    fixture.write_text("")
    launched = []

    def run(command, env, **kwargs):
        launched.append((command, env))
        return subprocess.CompletedProcess(command, 0, None, "-- jetforms command starts\n")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.main(["residual", "--runs", "1", "--checkout", str(tmp_path)]) == 0
    (command, env), = launched
    assert f"main({['residual', str(fixture)]!r})" in command[-1]
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path / "src")
    # a directory without the fixture is refused before anything runs
    with pytest.raises(SystemExit):
        tool.main(["verify", "--checkout", str(tmp_path / "src")])
    assert len(launched) == 1 and "holds no" in capsys.readouterr().err


def test_fixture_outputs_prints_one_fingerprint_per_run(monkeypatch, capsys):
    # tools/fixture_outputs.py runs every command and demo in a fresh
    # process; this checks the list of runs and the line of one of them
    root = SOURCE.parents[1]
    tool = _load_tool("fixture_outputs")
    runs = tool.runs(root)
    names = [name for name, _ in runs]
    demos = sorted((root / "demos").glob("*.py"))
    # seven commands as text and --json, three sections, one seed on two
    # grid sizes, two seeds at 4096 points, a negative step, the demos
    assert len(set(names)) == len(names) == 14 + 3 + 2 + 3 + len(demos) and demos
    assert {"noether --json", "residual --section cubic", "evolve --seed 1",
            "evolve --grid-n 16384 --seed 1", "evolve --grid-n 4096 --seed 0",
            "evolve --grid-n 4096 --seed 2", "evolve --t1 -1"} <= set(names)
    monkeypatch.setattr(tool, "runs", lambda checkout: [run for run in runs if run[0] == "verify"])
    assert tool.main([str(root)]) == 0
    name, code, out, err = capsys.readouterr().out.split()
    assert (name, code) == ("verify", "0")
    assert len(out) == 64 and int(out, 16) >= 0
    assert err == hashlib.sha256(b"").hexdigest()


def test_traffic_lists_the_executable_lines_no_run_reaches(monkeypatch, capsys):
    # tools/traffic.py line-traces every run in one process; on one command
    # a raise of check_lagrangian is listed as never run, with its function,
    # and a line of derive, which every command runs, is not
    root = SOURCE.parents[1]
    tool = _load_tool("traffic")
    runs = tool.runs(root)
    names = [name for name, _ in runs]
    demos = sorted((root / "demos").glob("*.py"))
    # seven commands as text and --json, two evolve runs, the demos, the ladder
    assert len(set(names)) == len(names) == 14 + 2 + len(demos) + 1 and demos
    monkeypatch.setattr(tool, "runs",
                        lambda checkout: [run for run in runs if run[0] == "euler-lagrange"])
    assert tool.main([str(root)]) == 0
    report = capsys.readouterr().out.split("\n")
    at = next(n for n, line in enumerate(report) if line.startswith("dedonder.py: "))
    missed = {}
    for row in report[at + 1:]:
        if not row.startswith("  "):
            break
        span, function = row.split()
        first, _, last = span.partition("-")
        missed.update(dict.fromkeys(range(int(first), int(last or first) + 1), function))
    source = (SOURCE / "dedonder.py").read_text().split("\n")
    never = 2 + next(n for n, line in enumerate(source) if "len(coord[2]) > cfg.k" in line)
    always = 1 + source.index("    dec = PhiDecomposition.of_lagrangian(cfg, L)")
    assert source[never - 1] == "            raise ValueError("
    assert missed[never] == "check_lagrangian"
    assert always not in missed
    assert tool.executable_lines(SOURCE / "dedonder.py")[always] == "derive"


def test_every_mutant_row_fits_the_tree():
    # tools/mutants.py plants each row's fault in a copy of the tree; a row
    # whose old text moved or whose test file is gone must be updated with
    # the change that moved it.  No mutant runs here
    tool = _load_tool("mutants")
    names = [row[0] for row in tool.MUTANTS]
    assert len(names) == len(set(names)) >= 20
    root = SOURCE.parents[1]
    assert [name for name, *_ in tool.MUTANTS if tool.stale(root, (name, *_))] == []
    for name, path, old, new, tests in tool.MUTANTS:
        assert old != new and tests, name
        assert all(test.startswith("tests/test_") for test in tests), name


def test_mutant_outcomes_follow_the_exit_code_of_the_tests(tmp_path, monkeypatch):
    # the outcome of one row, with pytest replaced by a given exit code; the
    # mutated file is put back whatever the outcome
    tool = _load_tool("mutants")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("")
    target = tmp_path / "a.py"
    target.write_text("x = 1\n")
    row = ("flip", "a.py", "x = 1", "x = 2", ("tests/test_a.py::test_x",))
    seen = []
    for code, outcome in ((1, "killed"), (2, "killed"), (0, "survived"), (4, "error 4")):
        def fake(copy, tests, code=code):
            seen.append((target.read_text(), tests))
            return code

        monkeypatch.setattr(tool, "run_tests", fake)
        assert tool.check(tmp_path, row) == outcome
        assert target.read_text() == "x = 1\n"
    assert seen == [("x = 2\n", ("tests/test_a.py::test_x",))] * 4
    # a row that no longer fits runs no tests
    for stale in (("flip", "a.py", "x = 3", "x = 2", ("tests/test_a.py",)),
                  ("flip", "a.py", "x = 1", "x = 2", ("tests/test_b.py",)),
                  ("flip", "b.py", "x = 1", "x = 2", ("tests/test_a.py",))):
        assert tool.check(tmp_path, stale) == "stale"
    assert len(seen) == 4
