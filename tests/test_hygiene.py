"""Source hygiene checks that need no third-party linter."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fastpath"
SPANS = ROOT / "perfbench" / "spans.py"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(SRC.parent)}:{line} imports {name}"
            for name, line in _imported_names(tree).items() if name not in used]


def test_no_unused_module_level_imports():
    # __init__.py files re-export what they import, so they are skipped
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [line for path in modules for line in unused_imports(path)]
    assert unused == []


# Value types are named tuples: a dataclass costs its generated methods,
# and the imports of `dataclasses` and `inspect`, on every start of the
# package.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of every module that `tree` imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    found = [f"{path.relative_to(SRC.parent)} imports {name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in imported_modules(ast.parse(path.read_text()))
             if name in SLOW_IMPORTS]
    assert found == []


def test_importing_the_simulator_loads_no_slow_module():
    probe = ("import sys; before = set(sys.modules); import fastpath.simnet; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, check=True,
                          timeout=60)
    loaded = set(done.stdout.split())
    assert "fastpath.simnet" in loaded
    assert loaded & SLOW_IMPORTS == set()


# A cache that lives at module level outlives the run that filled it and is
# shared by every caller in the process; memoized results live on the
# immutable value or the run they describe instead. The one exception is a
# pure function of a committee index.
ALLOWED_CACHES = {"crypto.validator_public_key"}
CACHE_DECORATORS = {"cache", "lru_cache"}
CONTAINER_CALLS = {"dict", "set", "defaultdict", "OrderedDict"}
FILLERS = {"add", "update", "setdefault", "__setitem__"}


def _callee_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _module_containers(tree: ast.Module) -> set[str]:
    """Names the module binds at top level to a dict or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and _callee_name(value) in CONTAINER_CALLS):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _filled(node: ast.AST, containers: set[str]) -> str | None:
    """The module-level container `node` adds an entry to, if any."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        target = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in FILLERS:
        target = node.func.value
    elif isinstance(node, ast.AugAssign):
        target = node.target
    else:
        return None
    if isinstance(target, ast.Name) and target.id in containers:
        return target.id
    return None


def process_wide_caches(tree: ast.Module, module: str) -> list[str]:
    """Cache decorators, and module-level dicts or sets that a function
    adds entries to, outside `ALLOWED_CACHES`."""
    containers = _module_containers(tree)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            if (_callee_name(dec) in CACHE_DECORATORS
                    and f"{module}.{fn.name}" not in ALLOWED_CACHES):
                found.append(f"{module}:{dec.lineno} caches {fn.name}")
        for node in ast.walk(fn):
            name = _filled(node, containers)
            if name is not None:
                found.append(f"{module}:{node.lineno} {fn.name} writes "
                             f"module-level {name}")
    return found


def test_no_process_wide_caches():
    modules = sorted(SRC.rglob("*.py"))
    found = []
    for path in modules:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found += process_wide_caches(ast.parse(path.read_text()), module)
    assert found == []


def test_cache_check_flags_planted_caches():
    planted = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "_SEEN = {}\n"
        "_KEYS: set = set()\n"
        "_CONST = {1: 2}\n"
        "@functools.cache\n"
        "def a(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def b(x): return x\n"
        "def c(x):\n"
        "    _SEEN[x] = 1\n"
        "    _KEYS.add(x)\n"
        "    return _CONST[x]\n"
        "@functools.cache\n"
        "def validator_public_key(i): return i\n")
    assert process_wide_caches(planted, "crypto") == [
        "crypto:6 caches a", "crypto:8 caches b",
        "crypto:11 c writes module-level _SEEN",
        "crypto:12 c writes module-level _KEYS"]


# Python 3.11's `functools.cached_property` takes a class-wide lock on every
# first access of every instance; memos use the lock-free
# `types.cached_property`.
def locking_memos(tree: ast.Module, module: str) -> list[str]:
    """Imports of `functools.cached_property`, and reads of it through a
    name bound to the `functools` module."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and any(a.name == "cached_property" for a in node.names):
            found.append(f"{module}:{node.lineno} imports cached_property")
        elif isinstance(node, ast.Attribute) \
                and node.attr == "cached_property" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append(f"{module}:{node.lineno} uses {node.value.id}"
                         ".cached_property")
    return found


def test_no_locking_memo():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found += locking_memos(ast.parse(path.read_text()), module)
    assert found == []


def test_locking_memo_check_flags_planted_uses():
    planted = ast.parse(
        "import functools\n"
        "import functools as ft\n"
        "from functools import wraps, cached_property\n"
        "from functools import cached_property as memo\n"
        "from .types import cached_property as fine\n"
        "class A:\n"
        "    @functools.cached_property\n"
        "    def a(self): return 1\n"
        "    @ft.cached_property\n"
        "    def b(self): return 2\n"
        "    @fine\n"
        "    def c(self): return 3\n"
        "    def d(self, types): return types.cached_property\n")
    assert locking_memos(planted, "m") == [
        "m:3 imports cached_property", "m:4 imports cached_property",
        "m:7 uses functools.cached_property", "m:9 uses ft.cached_property"]


# `check_invariants` reads a trace in one pass, into the `TraceIndex` it
# hands every checker; a checker that walked the events itself would add a
# pass of its own.
def trace_scans(tree: ast.Module, functions: set[str]) -> list[str]:
    """In the named top-level functions: reads of an `.events` attribute
    and calls of a `.select` method, in line order."""
    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in functions:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "events":
                found.append((node.lineno, f"{fn.name}:{node.lineno} reads"
                                           " .events"))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "select":
                found.append((node.lineno, f"{fn.name}:{node.lineno} calls"
                                           " .select"))
    return [line for _, line in sorted(found)]


def test_checkers_read_the_trace_index():
    from fastpath.simnet.invariants import CHECKERS

    tree = ast.parse((SRC / "simnet" / "invariants.py").read_text())
    checkers = {checker.__name__ for _, checker in CHECKERS}
    assert checkers <= {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}
    assert trace_scans(tree, checkers) == []


def test_trace_scan_check_flags_planted_scans():
    planted = ast.parse(
        "def scans(trace):\n"
        "    for event in trace.events:\n"
        "        pass\n"
        "    return trace.select('x')\n"
        "def walks(trace):\n"
        "    return [e for i, e in enumerate(trace.events)]\n"
        "def reads_index(index):\n"
        "    return list(index.of('x', 'y')), index.meta, index.honest\n"
        "def not_a_checker(trace):\n"
        "    return trace.select('y'), trace.events\n")
    assert trace_scans(planted, {"scans", "walks", "reads_index"}) == [
        "scans:2 reads .events", "scans:4 calls .select",
        "walks:6 reads .events"]


# The trace recorder sets these on every event itself, over the fields it
# was passed, so an emit site that passed one would lose it silently.
RECORD_KEYS = {"tick", "actor", "kind"}


def _emit_forwarders(trees) -> set[str]:
    """`emit`, plus every function that passes its own `**kwargs` on to an
    emit call."""
    names = {"emit"}
    for tree in trees:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.args.kwarg is None:
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and _callee_name(call) == "emit" \
                        and any(k.arg is None and isinstance(k.value, ast.Name)
                                and k.value.id == fn.args.kwarg.arg
                                for k in call.keywords):
                    names.add(fn.name)
    return names


def emit_field_clashes(trees: dict[str, ast.Module]) -> list[str]:
    """Calls of emit, or of a function forwarding to it, that pass a field
    named tick, actor or kind, by keyword or in a `**{...}` literal."""
    forwarders = _emit_forwarders(trees.values())
    found = []
    for module, tree in trees.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) \
                    or _callee_name(call) not in forwarders:
                continue
            names = [k.arg for k in call.keywords if k.arg is not None]
            for k in call.keywords:
                if k.arg is None and isinstance(k.value, ast.Dict):
                    names += [key.value for key in k.value.keys
                              if isinstance(key, ast.Constant)]
            found += [f"{module}:{call.lineno} passes {name}"
                      for name in names if name in RECORD_KEYS]
    return found


def test_no_emit_site_passes_a_record_key():
    trees = {".".join(path.relative_to(SRC).with_suffix("").parts):
             ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert emit_field_clashes(trees) == []


def test_record_key_check_flags_planted_clashes():
    planted = ast.parse(
        "def note(env, **fields):\n"
        "    env.emit('note', **fields)\n"
        "def a(env):\n"
        "    env.emit('x', tick=1, ok=True)\n"
        "    env.emit('y', **{'actor': 'v0'})\n"
        "    note(env, kind='z')\n"
        "    env.emit('fine', tx='ab')\n")
    assert emit_field_clashes({"m": planted}) == [
        "m:4 passes tick", "m:5 passes actor", "m:6 passes kind"]


# What a trace records of a key, a key list or a counter-delta list is a
# tuple memoized on the value (`ObjectKey.ids`, `EffectSummary.consumed_ids`
# and the like), shared by every validator that records it; an emit site
# that hexes inside a comprehension builds the payload again for each event.
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def hexing_emits(tree: ast.Module, module: str) -> list[str]:
    """Calls of emit whose arguments call `.hex()` inside a comprehension."""
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or _callee_name(call) != "emit":
            continue
        args = [*call.args, *(k.value for k in call.keywords)]
        if any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "hex"
               for arg in args for comp in ast.walk(arg)
               if isinstance(comp, COMPREHENSIONS)
               for node in ast.walk(comp)):
            found.append(f"{module}:{call.lineno} hexes in a comprehension")
    return found


def test_emit_sites_pass_shared_payloads():
    found = []
    for name in ("validator", "client"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        found += hexing_emits(tree, name)
    assert found == []


def test_hexing_emit_check_flags_planted_sites():
    planted = ast.parse(
        "def a(self, env, keys, plan):\n"
        "    self.emit('x', keys=[[k.object_id.hex(), k.version]\n"
        "                         for k in keys])\n"
        "    self.emit('y', keys=plan.consumed_ids, tx=plan.digest.hex())\n"
        "    env.emit('z', **{'c': {d.hex(): 1 for d in keys}})\n"
        "    emit('w', tuple(k.hex() for k in keys))\n"
        "    rows = [k.hex() for k in keys]\n"
        "    self.emit('v', keys=rows, ids=[k.ids for k in keys])\n")
    assert hexing_emits(planted, "m") == [
        "m:2 hexes in a comprehension", "m:5 hexes in a comprehension",
        "m:6 hexes in a comprehension"]


# Every event kind the program emits has a reader (a checker, the CLI, the
# benchmark or a test) that names the kind in a string outside an emit call;
# a mention in prose is no reader. These kinds wait for the ROADMAP item
# that will read them.
UNREAD_KINDS = {
    # item 4: epoch change, checked from the trace
    "epoch_pause", "end_of_epoch_sent", "epoch_advanced",
    # item 8: every path the paper describes runs under --explore
    "budget_credit",
    # item 16: metrics and pointed violations, computed from the trace
    "budget_debit", "unlock_rejected",
}
# This file's allowlist and planted sources name kinds without reading them.
READERS = [path for directory in ("perfbench", "tests")
           for path in sorted((ROOT / directory).rglob("*.py"))
           if path.name != "test_hygiene.py"]


def _emitted_kind(call: ast.Call) -> tuple[str, str] | None:
    """The kind an emit call records, as written (a `*` for each field of
    an f-string) and as the regex a reader's string must match. It is the
    last positional argument: an actor's `emit` is the recorder's, bound to
    the actor's name."""
    kind = call.args[-1] if call.args else None
    if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
        return kind.value, re.escape(kind.value)
    if isinstance(kind, ast.JoinedStr):
        parts = [(v.value, re.escape(v.value)) if isinstance(v, ast.Constant)
                 else ("*", r"\w+") for v in kind.values]
        return "".join(p for p, _ in parts), "".join(r for _, r in parts)
    return None


def unread_kinds(modules: dict[str, ast.Module],
                 others: list[ast.Module]) -> list[str]:
    """Kinds that `modules` emit and that no string constant outside an emit
    call, in any module, `others` included, names; each at its first emit."""
    first, named = {}, set()
    for module, tree in modules.items():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _callee_name(call) == "emit":
                kind = _emitted_kind(call)
                if kind is not None and kind not in first:
                    first[kind] = f"{module}:{call.lineno} {kind[0]}"
    for tree in [*modules.values(), *others]:
        emitting = {id(node) for call in ast.walk(tree)
                    if isinstance(call, ast.Call) and _callee_name(call) == "emit"
                    for node in ast.walk(call)}
        named |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in emitting}
    return [site for (_, pattern), site in first.items()
            if not any(re.fullmatch(pattern, name) for name in named)]


def test_every_emitted_kind_has_a_reader():
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts):
               ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    unread = unread_kinds(modules, [ast.parse(path.read_text())
                                    for path in READERS])
    assert [site for site in unread
            if site.split()[-1] not in UNREAD_KINDS] == []
    # a kind that gains a reader, or is no longer emitted, leaves the list
    assert sorted(site.split()[-1] for site in unread) == sorted(UNREAD_KINDS)


def test_unread_kind_check_flags_planted_kinds():
    emitting = ast.parse(
        "def a(self, env, recorder):\n"
        "    self.emit('read', x=1)\n"
        "    env.emit('lonely')\n"
        "    recorder.emit('net', 'dropped', src='a')\n"
        "    self.emit(f'{self.kind}_finished', ok=True)\n"
        "    self.emit(f'{self.kind}_orphaned')\n"
        "    self.emit('lonely', again=True)\n"
        "    return 'net'\n")
    reading = ast.parse(
        "def check(trace, emit):\n"
        "    '''A dropped message is no reader of dropped.'''\n"
        "    emit('lonely')\n"
        "    return trace.select('read'), trace.select('fast_finished')\n")
    assert unread_kinds({"m": emitting}, [reading]) == [
        "m:3 lonely", "m:4 dropped", "m:6 *_orphaned"]


# Every `ErrorCode` member is raised or judged somewhere in src: a code that
# no validator sends and no driver reads is a refusal the protocol lost.
def unnamed_error_codes(modules: dict[str, ast.Module]) -> list[str]:
    """Members of the `ErrorCode` class that no `ErrorCode.<member>`
    outside the class names, in any of `modules`; each at its definition."""
    defined, named = {}, set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ErrorCode":
                defined.update((target.id, f"{module}:{stmt.lineno} {target.id}")
                               for stmt in node.body
                               if isinstance(stmt, ast.Assign)
                               for target in stmt.targets)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "ErrorCode":
                named.add(node.attr)
    return [site for name, site in defined.items() if name not in named]


def test_every_error_code_is_named_in_src():
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts):
               ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert unnamed_error_codes(modules) == []


def test_error_code_check_flags_planted_codes():
    defining = ast.parse(
        "class ErrorCode(str, enum.Enum):\n"
        "    SENT = 'Sent'\n"
        "    LOST = 'Lost'\n"
        "    JUDGED = 'Judged'\n")
    using = ast.parse(
        "def f(msg, other):\n"
        "    '''ErrorCode.LOST in prose is no use.'''\n"
        "    if msg.code == ErrorCode.JUDGED.value:\n"
        "        raise ProtocolError(ErrorCode.SENT)\n"
        "    return other.LOST, 'Lost'\n")
    assert unnamed_error_codes({"types": defining, "m": using}) == [
        "types:3 LOST"]


# The loader checks each action field that `scenario.FIELDS` declares, so a
# field the client workflows read without declaring it reaches them as
# written, of any type and spelling.
def action_reads(tree: ast.Module, names=("action",)) -> dict[str, int]:
    """Fields read as `d.get("f", ...)` or `d["f"]` from a dict named in
    `names`, each with its first line."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args:
            target, field = node.func.value, node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            target, field = node.value, node.slice
        else:
            continue
        if isinstance(target, ast.Name) and target.id in names \
                and isinstance(field, ast.Constant):
            found[field.value] = min(found.get(field.value, node.lineno),
                                     node.lineno)
    return found


def undeclared_action_fields(tree: ast.Module, declared) -> list[str]:
    """Fields read from `action` that `declared` lacks, each at its first
    line."""
    return [f"{line} {field}" for field, line
            in sorted(action_reads(tree).items(), key=lambda f: f[1])
            if field not in declared]


def test_workflows_read_only_declared_action_fields():
    from fastpath.simnet.scenario import FIELDS

    tree = ast.parse((SRC / "simnet" / "workflows.py").read_text())
    assert undeclared_action_fields(tree, FIELDS) == []


def test_action_field_check_flags_planted_fields():
    planted = ast.parse(
        "def start(self, action, other):\n"
        "    gas = action['gas']\n"
        "    fast = action.get('fast', False)\n"
        "    hidden = other.get('hidden'), other['hidden']\n"
        "    again = {**action, 'extra': 1}\n"
        "    return action['bogus'], action.get('gas'), action.get('fast')\n")
    assert undeclared_action_fields(planted, {"gas"}) == ["3 fast", "6 bogus"]


# The dual: every declared field is a knob that the run reads, by a constant
# key from an action or its replacement, outside the loader that checks it.
# A field that nothing reads would be checked, written and then ignored.
def unread_declared_fields(trees, declared) -> list[str]:
    read = set()
    for tree in trees:
        read |= action_reads(tree, ("action", "replacement")).keys()
    return sorted(set(declared) - read)


def test_every_declared_action_field_is_read():
    from fastpath.simnet.scenario import FIELDS

    trees = [ast.parse(path.read_text())
             for path in sorted((SRC / "simnet").glob("*.py"))
             if path.name != "scenario.py"]
    assert unread_declared_fields(trees, FIELDS) == []


def test_unread_field_check_flags_planted_fields():
    planted = [
        ast.parse("def run(action, replacement, other, name):\n"
                  "    return (action['gas'], replacement.get('to'),\n"
                  "            other['memo'], action.get(name))\n"),
        ast.parse("present = 'inputs' in action\n"
                  "script = [{'at': 1, 'signers': ['alice']}]\n")]
    declared = dict.fromkeys(("gas", "to", "memo", "inputs", "at", "signers"))
    assert unread_declared_fields(planted, declared) == [
        "at", "inputs", "memo", "signers"]


def _span_targets() -> list[tuple[str, str, str]]:
    """`TARGETS` of the benchmark's span module, loaded from its file
    without registering or installing anything."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    # The benchmark wraps a method through `cls.__dict__[attr]`, so a method
    # the class only inherits cannot be wrapped; a function is re-bound as
    # a module attribute.
    unresolved = []
    for name, module_name, path in _span_targets():
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, path)
        if not found:
            unresolved.append(f"{name}: {module_name}.{path}")
    assert unresolved == []


# Code that nothing but its own tests uses gets deleted: every top-level
# name of the package must be used somewhere in src/ or by the benchmark
# scripts, which name some program functions in strings.
BENCH_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = {"__all__", "main"}


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    """Names a module defines at top level, with their line, outside its
    `__all__` and `main`."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update((t.id, node.lineno) for t in targets
                         if isinstance(t, ast.Name))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    return {name: line for name, line in names.items()
            if name not in EXEMPT and name not in exported}


def _uses(tree: ast.Module) -> set[str]:
    """Identifiers a module reads: loaded names, attributes, imported
    names, and dotted names spelled as a whole string constant."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            used.update(node.value.split("."))
    return used


def unreferenced_names(modules: dict[str, ast.Module],
                       others: list[ast.Module]) -> list[str]:
    """Top-level names of `modules` that no module, `others` included,
    uses."""
    used = set()
    for tree in [*modules.values(), *others]:
        used |= _uses(tree)
    return [f"{module}:{line} {name}"
            for module, tree in modules.items()
            for name, line in _top_level_names(tree).items()
            if name not in used]


def test_no_unreferenced_top_level_names():
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts):
               ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in BENCH_SCRIPTS]
    assert bench
    assert unreferenced_names(modules, bench) == []


def test_unreferenced_name_check_flags_planted_names():
    defining = ast.parse(
        "import struct\n"
        "__all__ = ['exported']\n"
        "SIZE = 32\n"
        "WIDTH = 8\n"
        "def exported(): return WIDTH\n"
        "def helper(): pass\n"
        "def dead(): return helper()\n"
        "class Unused: pass\n"
        "class Named: pass\n"
        "def main(): pass\n")
    other = ast.parse("from m import helper as h\n"
                      "TARGETS = [('x', 'm', 'Named.method')]\n"
                      "'''dead is mentioned in a docstring'''\n")
    assert unreferenced_names({"m": defining}, [other]) == [
        "m:3 SIZE", "m:7 dead", "m:8 Unused"]


# An attribute that is stored and never read is dead state. A store into
# an entry, `self.x[k] = v`, writes the attribute's value; it does not read
# it.
def write_only_attributes(modules: dict[str, ast.Module],
                          others: list[ast.Module]) -> list[str]:
    """The first `self.x = ...` store, per module and attribute, of every
    attribute of `modules` that no module, `others` included, reads."""
    read = set()
    for tree in [*modules.values(), *others]:
        entry_stores = {id(node.value) for node in ast.walk(tree)
                        if isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, (ast.Store, ast.Del))}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in entry_stores}
    found = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and node.attr not in read:
                key = (module, node.attr)
                found[key] = min(found.get(key, node.lineno), node.lineno)
    return [f"{module}:{line} self.{attr}"
            for (module, attr), line in sorted(found.items())]


def test_no_write_only_attributes():
    modules = {".".join(path.relative_to(SRC).with_suffix("").parts):
               ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in BENCH_SCRIPTS]
    assert write_only_attributes(modules, bench) == []


def test_write_only_check_flags_planted_attributes():
    planted = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "        self.dead = 2\n"
        "        self.table = {}\n"
        "        self.used = []\n"
        "        self.external = 3\n"
        "    def step(self, k):\n"
        "        self.count = 0\n"
        "        self.count += 1\n"
        "        self.table[k] = 1\n"
        "        self.used.append(k)\n"
        "        return self.kept\n")
    other = ast.parse("def peek(a): return a.external\n")
    assert write_only_attributes({"m": planted}, [other]) == [
        "m:9 self.count", "m:4 self.dead", "m:5 self.table"]


# Byzantine behaviour lives in the simulator's fault table only. Each fault
# class replaces the hook methods named here, each defined on the honest
# class it derives from, and never a `process_*` handler, which the
# benchmark wraps on `ValidatorState` itself.
FAULT_HOOKS = {"crash": {"handle"}, "lazy_forwarder": {"_forward"},
               "vote_withholder": {"_on_unlock_rqt"},
               "equivocator": {"_check_locks"},
               "stale_replier": {"_signable", "_carried"},
               "infinite_budget": {"_budgeted"}}


def test_fault_classes_override_only_honest_hooks():
    from fastpath.simnet.faults import FAULTS
    from fastpath.simnet.scenario import FAULT_KINDS

    assert FAULT_KINDS == set(FAULTS) == {"honest", *FAULT_HOOKS}
    honest = FAULTS["honest"]
    for kind, classes in FAULTS.items():
        overrides = set()
        for cls, base in zip(classes, honest):
            if cls is base:
                continue
            assert cls.__bases__ == (base,), kind
            methods = {name for name, value in vars(cls).items()
                       if callable(value)}
            assert all(callable(getattr(base, name, None)) for name in methods)
            assert not any(name.startswith("process_") for name in methods)
            overrides |= methods
        assert overrides == FAULT_HOOKS.get(kind, set()), kind


def _identifiers(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                names.add(value)
    return names


def test_protocol_library_names_no_fault():
    from fastpath.simnet.faults import FAULTS

    tree = ast.parse((SRC / "validator.py").read_text())
    names = _identifiers(tree)
    assert not {n for n in names if n.lower() == "fault"
                or n.startswith("FAULT_") or n == "allow_stale"}
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(FAULTS)


def test_runner_compares_no_fault_kind():
    from fastpath.simnet.faults import FAULTS

    tree = ast.parse((SRC / "simnet" / "runner.py").read_text())
    compared = {node.value for cmp in ast.walk(tree)
                if isinstance(cmp, ast.Compare)
                for operand in [cmp.left, *cmp.comparators]
                for node in ast.walk(operand)
                if isinstance(node, ast.Constant)}
    assert not compared & set(FAULTS)


# Owner consent is judged in one place: in the validator, only `_consents`
# builds an `AuthContext` or calls `verify_reveal`, so a second consent
# path, over an included set of its own, cannot come back unnoticed.
CONSENT_CALLS = {"AuthContext", "verify_reveal"}


def consent_calls_outside(tree: ast.Module, judge: str = "_consents"
                          ) -> list[str]:
    """Calls of `CONSENT_CALLS` outside the function named `judge`, in line
    order."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == judge
              for node in ast.walk(fn)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and _callee_name(node) in CONSENT_CALLS and id(node) not in inside]
    return [f"{node.lineno} calls {_callee_name(node)}"
            for node in sorted(calls, key=lambda node: node.lineno)]


def test_one_function_judges_owner_consent():
    tree = ast.parse((SRC / "validator.py").read_text())
    judge, = [fn for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_consents"]
    assert {_callee_name(node) for node in ast.walk(judge)
            if isinstance(node, ast.Call)} >= CONSENT_CALLS
    assert consent_calls_outside(tree) == []


def test_consent_check_flags_a_planted_second_call_site():
    planted = ast.parse(
        "class ValidatorState:\n"
        "    def _consents(self, evidence, message, oids, objects):\n"
        "        ctx = AuthContext(included_oids=oids)\n"
        "        return all(verify_reveal(o.owner, ctx) for o in objects)\n"
        "    def _gas_ok(self, rqt, obj):\n"
        "        ctx = AuthContext(included_oids={rqt.gas.object_id})\n"
        "        return authenticators.verify_reveal(obj.owner, ctx)\n"
        "ok = verify_reveal(root, reveal, path, ctx)\n")
    assert consent_calls_outside(planted) == [
        "6 calls AuthContext", "7 calls verify_reveal", "8 calls verify_reveal"]
