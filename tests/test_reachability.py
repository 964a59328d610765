"""Every name of src/naewidth is reached from the program.

A function, class, method, field or option that only the tests reach is
code the program does not need.  The program is the library itself,
scripts/ and perfbench/; tests/ does not count.  The files are parsed with
ast, not imported.

1. Every module-level name but a dunder, private ones too, is read (a Name
   or Attribute load, or an import) outside its own definition.  Every
   public method, property, dataclass field and self. attribute of a public
   class is read as an attribute.  The receiver's class is inferred where
   the code says it: self, an annotated parameter, a name bound to a call
   of a class or of a function annotated to return one.  A read through
   any other receiver counts for every class with a member of that name,
   and a read off the parsed command line (args) for none.
2. Every defaulted parameter of a public function or method is set, by
   keyword or by position, by some call of that name; a call of a class is a
   call of its __init__.  A call through a receiver whose class is inferred
   as in 1 counts only for that class's methods.  An argument that only
   passes on the caller's own defaulted parameter sets it only if that one
   is set.

Reads and calls inside a definition the guard flags do not count, so a
chain of dead code is flagged whole.
"""

import ast
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "naewidth"

ALLOWED = {
    "wgraph.check_balancing_tree":
        "model checker for balancing trees: the tests hold path mappings and the "
        "brute-force tree search to it",
    "widths.layout_value":
        "model checker for tree layouts: the tests hold exact-width witnesses and "
        "caterpillar bounds to it",
}
NAMESPACES = {"args"}  # the parsed command line: its attributes are options

def program_files():
    return (sorted(SRC.glob("*.py")),
            sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))


def defaulted(fn, method):
    """Names of fn's defaulted parameters, and its positional parameters
    after self for a method."""
    positional = [arg.arg for arg in fn.args.posonlyargs + fn.args.args][1 if method else 0:]
    names = positional[len(positional) - len(fn.args.defaults):] if fn.args.defaults else []
    names += [arg.arg for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
              if default is not None]
    return names, positional


class Program:
    """Definitions of the library and the reads and calls of every file."""

    def __init__(self, src_files, other_files):
        src = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src_files}
        trees = list(src.values()) + [ast.parse(p.read_text(encoding="utf-8")) for p in other_files]
        self.classes = {node.name: node for tree in src.values() for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        self.family = {name: self._family(name) for name in self.classes}
        returns = {}
        for tree in src.values():
            for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
                returns.setdefault(fn.name, []).append(self._annotated(fn.returns))
        self.returns = {name: set().union(*kinds) for name, kinds in returns.items()
                        if None not in kinds}
        self.names, self.attrs, self.calls = [], [], []  # (name, ..., enclosing definitions)
        for tree in trees:
            self._visit(tree, {}, (), None, None)
        self.members, self.globals, self.params = [], [], {}
        for module, tree in src.items():
            self._define(module, tree)

    def _family(self, name):
        """The class with its src bases and subclasses, transitively."""
        family, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls in family:
                continue
            family.add(cls)
            todo += [base.id for base in self.classes[cls].bases
                     if isinstance(base, ast.Name) and base.id in self.classes]
            todo += [sub for sub, node in self.classes.items()
                     if any(isinstance(b, ast.Name) and b.id == cls for b in node.bases)]
        return family

    def _annotated(self, node):
        """Classes an annotation names: a src class, none for another name,
        None when it says nothing."""
        if isinstance(node, ast.Name):
            return self.family.get(node.id, set())
        return None

    def _type(self, node, env):
        """Classes the value of node can be, or None when unknown."""
        if isinstance(node, ast.Name):
            return env.get(node.id, self.family.get(node.id))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            return self.family.get(name, self.returns.get(name))
        return None

    def _scope(self, fn, cls, env):
        """The receiver types fn's body can read: the enclosing ones, self,
        annotated parameters and names bound to a typed value."""
        env = dict(env)
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for i, arg in enumerate(args):
            kinds = (self.family.get(cls, set()) if cls and i == 0
                     else self._annotated(arg.annotation))
            if kinds is not None:
                env[arg.arg] = kinds
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for name, value in pairs:
                        kinds = self._type(value, env)
                        if isinstance(name, ast.Name) and kinds is not None:
                            env[name.id] = env.get(name.id, set()) | kinds
        return env

    def _visit(self, node, env, stack, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                self._visit(child, self._scope(child, cls, env), stack + (id(child),), None, child)
                continue
            if isinstance(child, ast.ClassDef):
                self._visit(child, env, stack + (id(child),), child.name, fn)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                self.names.append((child.id, stack))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                self.names += [(alias.name.split(".")[-1], stack) for alias in child.names]
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                self.names.append((child.attr, stack))
                receiver = child.value
                kinds = (set() if isinstance(receiver, ast.Name) and receiver.id in NAMESPACES
                         else self._type(receiver, env))
                self.attrs.append((child.attr, kinds, stack))
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                kinds = (self._type(child.func.value, env)
                         if isinstance(child.func, ast.Attribute) else None)
                self.calls.append((name, kinds, child, stack, fn))
            self._visit(child, env, stack, cls, fn)

    def _define(self, module, tree):
        for node in tree.body:
            targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       else node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", "__"))
                if not name.startswith("__"):
                    self.globals.append((f"{module}.{name}", name, id(node)))
            if isinstance(node, ast.FunctionDef):
                self._define_params(f"{module}.{node.name}", node.name, node, None)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                self._define_class(module, node)

    def _define_class(self, module, cls):
        prefix = f"{module}.{cls.name}"
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                if item.name == "__init__":
                    self._define_params(prefix, cls.name, item, cls.name)
                elif not item.name.startswith("_"):
                    self.members.append((f"{prefix}.{item.name}", cls.name, item.name, id(item)))
                    self._define_params(f"{prefix}.{item.name}", item.name, item, cls.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                self.members.append((f"{prefix}.{item.target.id}", cls.name, item.target.id, None))
        stored = {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}
        known = {name for qual, _, name, _ in self.members if qual.startswith(prefix + ".")}
        self.members += [(f"{prefix}.{name}", cls.name, name, None)
                         for name in sorted(stored - known) if not name.startswith("_")]

    def _define_params(self, qualified, name, fn, cls):
        """Record fn's defaulted parameters; cls is a method's class, None for
        a module function."""
        names, positional = defaulted(fn, cls is not None)
        for param in names:
            index = positional.index(param) if param in positional else None
            self.params[(id(fn), param)] = (f"{qualified}({param}=)", name, index, id(fn), cls)

    def unreached(self):
        """Qualified names of the definitions and parameters nothing reaches."""
        names = {}
        for name, stack in self.names:
            names.setdefault(name, []).append(stack)
        dead = set()
        while True:
            gone = {own for qual, *_, own in self.globals + self.members if qual in dead}

            def live(stack, own):
                return own not in stack and not gone.intersection(stack)

            found = {qual for qual, name, own in self.globals
                     if not any(live(stack, own) for stack in names.get(name, ()))}
            found |= {qual for qual, cls, name, own in self.members
                      if not any(attr == name and (kinds is None or cls in kinds)
                                 and live(stack, own) for attr, kinds, stack in self.attrs)}
            found |= {qual for (_, param), (qual, name, index, own, cls) in self.params.items()
                      if not any(self._sets(call, param, index, fn, dead)
                                 for called, kinds, call, stack, fn in self.calls
                                 if called == name and live(stack, own)
                                 and (kinds is None or cls in kinds))}
            if found == dead:
                return dead
            dead = found

    def _sets(self, call, param, index, caller, flagged):
        """Whether call sets param (at positional index, if any), other than
        by passing on one of the caller's own flagged parameters."""
        plain = list(itertools.takewhile(lambda arg: not isinstance(arg, ast.Starred), call.args))
        if index is not None and index < len(plain):
            value = plain[index]
        elif index is not None and len(plain) < len(call.args):
            return True  # a *args reaches it
        else:
            value = next((kw.value for kw in call.keywords if kw.arg in (param, None)), None)
            if value is None:
                return False
        return not (isinstance(value, ast.Name)
                    and self.params.get((id(caller), value.id), ("",))[0] in flagged)


def test_every_public_name_and_option_of_src_is_reached():
    found = Program(*program_files()).unreached()
    assert found <= ALLOWED.keys(), f"reached only from tests: {sorted(found - ALLOWED.keys())}"
    assert found == ALLOWED.keys(), f"reached now, drop: {sorted(ALLOWED.keys() - found)}"


def test_the_guard_sees_dead_members_fields_attributes_and_options(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from dataclasses import dataclass\n\n"
        "LIMIT = 3\nUNUSED = 4\n\n"
        "@dataclass\nclass D:\n    used: int\n    dead: int\n\n"
        "class C:\n    def __init__(self, x, y=0):\n        self.x = x\n        self.gone = y\n\n"
        "    def used(self):\n        return self.x\n\n"
        "    def dead(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return self.used()\n\n"
        "class E:\n    def used(self):\n        return 0\n\n"
        "    def dead(self):\n        return 0\n\n"
        "def f(a, b=1, c=LIMIT):\n    return a + b + c + _used()\n\n"
        "_SCALE = 2\n\ndef _used():\n    return _SCALE\n\n"
        "def _dead():\n    return _only_dead_reads()\n\n"
        "def _only_dead_reads():\n    return 1\n\n"
        "def g(a, c=2):\n    return f(a, c=c)\n\n"
        "def make() -> E:\n    return E()\n\n"
        "class K:\n    def go(self, fast=False):\n        return fast\n\n"
        "def go(fast=False):\n    return fast\n")
    main = tmp_path / "main.py"
    main.write_text(
        "from m import C, D, K, f, g, go, make\n\n"
        "def run(args, c: C):\n    e = make()\n"
        "    return c.used(), D(1, 2).used, e.used(), e.dead(), args.gone, f(1, 2), g(args.a)\n\n"
        "def both():\n    return K().go(fast=True), go()\n")
    assert Program([module], [main]).unreached() == {
        "m.UNUSED", "m.D.dead", "m.C.gone", "m.C.dead", "m.C.helper", "m.C(y=)",
        "m.f(c=)", "m.g(c=)", "m.go(fast=)", "m._dead", "m._only_dead_reads"}
