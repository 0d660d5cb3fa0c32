"""Every public name in src/contactctl has a caller in src/, every
dataclass field a reader there, and every function parameter a read in its
function's body.

A public top-level function, class or method that nothing in the package
names, outside its own definition, is an API kept alive only by tests; a
method counts as named only where an attribute of that name is read
(`x.name`), not by a bare name such as a local variable. The
documented file-format API and the CLI entry point are the exceptions. A
dataclass field that nothing in the package reads as an attribute is state
kept alive only by tests. A parameter its function never reads is an
argument every caller passes for nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "contactctl"

# documented in docs/formats.md (payload and calibration files), the
# console-script entry point, and Episode.rows, which perfbench's episode_io
# check reads
ALLOWED = {"sensing.load_payload", "sensing.save_calibration_csv", "cli.main",
           "episodes.Episode.rows"}
# read by perfbench's tracer, which reports the solver's iterations
ALLOWED_FIELDS = {"kinematics.IKResult.iterations"}


def _definitions(tree: ast.Module):
    """(qualified name, node) of public top-level defs and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module):
    """(identifier, line, whether it is an attribute read) of every name and
    attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Load)


def _modules() -> dict:
    """Dotted module name under contactctl -> parsed source."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        modules[module] = ast.parse(path.read_text(), str(path))
    return modules


def _dataclass_fields(tree: ast.Module):
    """(class name, field name) of every dataclass field a module declares."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_public_name_has_a_caller_in_src():
    modules = _modules()
    uses = [(module, name, line, read) for module, tree in modules.items()
            for name, line, read in _uses(tree)]
    unused = []
    for module, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            method = "." in qualname
            own = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and (read or not method)
                       and not (where == module and line in own)
                       for where, used, line, read in uses):
                unused.append(f"{module}.{qualname}")
    unused = sorted(set(unused) - ALLOWED)
    assert unused == [], f"public names with no caller in src/: {unused}"


def test_every_dataclass_field_is_read_in_src():
    modules = _modules()
    reads = {node.attr for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{module}.{cls}.{name}" for module, tree in modules.items()
                     for cls, name in _dataclass_fields(tree)
                     if name not in reads} - ALLOWED_FIELDS)
    assert unread == [], f"dataclass fields no code in src/ reads: {unread}"


def _unread_parameters(tree: ast.Module):
    """(name, line, parameter) of every parameter, other than self and cls,
    that its function's body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            for param in params:
                if param not in read and param not in ("self", "cls"):
                    yield name, node.lineno, param


def test_every_parameter_is_read_in_its_body():
    unread = [f"{module}.{name} (line {line}): {param}"
              for module, tree in _modules().items()
              for name, line, param in _unread_parameters(tree)]
    assert unread == [], f"parameters their function never reads: {unread}"
