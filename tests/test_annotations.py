"""Every annotation in popdyn resolves.

Modules import some analysis modules inside the functions that run them, and
name those modules in annotations under `if TYPE_CHECKING:` imports. Each
function and method's hints are resolved with those imports bound, the
names a type checker sees.
"""

import ast
import importlib
import inspect
import pkgutil
import typing

import popdyn


def _modules():
    yield popdyn
    for info in pkgutil.walk_packages(popdyn.__path__, "popdyn."):
        yield importlib.import_module(info.name)


def _type_checking_names(module) -> dict:
    """The names the module binds under `if TYPE_CHECKING:`, imported."""
    names: dict = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            code = compile(ast.Module(node.body, []), module.__file__, "exec")
            exec(code, {"__name__": module.__name__, "__package__": module.__package__}, names)
    return names


def _functions(module):
    """The functions and methods whose source is in the module."""
    for obj in vars(module).values():
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                yield member


def test_every_annotation_resolves():
    checked = []
    for module in _modules():
        names = _type_checking_names(module)
        for fn in _functions(module):
            typing.get_type_hints(fn, localns=names)
            checked.append(f"{fn.__module__}.{fn.__qualname__}")
    for name in ("popdyn.verify.verify_stochastic", "popdyn.cli._parse_script",
                 "popdyn.cli._oracle_graph", "popdyn.cli._sink_entry",
                 "popdyn.model.PopulationSpec.type_a"):
        assert name in checked
