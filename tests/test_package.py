import pkgutil
from importlib import import_module
from types import ModuleType

import qwres

LIBRARY = (
    "coins",
    "errors",
    "expansion",
    "genericity",
    "resolvent",
    "resonances",
    "scattering",
    "states",
    "transfer",
    "walk",
)


def test_every_module_is_accounted_for():
    # cli is the front end; its one name, main, is not re-exported
    assert {m.name for m in pkgutil.iter_modules(qwres.__path__)} == set(LIBRARY) | {"cli"}


def test_public_names_are_the_union_of_module_all():
    exported = {}
    for name in LIBRARY:
        module = import_module(f"qwres.{name}")
        for attr in module.__all__:
            assert attr not in exported, f"{attr} is in both {exported.get(attr)} and {name}"
            exported[attr] = name
            assert getattr(qwres, attr) is getattr(module, attr), attr
    public = {
        attr
        for attr, value in vars(qwres).items()
        if not attr.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(exported)
