"""Export hygiene: every exported name resolves and is used inside the package, which never imports its tests."""

import ast
import importlib
import os
import pkgutil

import numpy

import dtqm

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(dtqm.__file__)


def _modules():
    return [importlib.import_module(f"dtqm.{info.name}") for info in pkgutil.iter_modules([SRC])]


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_every_name_in_each_all_resolves():
    for module in [dtqm, *_modules()]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}, which it does not define"


def test_every_name_the_package_imports_resolves():
    for node in ast.walk(_tree(dtqm.__file__)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"dtqm.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"dtqm.{node.module} has no {alias.name!r}"
                assert alias.name in module.__all__, f"dtqm.{node.module}.__all__ does not list {alias.name!r}"
                assert getattr(dtqm, alias.name) is getattr(module, alias.name)


def test_every_name_the_package_exports_is_used_by_a_package_module():
    # A function only the tests call is a test oracle: it belongs in tests/oracles.py.
    referenced = set()
    for name in os.listdir(SRC):
        if name.endswith(".py") and name != "__init__.py":
            for node in ast.walk(_tree(os.path.join(SRC, name))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    referenced.update(alias.name for alias in node.names)
    exported = [
        alias.name
        for node in ast.walk(_tree(dtqm.__file__))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(set(exported) - referenced) == []


def test_no_package_module_imports_from_the_tests():
    test_modules = {"tests"} | {name[:-3] for name in os.listdir(TESTS) if name.endswith(".py")}
    for name in os.listdir(SRC):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_tree(os.path.join(SRC, name))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not test_modules & set(roots), f"{name} imports {roots} from the tests"


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # The benchmark's own tests run apart from these; its tracer rebinds these names by string.
    path = os.path.join(os.path.dirname(TESTS), "perfbench", "tracer.py")
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPAN_TARGETS" for t in node.targets)
    )
    assert targets
    for _, module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} is not callable"
    # The tracer routes eigvals through dtqm.cli.np, and its restore test reads dtqm.correspondence.evolve.
    assert importlib.import_module("dtqm.cli").np is numpy
    assert callable(importlib.import_module("dtqm.correspondence").evolve)


def test_action_module_alone_names_the_family_and_every_kind():
    # is_standard_family is the one family test, and each class's ``kind`` the one name of its kind.
    for name in os.listdir(SRC):
        if not name.endswith(".py") or name == "action.py":
            continue
        for node in ast.walk(_tree(os.path.join(SRC, name))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                classes = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
                assert "StandardAction" not in classes, f"{name}:{node.lineno} tests family membership by isinstance"
            if isinstance(node, ast.Constant):
                assert node.value not in ("standard", "gauged"), f"{name}:{node.lineno} spells a kind: {node.value!r}"


def test_every_config_action_kind_is_the_kind_of_the_class_it_builds():
    from dtqm import config

    constants = {"mass": 1.0, "tau": 0.1, "hbar": 1.0}
    for kind, (required, _) in config._ACTIONS.items():
        # Every named registry has a 'zero' built-in; every other key takes a positive number.
        block = {"kind": kind} | {
            key: {"name": "zero"} if isinstance(check, config._Named) else 1.0 for key, check in required.items()
        }
        model = config.build_action({"constants": constants, "action": config._validate_action(block)})
        assert type(model).kind == kind
