"""Top-level package surface: exports, errors, version."""

import inspect

import pytest

import repro
from repro import errors


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_exported_set_is_pinned(self):
        # A new top-level name is a deliberate API change: add it here.
        assert set(repro.__all__) == {
            "__version__",
            # errors
            "ReproError", "SchemaError", "TypingError", "PathError",
            "ObjectBaseError", "RelationError", "DecompositionError",
            "StorageError", "QueryError", "ParseError", "CostModelError",
            "InjectedFault", "SimulatedCrash", "RecoveryError", "ExitHookError",
            # execution context / fault injection / concurrency
            "ExecutionContext", "FaultInjector", "ContextPool",
            # object model
            "NULL", "OID", "Schema", "ObjectBase", "PathExpression",
            # access support relations
            "Relation", "Extension", "build_extension", "Decomposition",
            "AccessSupportRelation", "ASRManager",
            # queries
            "ForwardQuery", "BackwardQuery", "ValueRangeQuery",
            "QueryEvaluator", "Planner", "SelectExecutor", "parse_select",
            # cost model
            "ApplicationProfile", "SystemParameters", "StorageModel",
            "QueryCostModel", "UpdateCostModel", "OperationMix", "QuerySpec",
            "UpdateSpec", "MixCostModel", "DesignAdvisor",
        }
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_key_classes_exported(self):
        assert repro.Extension("can") is repro.Extension.CANONICAL
        assert repro.Decomposition.binary(3).borders == (0, 1, 2, 3)
        assert repro.NULL is not None

    def test_docstrings_everywhere(self):
        """Every public module, class, and function carries a docstring."""
        import pkgutil

        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = __import__(module_info.name, fromlist=["_"])
            if not module.__doc__:
                missing.append(module_info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module_info.name:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module_info.name}.{name}")
        assert not missing, f"missing docstrings: {missing}"


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_catchable_with_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchemaError("x")
        with pytest.raises(errors.QueryError):
            raise errors.ParseError("x")

    def test_distinct_subsystem_errors(self):
        assert not issubclass(errors.SchemaError, errors.StorageError)
        assert not issubclass(errors.CostModelError, errors.QueryError)
