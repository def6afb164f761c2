"""Tests for the model's building blocks: descriptors, handlers, state, actions."""

import os
import pickle
import subprocess
import sys

import pytest

import repro.core
from repro.core import (
    ABORTION,
    ActionContext,
    ActionDefinitionError,
    ActionRegistry,
    CAActionDefinition,
    ContextStack,
    ExceptionDescriptor,
    ExceptionGraph,
    ExceptionKind,
    FAILURE,
    HandlerMap,
    HandlerResult,
    HandlerStatus,
    LocalExceptionList,
    NO_EXCEPTION,
    RaisedRecord,
    RoleDefinition,
    UNDO,
    UNIVERSAL,
    default_abort_handler,
    interface,
    internal,
    max_thread,
    min_thread,
    thread_order_key,
)
from repro.core.handlers import is_generator_handler, normalise_result


# ----------------------------------------------------------------------
# Exception descriptors
# ----------------------------------------------------------------------
class TestDescriptors:
    def test_equality_by_name_and_kind(self):
        assert internal("x") == internal("x")
        assert internal("x") != interface("x")
        assert internal("x") != internal("y")

    def test_hashable_and_usable_in_sets(self):
        assert len({internal("x"), internal("x"), internal("y")}) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ExceptionDescriptor("")

    def test_cached_hash_is_not_carried_across_interpreters(self):
        # String hashes are salted per process: a descriptor pickled by a
        # pool worker must be re-hashed here, not arrive with the worker's
        # cached value (it would then miss every dict it is a key of).
        source = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); "
                  "from repro.core import internal; "
                  "sys.stdout.write(pickle.dumps(internal('fault', 'doc'))"
                  ".hex())")
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(repro.core.__file__))))
        for seed in ("1", "2"):      # at most one can equal this process's
            dumped = subprocess.run(
                [sys.executable, "-c", source, src], check=True,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            arrived = pickle.loads(bytes.fromhex(dumped))
            assert arrived == internal("fault")
            assert arrived.description == "doc"
            assert hash(arrived) == hash(internal("fault"))
            assert {internal("fault"): "found"}[arrived] == "found"

    def test_special_exceptions_have_expected_kinds(self):
        assert UNDO.kind is ExceptionKind.UNDO
        assert FAILURE.kind is ExceptionKind.FAILURE
        assert UNIVERSAL.kind is ExceptionKind.UNIVERSAL
        assert ABORTION.kind is ExceptionKind.ABORTION
        assert NO_EXCEPTION.kind is ExceptionKind.NONE
        assert all(e.is_special for e in (UNDO, FAILURE, UNIVERSAL, NO_EXCEPTION))
        assert not internal("plain").is_special

    def test_raised_record_suspension_flag(self):
        assert RaisedRecord("A", "T1", None).is_suspension
        assert not RaisedRecord("A", "T1", internal("e")).is_suspension


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
class TestHandlers:
    def test_result_factories(self):
        assert HandlerResult.success().status is HandlerStatus.SUCCESS
        assert HandlerResult.abort().exception == UNDO
        assert HandlerResult.failed().exception == FAILURE
        signalled = HandlerResult.signal(interface("eps"))
        assert signalled.status is HandlerStatus.SIGNAL
        assert signalled.exception.name == "eps"

    def test_normalise_result_accepts_none_and_descriptor(self):
        assert normalise_result(None).status is HandlerStatus.SUCCESS
        result = normalise_result(interface("eps"))
        assert result.status is HandlerStatus.SIGNAL
        with pytest.raises(TypeError):
            normalise_result(42)

    def test_lookup_prefers_specific_handler(self):
        fault = internal("fault")
        specific = lambda ctx: HandlerResult.success()
        default = lambda ctx: HandlerResult.failed()
        handlers = HandlerMap({fault: specific}, default_handler=default)
        assert handlers.lookup(fault) is specific
        assert handlers.lookup(internal("other")) is default

    def test_lookup_falls_back_to_default_abort_handler(self):
        handlers = HandlerMap()
        handler = handlers.lookup(internal("anything"))
        assert handler is default_abort_handler
        assert handler(None).status is HandlerStatus.ABORT

    def test_abortion_handler_lookup(self):
        abortion = lambda ctx: HandlerResult.success()
        handlers = HandlerMap(abortion_handler=abortion)
        assert handlers.lookup(ABORTION) is abortion

    def test_register_and_declared(self):
        handlers = HandlerMap()
        fault = internal("fault")
        handlers.register(fault, lambda ctx: None)
        handlers.register_abortion(lambda ctx: None)
        assert handlers.has_specific(fault)
        assert handlers.declared() == [fault]
        assert len(handlers) == 1

    def test_generator_handler_detection(self):
        def plain(ctx):
            return None

        def generator(ctx):
            yield None

        assert not is_generator_handler(plain)
        assert is_generator_handler(generator)


# ----------------------------------------------------------------------
# Protocol state: ActionContext, ContextStack, LocalExceptionList
# ----------------------------------------------------------------------
class TestThreadOrdering:
    def test_numeric_suffixes_compare_numerically(self):
        assert thread_order_key("T9") < thread_order_key("T10")
        assert thread_order_key("T9") < thread_order_key("T64")
        assert max_thread(["T1", "T9", "T64"]) == "T64"
        assert min_thread(["T10", "T2", "T9"]) == "T2"

    def test_plain_text_ids_compare_lexicographically(self):
        assert max_thread(["alpha", "beta"]) == "beta"
        assert thread_order_key("alpha") < thread_order_key("beta")

    def test_mixed_chunks(self):
        assert thread_order_key("node2cpu10") < thread_order_key("node2cpu11")
        assert thread_order_key("node2cpu10") < thread_order_key("node10cpu1")

    def test_equal_naturalisations_still_totally_ordered(self):
        # "T09" and "T9" naturalise to the same chunks; the raw id
        # tie-break keeps the order total so every node agrees.
        assert thread_order_key("T09") != thread_order_key("T9")
        assert thread_order_key("T09") < thread_order_key("T9")
        assert max_thread(["T9", "T09"]) == max_thread(["T09", "T9"]) == "T9"

    def test_sorted_participants_use_natural_order(self):
        threads = tuple(f"T{i}" for i in (10, 2, 1, 64, 9))
        context = ActionContext("A", threads, ExceptionGraph("A"))
        assert context.participants == ("T1", "T2", "T9", "T10", "T64")


class TestProtocolState:
    def test_context_orders_participants(self):
        context = ActionContext("A", ("T3", "T1", "T2"), ExceptionGraph("A"))
        assert context.participants == ("T1", "T2", "T3")
        assert context.others("T2") == ("T1", "T3")

    def test_context_requires_participants(self):
        with pytest.raises(ValueError):
            ActionContext("A", (), ExceptionGraph("A"))

    def make_stack(self):
        stack = ContextStack()
        for name in ("Outer", "Middle", "Inner"):
            stack.push(ActionContext(name, ("T1",), ExceptionGraph(name)))
        return stack

    def test_stack_push_pop_top(self):
        stack = self.make_stack()
        assert stack.top().action == "Inner"
        assert stack.depth() == 3
        assert stack.pop().action == "Inner"
        assert stack.top().action == "Middle"

    def test_stack_find_and_contains(self):
        stack = self.make_stack()
        assert stack.contains("Middle")
        assert stack.find("Outer").action == "Outer"
        assert stack.find("Nowhere") is None

    def test_actions_between_top_and(self):
        stack = self.make_stack()
        assert stack.actions_between_top_and("Outer") == ["Inner", "Middle"]
        assert stack.actions_between_top_and("Inner") == []
        with pytest.raises(KeyError):
            stack.actions_between_top_and("Nowhere")

    def test_pop_until(self):
        stack = self.make_stack()
        popped = stack.pop_until("Outer")
        assert [context.action for context in popped] == ["Inner", "Middle"]
        assert stack.top().action == "Outer"
        with pytest.raises(KeyError):
            stack.pop_until("Gone")

    def test_pop_empty_stack_raises(self):
        with pytest.raises(IndexError):
            ContextStack().pop()

    def test_le_add_replaces_per_thread(self):
        le = LocalExceptionList()
        fault = internal("fault")
        le.add(RaisedRecord("A", "T1", None))               # suspension
        le.add(RaisedRecord("A", "T1", fault))              # later raise
        assert len(le) == 1
        assert le.exceptional_threads("A") == {"T1"}

    def test_le_queries(self):
        le = LocalExceptionList()
        e1, e2 = internal("e1"), internal("e2")
        le.add(RaisedRecord("A", "T1", e1))
        le.add(RaisedRecord("A", "T2", None))
        le.add(RaisedRecord("B", "T3", e2))
        assert le.threads_reported("A") == {"T1", "T2"}
        assert le.exceptions_for("A") == [e1]
        assert le.exceptional_threads("A") == {"T1"}
        le.remove_other_actions("A")
        assert le.threads_reported("B") == set()

    def test_le_keep_only_and_clear(self):
        le = LocalExceptionList()
        record = RaisedRecord("A", "T1", internal("e1"))
        le.add(record)
        le.add(RaisedRecord("A", "T2", internal("e2")))
        le.keep_only(record)
        assert list(le) == [record]
        le.clear()
        assert len(le) == 0


# ----------------------------------------------------------------------
# CA action definitions and the registry
# ----------------------------------------------------------------------
class TestActionDefinitions:
    def make_action(self, name="A", parent=None, interface_exceptions=()):
        return CAActionDefinition(
            name,
            [RoleDefinition("r1"), RoleDefinition("r2")],
            internal_exceptions=[internal("fault")],
            interface_exceptions=interface_exceptions,
            parent=parent)

    def test_roles_and_lookup(self):
        action = self.make_action()
        assert action.role_names == ["r1", "r2"]
        assert action.role("r1").name == "r1"
        with pytest.raises(ActionDefinitionError):
            action.role("missing")

    def test_abortion_and_special_exceptions_included(self):
        action = self.make_action()
        assert ABORTION in action.internal_exceptions
        assert UNDO in action.interface_exceptions
        assert FAILURE in action.interface_exceptions

    def test_graph_defaults_to_flat_graph_over_internal_exceptions(self):
        action = self.make_action()
        assert internal("fault") in action.graph
        action.graph.validate()

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ActionDefinitionError):
            CAActionDefinition("A", [RoleDefinition("r"), RoleDefinition("r")])

    def test_empty_roles_rejected(self):
        with pytest.raises(ActionDefinitionError):
            CAActionDefinition("A", [])

    def test_nesting_validation_accepts_subset(self):
        eps = interface("eps")
        enclosing = CAActionDefinition(
            "Outer", [RoleDefinition("r1")], internal_exceptions=[eps])
        nested = CAActionDefinition(
            "Inner", [RoleDefinition("r1")], interface_exceptions=[eps],
            parent="Outer")
        nested.validate_nesting(enclosing)   # must not raise

    def test_nesting_validation_rejects_undeclared_interface_exception(self):
        enclosing = CAActionDefinition("Outer", [RoleDefinition("r1")])
        nested = CAActionDefinition(
            "Inner", [RoleDefinition("r1")],
            interface_exceptions=[interface("surprise")], parent="Outer")
        with pytest.raises(ActionDefinitionError):
            nested.validate_nesting(enclosing)

    def test_nesting_validation_exempts_undo_and_failure(self):
        enclosing = CAActionDefinition("Outer", [RoleDefinition("r1")])
        nested = CAActionDefinition("Inner", [RoleDefinition("r1")],
                                    parent="Outer")
        nested.validate_nesting(enclosing)   # µ and ƒ are always allowed

    def test_registry_register_and_lookup(self):
        registry = ActionRegistry()
        outer = self.make_action("Outer")
        registry.register(outer)
        assert "Outer" in registry
        assert registry.get("Outer") is outer
        with pytest.raises(ActionDefinitionError):
            registry.get("Missing")

    def test_registry_rejects_duplicates(self):
        registry = ActionRegistry()
        registry.register(self.make_action("A"))
        with pytest.raises(ActionDefinitionError):
            registry.register(self.make_action("A"))

    def test_registry_nesting_depth_and_children(self):
        registry = ActionRegistry()
        registry.register(self.make_action("Outer"))
        registry.register(self.make_action("Middle", parent="Outer"))
        registry.register(self.make_action("Inner", parent="Middle"))
        assert registry.nesting_depth("Outer") == 0
        assert registry.nesting_depth("Inner") == 2
        assert registry.max_nesting() == 2
        assert [child.name for child in registry.children_of("Outer")] == \
            ["Middle"]
