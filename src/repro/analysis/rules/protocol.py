"""Rule ``protocol-completeness`` — every message dispatched and accounted.

The wire vocabulary of the engine lives in ``core/protocol.py`` (RJoin
messages) on top of the base class in ``net/messages.py``.  Three things
must stay in lock step and historically only failed at runtime — as a
silently ignored delivery (the dispatcher drops unknown kinds for forward
compatibility) or as traffic that never appears in the Section 8 metrics:

* every :class:`~repro.net.messages.Message` subclass has a dispatch arm —
  a key of the ``type(message)`` → handler table ``RJoinNode.__init__``
  builds for ``handle_envelope`` (``core/node.py``),
* no dispatch arm names a class that is not a declared message (a deleted
  or renamed message must take its handler with it),
* every message class has at least one *accounted send site*: a function
  that constructs it and hands it to one of the traffic-accounted
  messaging primitives (``send`` / ``multi_send`` / ``send_direct`` on the
  :class:`~repro.dht.api.DHTMessagingService`) — or to a *relay*, a
  function that takes a ``message`` and calls one (``RJoinNode._route``,
  which picks the primitive) — so no message can be minted without being
  charged to its sender.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Finding, Rule, SourceFile
from repro.analysis.project import Project

#: Files that declare the message vocabulary.
PROTOCOL_FILES = ("core/protocol.py", "net/messages.py")
#: File holding the application-layer dispatcher.
DISPATCH_FILE = "core/node.py"
DISPATCH_CLASS = "RJoinNode"
#: Method that builds the dispatch table, and the attribute holding it.
DISPATCH_METHOD = "__init__"
DISPATCH_TABLE = "_dispatch"

#: Base classes that mark a class as a wire message.
_MESSAGE_BASES = {"Message"}
#: Declared message-vocabulary classes that are not themselves routable
#: payloads (the base class and the routing envelope).
_NON_PAYLOAD_CLASSES = {"Message", "Envelope"}

#: Traffic-accounted messaging primitives of the DHT API.
_SEND_METHODS = {"send", "multi_send", "send_direct"}


def _class_defs(sf: SourceFile) -> Iterator[ast.ClassDef]:
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


class ProtocolRule(Rule):
    """Keep message declarations, dispatch arms and send sites in sync."""

    name = "protocol-completeness"
    description = (
        "every Message subclass has an arm in RJoinNode's dispatch table and an "
        "accounted send site; no dispatch arm without a message"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        messages = self._declared_messages(project)
        if not messages:
            return  # tree does not declare a protocol (fixture subsets)
        dispatch = self._dispatch_arms(project)
        send_sites = self._accounted_send_sites(project)

        dispatch_names = {name for name, _ in dispatch or ()}
        for name in sorted(messages):
            sf, node = messages[name]
            if dispatch is not None and name not in dispatch_names:
                yield self.finding(
                    sf,
                    node,
                    f"message {name} has no dispatch arm in "
                    f"{DISPATCH_CLASS}.{DISPATCH_TABLE} "
                    f"({DISPATCH_FILE}): deliveries would be silently "
                    "dropped",
                )
            if name not in send_sites:
                yield self.finding(
                    sf,
                    node,
                    f"message {name} is never constructed in a function "
                    "that calls an accounted messaging primitive "
                    f"({', '.join(sorted(_SEND_METHODS))}): it cannot "
                    "reach the network with its traffic charged",
                )
        if dispatch is not None:
            for name, (sf, node) in dispatch:
                if name not in messages:
                    yield self.finding(
                        sf,
                        node,
                        f"dispatch arm names {name}, which is not a "
                        "declared Message subclass "
                        f"({' / '.join(PROTOCOL_FILES)}): dead or "
                        "misspelled handler",
                    )

    # ------------------------------------------------------------------
    def _declared_messages(
        self, project: Project
    ) -> Dict[str, Tuple[SourceFile, ast.ClassDef]]:
        """``name -> (file, class node)`` of every Message subclass."""
        messages: Dict[str, Tuple[SourceFile, ast.ClassDef]] = {}
        for rel in PROTOCOL_FILES:
            sf = project.get(rel)
            if sf is None:
                continue
            for node in _class_defs(sf):
                if node.name in _NON_PAYLOAD_CLASSES:
                    continue
                if _base_names(node) & _MESSAGE_BASES:
                    messages[node.name] = (sf, node)
        return messages

    def _dispatch_arms(
        self, project: Project
    ) -> Optional[List[Tuple[str, Tuple[SourceFile, ast.AST]]]]:
        """``(class name, (file, key node))`` per dispatch arm.

        ``None`` when the dispatcher file, class or table is not part of
        the analyzed tree (fixture subsets), in which case only declaration
        and send-site checks run.
        """
        sf = project.get(DISPATCH_FILE)
        if sf is None:
            return None
        method: Optional[ast.AST] = None
        for node in _class_defs(sf):
            if node.name != DISPATCH_CLASS:
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == DISPATCH_METHOD
                ):
                    method = item
        if method is None:
            return None
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if not isinstance(node.value, ast.Dict) or not any(
                isinstance(target, ast.Attribute) and target.attr == DISPATCH_TABLE
                for target in targets
            ):
                continue
            return [
                (key.id, (sf, key))
                for key in node.value.keys
                if isinstance(key, ast.Name)
            ]
        return None

    def _accounted_send_sites(self, project: Project) -> Set[str]:
        """Message class names constructed in a function that also sends.

        The heuristic is function-granular: a function that both builds
        ``X(...)`` and calls ``<something>.send/multi_send/send_direct``
        counts as an accounted send site for ``X``.  All messaging
        primitives charge traffic internally, so construction plus a
        primitive call in one function is the invariant worth pinning.  A
        function with a ``message`` parameter that calls a primitive is a
        relay, and calling it counts like calling the primitive it picks.
        """
        called_in: List[Tuple[ast.AST, Set[str]]] = []
        for sf in project.files():
            for node in ast.walk(sf.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                called: Set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        func = sub.func
                        if isinstance(func, ast.Name):
                            called.add(func.id)
                        elif isinstance(func, ast.Attribute):
                            called.add(func.attr)
                called_in.append((node, called))
        senders = set(_SEND_METHODS)
        for node, called in called_in:
            if called & _SEND_METHODS and any(
                arg.arg == "message" for arg in node.args.args
            ):
                senders.add(node.name)
        accounted: Set[str] = set()
        for _, called in called_in:
            if called & senders:
                accounted |= called
        return accounted
