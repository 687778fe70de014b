"""Fixture dispatcher with a dead arm and an unaccounted message."""

from core.protocol import (
    HandledMessage,
    RelayedMessage,
    UnroutedMessage,
    UnsentMessage,
)


class GhostMessage:
    """Not a declared Message subclass — its dispatch arm is dead code."""


class RJoinNode:
    def __init__(self, service):
        self.service = service
        self._dispatch = {
            HandledMessage: self._on_handled,
            RelayedMessage: self._on_handled,
            UnsentMessage: self._on_unsent,
            GhostMessage: self._on_ghost,  # VIOLATION: dead dispatch arm
        }

    def handle_envelope(self, message):
        handler = self._dispatch.get(type(message))
        return None if handler is None else handler(message)

    def _on_handled(self, message):
        return "handled"

    def _on_unsent(self, message):
        return "unsent"

    def _on_ghost(self, message):
        return "ghost"

    def announce(self, target):
        # Accounted send sites for HandledMessage and UnroutedMessage:
        # construction plus a messaging-primitive call in one function.
        self.service.send(target, HandledMessage())
        self.service.send(target, UnroutedMessage())

    def announce_relayed(self, target):
        # An accounted send site too: ``_route`` takes a message and calls a
        # primitive, so handing it the construction is as good as sending.
        self._route(RelayedMessage(), target)

    def _route(self, message, target):
        self.service.send_direct(target, message)

    def mint_without_sending(self):
        # VIOLATION (for UnsentMessage): constructed, but no function ever
        # pairs the construction with send/multi_send/send_direct.
        return UnsentMessage()
