"""Unit tests for base message types."""

import pytest

from repro.net.message import Message, RawMessage


def test_raw_message_size():
    assert RawMessage(123).payload_size() == 123


def test_raw_message_negative_size_rejected():
    with pytest.raises(ValueError):
        RawMessage(-1)


def test_kind_defaults_to_class_name():
    class Custom(Message):
        def payload_size(self):
            return 1

    assert Custom().kind == "Custom"
    assert Custom.__dict__["kind"] == "Custom"  # a class attribute, no property call


def test_raw_message_kind_override():
    assert RawMessage(1, kind="Heartbeat").kind == "Heartbeat"


def test_slotted_messages_carry_no_instance_dict():
    message = RawMessage(1)
    assert not hasattr(message, "__dict__")
    assert repr(message) == "<RawMessage 1B>"



def test_repr_shows_kind_and_size():
    class Digest(Message):
        __slots__ = ()

        def payload_size(self):
            return 48

    assert repr(Digest()) == "<Digest 48B>"
    assert repr(RawMessage(7, kind="Heartbeat")) == "<Heartbeat 7B>"

def test_base_payload_size_abstract():
    with pytest.raises(NotImplementedError):
        Message().payload_size()


def test_raw_message_carries_body():
    message = RawMessage(10, body={"k": 1})
    assert message.body == {"k": 1}
