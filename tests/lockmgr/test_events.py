"""Lock events are immutable values of their own type.

The event ring and every listener share one object per event, so no
holder may change it; and an event equals only an event of the same
type with the same fields, whatever it is stored as underneath.
"""

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.events import Aborted, Blocked, Granted, Repositioned
from repro.service.protocol import event_from_dict, event_to_dict

S, X = LockMode.S, LockMode.X

EVENTS = [
    Granted(1, "R", S, False),
    Granted(2, "R", X, True),
    Blocked(1, "R", S, False),
    Blocked(3, "Q", X, True),
    Aborted(4, "deadlock victim"),
    Repositioned("R", (5, 6)),
]


@pytest.mark.parametrize("event", EVENTS, ids=repr)
def test_an_event_refuses_attribute_assignment(event):
    before = [getattr(event, name) for name in _fields(event)]
    for name in _fields(event):
        with pytest.raises(AttributeError):
            setattr(event, name, 99)
    assert [getattr(event, name) for name in _fields(event)] == before


def test_events_are_equal_only_to_the_same_type_with_equal_fields():
    assert Granted(1, "R", S, False) == Granted(1, "R", S)
    assert Granted(1, "R", S, False) != Granted(1, "R", S, True)
    assert Granted(1, "R", S, False) != Blocked(1, "R", S, False)
    assert not Granted(1, "R", S, False) == Blocked(1, "R", S, False)
    assert Aborted(1, "x") != Granted(1, "x", S)
    for event in EVENTS:
        assert event == event
        assert event != tuple(getattr(event, name) for name in _fields(event))
        assert event != (event.__class__.__name__,)
        assert event != None  # noqa: E711 - the comparison itself is tested


def test_events_are_hashable_and_work_in_a_set():
    twins = [Granted(1, "R", S, False), Granted(1, "R", S)]
    assert hash(twins[0]) == hash(twins[1])
    members = set(EVENTS) | set(twins)
    assert len(members) == len(EVENTS)
    assert Blocked(1, "R", S, False) in members
    assert Blocked(1, "R", S, True) not in members
    assert {Granted(7, "Z", S): "g"}[Granted(7, "Z", S, False)] == "g"


def test_a_request_outcome_carries_granted():
    assert Granted(1, "R", S).granted is True
    assert Blocked(1, "R", S, False).granted is False


@pytest.mark.parametrize("event", EVENTS, ids=repr)
def test_the_wire_dict_round_trips_every_event_type(event):
    again = event_from_dict(event_to_dict(event))
    assert type(again) is type(event)
    assert again == event


def _fields(event):
    return {
        Granted: ("tid", "rid", "mode", "immediate"),
        Blocked: ("tid", "rid", "mode", "conversion"),
        Aborted: ("tid", "reason"),
        Repositioned: ("rid", "delayed"),
    }[type(event)]
