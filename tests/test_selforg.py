import io
import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preflattice import selforg
from preflattice.core import Order
from preflattice.errors import (
    EmptyGroup,
    InputError,
    SelfFollowup,
    UnknownGroup,
    UnknownLabel,
    UnknownParent,
    UnmappedThread,
)
from preflattice.graphalg import digraph
from preflattice.selforg import (
    APATHY,
    ENTRY,
    KINDS,
    GroupAssignment,
    PostingEvent,
    _group_tally,
    derive_precedents,
    elect_managers,
    extract_prefs,
    group_order,
    group_topology,
    partition_subscribers,
    read_postings_csv,
    referral_check,
    validate_protocol,
)

from oracles import (
    dict_keyed_protocol,
    pairwise_group_topology,
    per_subscriber_group_order,
    per_subscriber_group_tally,
    per_subscriber_prefs,
)

E = PostingEvent


def base_events():
    """alice opens m1, bob answers and is acknowledged; carol's m2 stays
    unanswered; bob opens m3, dave answers but nobody valid acks."""
    return [
        E(t=1, subscriber="alice", thread="m1", kind="initiate"),
        E(t=2, subscriber="bob", thread="m1", kind="followup", parent=1),
        E(t=3, subscriber="alice", thread="m1", kind="ack", parent=2),
        E(t=4, subscriber="carol", thread="m2", kind="initiate"),
        E(t=5, subscriber="bob", thread="m3", kind="initiate"),
        E(t=6, subscriber="dave", thread="m3", kind="followup", parent=5),
        E(t=7, subscriber="carol", thread="m3", kind="ack", parent=6),
    ]


THREAD_MAP = {"m1": "a", "m2": "b", "m3": "c"}


def test_posting_event_validation():
    with pytest.raises(InputError):
        E(t=1, subscriber="s", thread="m", kind="shout")
    with pytest.raises(InputError):
        E(t=1, subscriber="s", thread="m", kind="initiate", parent=0)
    with pytest.raises(InputError):
        E(t=2, subscriber="s", thread="m", kind="followup")


def test_posting_event_is_a_tuple_of_its_fields():
    event = E(t=2, subscriber="s", thread="m", kind="followup", parent=1)
    assert event == E(2, "s", "m", "followup", 1) == (2, "s", "m", "followup", 1)
    assert hash(event) == hash((2, "s", "m", "followup", 1))
    assert E(1, "s", "m", "initiate").parent is None
    assert (event.t, event.subscriber, event.thread, event.kind) == (2, "s", "m", "followup")
    with pytest.raises(AttributeError):
        event.t = 3


def test_ledger_counts_and_flags():
    ledger = validate_protocol(base_events())
    counted = {(e.t, e.subscriber) for e in ledger.counted}
    assert counted == {(1, "alice"), (2, "bob"), (5, "bob")}
    flags = {e.t: flag for e, flag in ledger.flags.items()}
    assert flags == {
        4: "unanswered-initiation",
        6: "unacknowledged-followup",
        7: "ack-by-non-recipient",
    }
    assert ledger.activity("bob") == 2
    assert ledger.activity("dave") == 0
    assert ledger.earliest_counted("alice") == 1
    assert ledger.earliest_counted("dave") is None
    assert ledger.counted_threads("bob") == {"m1", "m3"}


def test_self_followup_is_an_error():
    events = [
        E(t=1, subscriber="eve", thread="m9", kind="initiate"),
        E(t=2, subscriber="eve", thread="m9", kind="followup", parent=1),
    ]
    with pytest.raises(SelfFollowup):
        validate_protocol(events)


def test_duplicate_initiation_flagged():
    events = base_events() + [
        E(t=8, subscriber="dave", thread="m1", kind="initiate"),
    ]
    ledger = validate_protocol(events)
    flags = {e.t: flag for e, flag in ledger.flags.items()}
    assert flags[8] == "duplicate-initiation"


def test_ack_of_non_followup_flagged():
    events = [
        E(t=1, subscriber="alice", thread="m1", kind="initiate"),
        E(t=2, subscriber="bob", thread="m1", kind="followup", parent=1),
        E(t=3, subscriber="alice", thread="m1", kind="ack", parent=1),
    ]
    ledger = validate_protocol(events)
    flags = {e.t: flag for e, flag in ledger.flags.items()}
    assert flags[3] == "ack-of-non-followup"


def test_followup_of_ack_is_an_error():
    events = [
        E(t=1, subscriber="alice", thread="m1", kind="initiate"),
        E(t=2, subscriber="bob", thread="m1", kind="followup", parent=1),
        E(t=3, subscriber="alice", thread="m1", kind="ack", parent=2),
        E(t=4, subscriber="carol", thread="m1", kind="followup", parent=3),
    ]
    with pytest.raises(InputError):
        validate_protocol(events)


def test_unknown_parent_is_an_error():
    events = [
        E(t=1, subscriber="alice", thread="m1", kind="initiate"),
        E(t=2, subscriber="bob", thread="m1", kind="followup", parent=9),
    ]
    with pytest.raises(UnknownParent):
        validate_protocol(events)


def test_parent_in_another_thread_is_unknown():
    events = [
        E(t=1, subscriber="alice", thread="m1", kind="initiate"),
        E(t=2, subscriber="bob", thread="m2", kind="initiate"),
        E(t=3, subscriber="carol", thread="m1", kind="followup", parent=2),
    ]
    with pytest.raises(UnknownParent) as info:
        validate_protocol(events)
    assert str(info.value) == (
        "event t=3 references t=2, which has no earlier match in thread 'm1'"
    )


def test_two_parents_at_one_t_is_an_error():
    events = [
        E(t=1, subscriber="alice", thread="m1", kind="initiate"),
        E(t=1, subscriber="dave", thread="m1", kind="initiate"),
        E(t=2, subscriber="bob", thread="m1", kind="followup", parent=1),
    ]
    with pytest.raises(InputError) as info:
        validate_protocol(events)
    assert type(info.value) is InputError
    assert str(info.value) == "thread 'm1' has multiple events at t=1"


THREADS = ("m1", "m2", "m3")
SUBSCRIBERS = ("ann", "ben", "cat", "dan")


@st.composite
def protocol_events(draw):
    """Protocol-valid events over a few threads with interleaved times:
    no self-followup, no followup of an ack, every parent an earlier event
    of the same thread, and at most one event per (thread, t)."""
    events = []
    by_thread = {thread: [] for thread in THREADS}
    replied_to = {}  # followup -> the event it answers
    t = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        t += draw(st.integers(min_value=0, max_value=2))  # 0: threads share a t
        thread = draw(st.sampled_from(THREADS))
        earlier = by_thread[thread]
        if earlier and earlier[-1].t == t:
            t += 1
        kind = draw(st.sampled_from(KINDS)) if earlier else "initiate"
        sub = draw(st.sampled_from(SUBSCRIBERS))
        parent = None
        if kind == "followup":
            options = [e for e in earlier if e.kind != "ack" and e.subscriber != sub]
            if options:
                parent = draw(st.sampled_from(options))
            else:
                kind = "initiate"
        elif kind == "ack":
            parent = draw(st.sampled_from(earlier))
            if parent in replied_to and draw(st.booleans()):
                sub = replied_to[parent].subscriber
        event = E(t=t, subscriber=sub, thread=thread, kind=kind,
                  parent=None if parent is None else parent.t)
        if kind == "followup":
            replied_to[event] = parent
        earlier.append(event)
        events.append(event)
    return draw(st.permutations(events))


@st.composite
def broken_protocol_events(draw):
    """Protocol events plus one to three events added at drawn times,
    each aimed at an earlier event: a followup or ack of it (of an ack
    or by its own author at times, so followups of acks and
    self-followups occur), a reference to a t its thread may lack, or a
    second event at its (thread, t), either another initiation or an
    exact copy."""
    events = list(draw(protocol_events()))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        target = draw(st.sampled_from(events))
        sub = draw(st.sampled_from(SUBSCRIBERS))
        how = draw(st.sampled_from(("reply", "answer-ack", "missing", "same-t", "copy")))
        if how == "answer-ack":
            target = draw(st.sampled_from([e for e in events if e.kind == "ack"] or events))
            how = "reply"
        if how == "reply":
            if draw(st.booleans()):
                sub = target.subscriber
            event = E(t=target.t + draw(st.integers(min_value=0, max_value=2)),
                      subscriber=sub, thread=target.thread,
                      kind=draw(st.sampled_from(("followup", "ack"))), parent=target.t)
        elif how == "missing":
            event = E(t=target.t, subscriber=sub, thread=draw(st.sampled_from(THREADS)),
                      kind=draw(st.sampled_from(("followup", "ack"))),
                      parent=target.t + draw(st.integers(min_value=-1, max_value=1)))
        elif how == "same-t":
            event = E(t=target.t, subscriber=sub, thread=target.thread, kind="initiate")
        else:
            # of the thread's last event, which nothing else references, and
            # a reply at its t, so input order decides which copies it sees
            target = max((e for e in events if e.thread == target.thread), key=lambda e: e.t)
            event = target
            events.append(E(t=target.t, subscriber=sub, thread=target.thread,
                            kind=draw(st.sampled_from(("followup", "ack"))), parent=target.t))
        events.append(event)
    return draw(st.permutations(events))


@settings(max_examples=300, deadline=None)
@given(st.one_of(protocol_events(), broken_protocol_events()))
def test_ledger_matches_dict_keyed_oracle(events):
    try:
        expected = dict_keyed_protocol(events)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            validate_protocol(events)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    ledger = validate_protocol(events)
    assert (ledger.events, ledger.counted) == expected[:2]
    assert list(ledger.flags.items()) == list(expected[2].items())


def test_identical_events_share_their_state():
    # the copy of m1's initiation makes both copies repeats, although a
    # followup at the same t answered the first before the copy arrived
    first = E(t=1, subscriber="alice", thread="m1", kind="initiate")
    reply = E(t=1, subscriber="bob", thread="m1", kind="followup", parent=1)
    ledger = validate_protocol([first, reply, first])
    assert ledger.counted == ()
    assert ledger.flags == {first: "duplicate-initiation", reply: "unacknowledged-followup"}
    # a copied followup counts along with the acknowledged original
    reply = E(t=2, subscriber="carol", thread="m1", kind="followup", parent=1)
    ack = E(t=2, subscriber="alice", thread="m1", kind="ack", parent=2)
    ledger = validate_protocol([first, reply, ack, reply])
    assert ledger.counted == (first, reply, reply)
    assert ledger.flags == {}


def list_scan_protocol(events):
    """The protocol with each parent found by scanning the thread's
    earlier events; the oracle for validate_protocol's (thread, t) map."""
    events = sorted(events, key=lambda e: e.t)
    seen, parents, first = {}, {}, set()
    duplicates = set()
    for event in events:
        earlier = seen.setdefault(event.thread, [])
        if event.kind == "initiate":
            if event.thread in first:
                duplicates.add(event)
            first.add(event.thread)
        else:
            matches = [e for e in earlier if e.t == event.parent]
            assert len(matches) == 1
            parents[event] = matches[0]
        earlier.append(event)
    answered = {p for e, p in parents.items() if e.kind == "followup"}
    flags, acked = {}, set()
    for event, parent in parents.items():
        if event.kind != "ack":
            continue
        if parent.kind != "followup":
            flags[event] = "ack-of-non-followup"
        elif event.subscriber != parents[parent].subscriber:
            flags[event] = "ack-by-non-recipient"
        else:
            acked.add(parent)
    counted = []
    for event in events:
        if event.kind == "initiate":
            if event in duplicates:
                flags[event] = "duplicate-initiation"
            elif event in answered:
                counted.append(event)
            else:
                flags[event] = "unanswered-initiation"
        elif event.kind == "followup":
            if event in acked:
                counted.append(event)
            else:
                flags[event] = "unacknowledged-followup"
    return tuple(counted), flags


def assert_ledger_index(ledger):
    for sub in ledger.subscribers() + ("nobody",):
        mine = [e for e in ledger.counted if e.subscriber == sub]
        assert ledger.activity(sub) == len(mine)
        assert ledger.earliest_counted(sub) == (min(e.t for e in mine) if mine else None)
        assert ledger.counted_threads(sub) == {e.thread for e in mine}


@settings(max_examples=200, deadline=None)
@given(protocol_events())
def test_ledger_matches_list_scan(events):
    ledger = validate_protocol(events)
    counted, flags = list_scan_protocol(events)
    assert ledger.counted == counted
    assert ledger.flags == flags
    assert_ledger_index(ledger)
    # the index follows a replaced counted tuple
    assert_ledger_index(replace(ledger, counted=ledger.counted[::2]))


def test_read_postings_csv():
    text = (
        "t,subscriber,thread,kind,parent\n"
        "1,alice,m1,initiate,\n"
        "2,bob,m1,followup,1\n"
    )
    events = read_postings_csv(io.StringIO(text))
    assert events[0] == E(t=1, subscriber="alice", thread="m1", kind="initiate")
    assert events[1].parent == 1
    with pytest.raises(InputError):
        read_postings_csv(io.StringIO("1,alice,m1\n"))
    with pytest.raises(InputError):
        read_postings_csv(io.StringIO("x,alice,m1,initiate,\n"))


def test_read_postings_csv_header_after_blank_lines():
    text = "\n , , , , \nt,subscriber,thread,kind,parent\n1,alice,m1,initiate,\n"
    assert read_postings_csv(io.StringIO(text)) == [
        E(t=1, subscriber="alice", thread="m1", kind="initiate")
    ]
    # only the first non-blank row may be the header
    with pytest.raises(InputError, match="line 3"):
        read_postings_csv(io.StringIO(
            "1,alice,m1,initiate,\n\nt,subscriber,thread,kind,parent\n"
        ))


@pytest.mark.parametrize("row, message", [
    ("2,b,m1,shout,1", "line 3: event kind 'shout' not in ('initiate', 'followup', 'ack')"),
    ("2,b,m1,initiate,1", "line 3: initiations do not reference a parent"),
    ("2,b,m1,ack,", "line 3: ack events need a parent reference"),
])
def test_read_postings_csv_errors_name_the_line(row, message):
    text = f"1,alice,m1,initiate,\n\n{row}\n"
    with pytest.raises(InputError) as info:
        read_postings_csv(io.StringIO(text))
    assert type(info.value) is InputError
    assert str(info.value) == message


def read_outcome(read, text):
    """The events a reader returns, or the type and message of its error."""
    try:
        return read(text)
    except InputError as exc:
        return type(exc), str(exc)


def read_file(text):
    return read_postings_csv(io.StringIO(text, newline=""))


HEADER = "t,subscriber,thread,kind,parent"
PAD = st.sampled_from(["", " ", "\t", "\xa0", "\u2003"])


@st.composite
def posting_cells(draw):
    """The five cells of a valid event row, each padded or not."""
    kind = draw(st.sampled_from(KINDS))
    parent = "" if kind == "initiate" else str(draw(st.integers(1, 30)))
    values = [str(draw(st.integers(1, 30))), draw(st.sampled_from(["u1", "u2", "u 3"])),
              draw(st.sampled_from(["m1", "m2"])), kind, parent]
    return [draw(PAD) + v + draw(PAD) for v in values]


# rows that send a log to the row reader, which skips or refuses them
ODD_ROWS = [
    "", ",,,,", " ,\t, , ,\xa0",  # blank rows, skipped
    HEADER, f" {HEADER.replace(',', ' , ')} ",  # a header, skipped only as the first non-blank row
    "1,u1,m1,initiate\n2,u2,m1,followup,1,x",  # 4 cells, then 6: ten cells over two rows
    "1,u1,m1,initiate\n,2,u2,m1,initiate,",  # 4 cells, then 6 that realign the ten
    "x,u1,m1,initiate,", "1.5,u1,m1,initiate,", "2,u1,m1,followup,y",  # bad t or parent
    "1,u1,m1,shout,", "2,u1,m1,shout,1",  # bad kind
    "1,u1,m1,initiate,3", "2,u1,m1,ack,",  # a parent on an initiation, none on a reply
    f"{HEADER},",  # a header with six cells
    "1,u1,m1,initiate,,",  # six cells
    "1,u1,m1\r,initiate,",  # a lone CR ends a csv row
]


@st.composite
def posting_logs(draw):
    """(text, plain): a posting log, and whether it is plain. A plain log
    has valid, possibly padded rows, ends each line with LF and starts
    with the exact header or none; any other log also draws odd rows,
    CRLF line ends and quoted cells."""
    plain = draw(st.booleans())
    lines = []
    for cells in draw(st.lists(posting_cells(), max_size=12)):
        if not plain and draw(st.integers(0, 4)) == 0:
            i = draw(st.integers(0, 4))
            cells[i] = f'"{cells[i]}"'
        lines.append(",".join(cells))
    if not plain:
        for row in draw(st.lists(st.sampled_from(ODD_ROWS), max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), row)
    if draw(st.booleans()):
        lines.insert(0, HEADER)
    newline = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    # a lone header line without its newline is left to the row reader
    if lines and (draw(st.booleans()) or lines == [HEADER]):
        text += newline
    return text, plain


@settings(max_examples=400, deadline=None)
@given(posting_logs(), st.sampled_from([1, 16, 1 << 16]))
# empty logs, and a log for each reason the block parse refuses one
@example(("", True), 1 << 16)
@example((HEADER + "\n", True), 1 << 16)
@example(("\n", False), 1 << 16)
@example((HEADER, False), 1 << 16)
@example((" 1 ,\tu1\xa0,m1,initiate,\u2003\n2,u1,m1,followup,1\n", True), 1 << 16)
@example(('1,"u1",m1,initiate,\n2,u2,m1,followup,1\n', False), 1 << 16)
@example(("1,u1,m1,initiate,\r\n2,u2,m1,followup,1\r\n", False), 1 << 16)
@example(("1,u1,m1\r,initiate,\n", False), 1 << 16)
@example(("1,u1,m1,initiate\n,2,u2,m1,initiate,\n", False), 1 << 16)
@example(("1,u1,m1,initiate,\n2,u1,m1,shout,1\n", False), 1 << 16)
@example(("1,u1,m1,initiate,3\n2,u2,m1,ack,\n", False), 1 << 16)
@example((f"{HEADER},\n1,u1,m1,initiate,\n", False), 1 << 16)
@example((f"1,u1,m1,initiate,\n2,{'u' * 140_000},m1,followup,1\n", False), 1 << 16)
def test_block_parse_matches_row_by_row(log, block):
    text, plain = log
    expected = read_outcome(selforg._postings_by_row, text)
    with patch.object(selforg, "_BLOCK", block):
        events = selforg._postings_by_block(text)
        assert read_outcome(read_file, text) == expected
    if plain:
        assert events is not None
    if events is not None:
        assert events == expected
        # one str object per distinct name
        names = [name for e in events for name in e[1:4]]
        assert len(set(map(id, names))) == len(set(names))


def test_block_parse_spans_blocks():
    rows = [f"{t},u{t % 7},m{t % 3},initiate," for t in range(1, 8001)]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    assert len(text) > 2 * selforg._BLOCK
    events = selforg._postings_by_block(text)
    assert events is not None and len(events) == 8000
    assert events == selforg._postings_by_row(text)
    # a bad row past the first block is refused by its line number
    rows[5000] = "5001,u1,m1,shout,"
    text = HEADER + "\n" + "\n".join(rows)
    assert selforg._postings_by_block(text) is None
    with pytest.raises(InputError, match="^line 5002: event kind 'shout'"):
        read_file(text)


def test_oversized_field_is_an_error_on_its_line():
    big = "u" * 140_000
    for text in (f'1,a,m1,initiate,\n\n2,"{big}",m1,followup,1\n',
                 f"1,a,m1,initiate,\n2,u1,m1,initiate,\n2,{big},m1,followup,1\n"):
        with pytest.raises(InputError) as info:
            read_file(text)
        assert str(info.value) == "line 3: field larger than field limit (131072)"


def test_extract_prefs_two_ply():
    ledger = validate_protocol(base_events())
    prefs = extract_prefs(ledger, THREAD_MAP)
    assert str(prefs["bob"]) == f"a=c>b={APATHY}"
    assert str(prefs["alice"]) == f"a>b=c={APATHY}"
    # carol's only posting went uncounted, so she is fully apathetic
    assert len(prefs["carol"].groups) == 1


def test_extract_prefs_unmapped_thread():
    ledger = validate_protocol(base_events())
    with pytest.raises(UnmappedThread):
        extract_prefs(ledger, {"m1": "a"})


def test_extract_prefs_names_the_least_unmapped_thread():
    # bob is counted on 30 unmapped threads; the record names the least of
    # them, whatever order his thread set iterates in
    events = []
    for k, thread in enumerate(f"t{i}" for i in range(30, 0, -1)):
        t = 3 * k
        events += [E(t=t + 1, subscriber="alice", thread=thread, kind="initiate"),
                   E(t=t + 2, subscriber="bob", thread=thread, kind="followup", parent=t + 1),
                   E(t=t + 3, subscriber="alice", thread=thread, kind="ack", parent=t + 2)]
    with pytest.raises(UnmappedThread, match="^thread 't1' is not mapped"):
        extract_prefs(validate_protocol(events), {"m1": "a"})


def test_interest_names_are_checked_in_sorted_order():
    with pytest.raises(InputError, match="must not be empty"):
        selforg.check_interest_names(["a+b", "entry", "x+y", ""])
    with pytest.raises(InputError, match="'a\\+b' contains"):
        selforg.check_interest_names(["x+y", "entry", "a+b"])


@settings(max_examples=100, deadline=None)
@given(protocol_events(), st.lists(st.sampled_from("abcd"), min_size=3, max_size=3),
       st.one_of(st.none(), st.lists(st.sampled_from("abcdef"), unique=True)))
def test_extract_prefs_matches_per_subscriber_orders(events, targets, extra):
    ledger = validate_protocol(events)
    thread_map = dict(zip(THREADS, targets))
    interests = None if extra is None else sorted(set(targets) | set(extra))
    assert extract_prefs(ledger, thread_map, interests) == per_subscriber_prefs(
        ledger, thread_map, interests)


def test_partition_and_entry_group():
    ledger = validate_protocol(base_events())
    prefs = extract_prefs(ledger, THREAD_MAP)
    assignment = partition_subscribers(prefs)
    assert assignment.groups == {"a": ("alice",), "a+c": ("bob",)}
    assert assignment.primary["carol"] == ENTRY
    assert assignment.entry == ("alice", "bob", "carol", "dave")
    assert assignment.populated == 2


def test_elect_managers_ranking():
    ledger = validate_protocol(base_events())
    prefs = extract_prefs(ledger, THREAD_MAP)
    assignment = partition_subscribers(prefs)
    managers = elect_managers(assignment, ledger, fraction=0.5)
    assert managers == {"a": ("alice",), "a+c": ("bob",)}
    with pytest.raises(InputError):
        elect_managers(assignment, ledger, fraction=0.0)
    hollow = GroupAssignment(
        interests=("a",), groups={"a": ()}, entry=(), primary={}
    )
    with pytest.raises(EmptyGroup):
        elect_managers(hollow, ledger, fraction=0.5)


def test_group_topology_lattice_and_tree():
    lattice = group_topology(["a", "b", "c"], mode="subset-lattice")
    assert len(lattice.vertices) == 7
    # every containment, not just covers: 2*(6 + 3 + 3) directions
    assert len(lattice.edges) == 24
    tree = group_topology(["c", "b", "a"], mode="binary-tree")
    degree = {v: 0 for v in tree.vertices}
    for u, _ in tree.edges:
        degree[u] += 1
    assert degree["a"] == 2
    assert degree["a+b"] == 3
    assert degree["a+b+c"] == 3
    with pytest.raises(InputError):
        group_topology(["a", "b", "c"], mode="pyramid")
    with pytest.raises(InputError, match="need at least two interests"):
        group_topology(["a"])


@pytest.mark.parametrize("mode", ["subset-lattice", "binary-tree"])
@pytest.mark.parametrize("n", range(2, 9))
def test_group_topology_matches_the_pairwise_build(n, mode):
    # names whose sorted order is not their order of creation, given
    # shuffled and with some repeated
    names = [f"g{k * 3 % 11}" for k in range(n)]
    given_names = names + names[: n // 2]
    random.Random(n).shuffle(given_names)
    assert group_topology(given_names, mode) == pairwise_group_topology(given_names, mode)


@pytest.mark.parametrize("build", [group_topology, pairwise_group_topology])
def test_group_topology_checks_names_then_count_then_mode(build):
    with pytest.raises(InputError, match="reserved"):
        build(["entry"], mode="pyramid")
    with pytest.raises(InputError, match="need at least two interests"):
        build(["a", "a"], mode="pyramid")
    with pytest.raises(InputError, match="unknown topology mode 'pyramid'"):
        build(["a", "b"], mode="pyramid")


def test_group_order_from_cross_activity():
    activity = {
        "alice": {"a": 5, "b": 1, "c": 0},
        "bob": {"a": 3, "b": 1, "c": 1},
        "carol": {"a": 2, "b": 2, "c": 0},
    }
    order = group_order(activity)
    assert str(order).startswith("a>")
    with pytest.raises(InputError):
        group_order({})


def test_group_order_on_one_group_is_that_group():
    assert group_order({"s": {"a": 0}}) == Order((("a",),))
    assert group_order({"s": {"a": 3}, "t": {}}) == Order((("a",),))


ACTIVITY = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(12)]),
    st.dictionaries(st.sampled_from("abcde"), st.integers(min_value=0, max_value=3)),
    min_size=1,
).filter(lambda activity: len({g for t in activity.values() for g in t}) >= 2)


@settings(max_examples=200, deadline=None)
@given(ACTIVITY)
def test_group_order_matches_per_subscriber_records(activity):
    assert _group_tally(activity).counts == per_subscriber_group_tally(activity).counts
    assert group_order(activity) == per_subscriber_group_order(activity)


@pytest.mark.parametrize("activity", [
    {"solo": {"a": 2, "b": 0, "c": 1}},
    {"x": {"a": 0, "b": 0}, "y": {"a": 0, "b": 0}, "z": {}},
    {"x": {"a": 1}, "y": {"b": 2}, "z": {}},
], ids=["one-subscriber", "all-zero", "missing-groups"])
def test_group_order_edge_cases(activity):
    assert _group_tally(activity).counts == per_subscriber_group_tally(activity).counts
    assert group_order(activity) == per_subscriber_group_order(activity)


def test_referral_check_rules():
    topology = group_topology(["a", "b"], mode="subset-lattice")
    ledger = validate_protocol(base_events())
    prefs = extract_prefs(ledger, {"m1": "a", "m2": "b", "m3": "b"})
    assignment = partition_subscribers(prefs)
    # alice's primary is "a"; "a+b" contains it, so posting there is fine
    ok, reason = referral_check("alice", "a+b", topology, assignment)
    assert ok and reason == "member of an adjacent group"
    ok, reason = referral_check("alice", "a", topology, assignment)
    assert ok and reason == "member of target group"
    ok, reason = referral_check("carol", ENTRY, topology, assignment)
    assert ok and reason == "entry-group posting"
    ok, reason = referral_check("carol", "b", topology, assignment)
    assert not ok
    with pytest.raises(UnknownLabel):
        referral_check("mallory", "a", topology, assignment)
    with pytest.raises(UnknownGroup):
        referral_check("alice", "z", topology, assignment)


def test_precedents_merge_then_split():
    # identical member sets merge into one role
    rules, ordering, merges = derive_precedents(
        [("u1", "C"), ("u1", "D")]
    )
    assert rules == [] and ordering == ()
    assert merges == (("C", "D"),)
    # granting C to one more accessor splits them and orders C above D
    rules, ordering, merges = derive_precedents(
        [("u1", "C"), ("u1", "D"), ("u2", "C")]
    )
    assert merges == ()
    assert len(rules) == 1
    rule = rules[0]
    assert (rule.antecedent, rule.consequent) == ("D", "C")
    # the witness is the consequent-role grant to the antecedent's member
    assert rule.provenance == (("u1", "C"),)
    assert ordering == (("C", "D"),)


def test_precedents_accept_dict_records():
    rules, ordering, merges = derive_precedents(
        [{"accessor": "u1", "role": "C"}, {"accessor": "u2", "role": "C"},
         {"accessor": "u1", "role": "D"}]
    )
    assert ordering == (("C", "D"),)
    with pytest.raises(InputError):
        derive_precedents([{"accessor": "u1"}])


@pytest.mark.parametrize("edges, allowed", [
    ([("a", "a+b")], True),
    ([("a+b", "a")], True),
    ([], False),
], ids=["member-to-target", "target-to-member", "no-edge"])
def test_referral_check_reads_an_edge_either_way(edges, allowed):
    topology = digraph(["a", "b", "a+b"], edges)
    ledger = validate_protocol(base_events())
    assignment = partition_subscribers(extract_prefs(ledger, {"m1": "a", "m2": "b", "m3": "b"}))
    ok, _ = referral_check("alice", "a+b", topology, assignment)
    assert ok is allowed
