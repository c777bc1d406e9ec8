"""Protocol constants shared by the lock implementations.

The paper's protocols communicate several kinds of information through a
single ``STATUS`` window word (Section 3.2.4): whether a process must spin
wait, whether it must climb to the parent level of the distributed tree,
whether the lock mode changed (readers took over), or — for any other value —
that it may enter the critical section, with the value carrying the number of
consecutive lock passings inside the current machine element.

We reserve negative sentinels for the special meanings so that every
non-negative value is a valid passing count (the paper reserves "two selected
integer values"; the choice of encoding is immaterial to the protocol).
"""

from __future__ import annotations

__all__ = [
    "NULL_RANK",
    "STATUS_WAIT",
    "STATUS_ACQUIRE_PARENT",
    "STATUS_MODE_CHANGE",
    "ACQUIRE_START",
    "WRITE_FLAG",
]

#: The null pointer (no predecessor / empty queue tail).  Ranks are 0-based,
#: so -1 can never collide with a real rank.
NULL_RANK = -1

#: STATUS: the process must spin wait for its predecessor.
STATUS_WAIT = -1

#: STATUS: the predecessor released the lock to the parent level; the process
#: must acquire the lock at level ``i - 1`` itself (Listing 5, line 23).
STATUS_ACQUIRE_PARENT = -2

#: STATUS: the lock mode changed to READ; a level-1 writer must win the lock
#: back from the readers (Listing 8, line 7 / Listing 7, line 14).
STATUS_MODE_CHANGE = -3

#: STATUS value a process stores for itself when it acquires a level from its
#: parent: the count of intra-element passings starts at zero.
ACQUIRE_START = 0

#: Added to a physical counter's ARRIVE word to switch it to WRITE mode
#: (the paper uses ``INT64_MAX/2``; any value far above every realistic
#: reader count and ``T_R`` works, and a smaller constant keeps arithmetic
#: comfortably inside 64 bits even after repeated accumulates).
WRITE_FLAG = 1 << 40
