//! The network's event queue: a bucketed calendar queue. Routing is
//! one event per channel crossing, most due within a few cycles of the
//! last one popped, so the queue keeps one FIFO bucket per
//! cycle of the window `[base, base + SPAN)` from the last popped time,
//! with a one-word bitmap of the occupied ones — O(1) where a heap sifts.
//! Events outside the window go to an overflow heap. Order is exactly
//! `(time, seq)` provided each push's `seq` exceeds those queued at its
//! `time`, as the network's one push counter (and a sorted restore)
//! guarantees: a bucket holds one `time`, in `seq` order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// An event: packet `id`'s header arrives at `node` at `time`; `seq`
/// breaks ties in push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Event {
    /// Cycle the header arrives.
    pub time: u64,
    /// Push sequence number.
    pub seq: u64,
    /// Packet id.
    pub id: u64,
    /// Node the header arrives at.
    pub node: usize,
}

/// Cycles in the window: one bitmap word. Most hops land within a few
/// cycles; directory replies a memory latency out may overflow.
const SPAN: u64 = 64;

/// A priority queue of [`Event`]s popping in `(time, seq)` order.
#[derive(Debug, Default)]
pub struct Calendar {
    /// `buckets[t % SPAN]`: the windowed events due at `t`, in push
    /// order; allocated on the first push, so idle networks cost none.
    buckets: Vec<VecDeque<Event>>,
    /// Bit `s` is set iff bucket `s` is occupied.
    occupied: u64,
    overflow: BinaryHeap<Reverse<Event>>,
    /// The latest popped time: no bucketed event is earlier.
    base: u64,
    /// The earliest queued event and its bucket (`None`: the overflow
    /// heap), kept by every push and pop.
    front: Option<(Event, Option<usize>)>,
}

impl Calendar {
    /// Queues `ev`. Its `seq` must exceed that of every queued event
    /// with the same `time`.
    pub fn push(&mut self, ev: Event) {
        let at = if ev.time.wrapping_sub(self.base) >= SPAN {
            self.overflow.push(Reverse(ev));
            None
        } else {
            if self.buckets.is_empty() {
                self.buckets.resize_with(SPAN as usize, VecDeque::new);
            }
            let s = (ev.time % SPAN) as usize;
            self.buckets[s].push_back(ev);
            self.occupied |= 1 << s;
            Some(s)
        };
        if self.front.is_none_or(|(f, _)| ev < f) {
            self.front = Some((ev, at));
        }
    }

    /// The earliest queued event.
    pub fn peek(&self) -> Option<&Event> {
        self.front.as_ref().map(|(e, _)| e)
    }

    /// Removes and returns the earliest queued event if it is due by
    /// `bound`.
    pub fn pop_due(&mut self, bound: u64) -> Option<Event> {
        let (ev, at) = self.front.filter(|(e, _)| e.time <= bound)?;
        match at {
            Some(s) => {
                self.buckets[s].pop_front();
                if self.buckets[s].is_empty() {
                    self.occupied &= !(1 << s);
                }
            }
            None => {
                self.overflow.pop();
            }
        }
        self.base = self.base.max(ev.time);
        self.front = self.find_front();
        Some(ev)
    }

    /// Every queued event, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        let over = self.overflow.iter().map(|Reverse(e)| e);
        self.buckets.iter().flatten().chain(over)
    }

    /// The earliest queued event and its bucket, found afresh.
    fn find_front(&self) -> Option<(Event, Option<usize>)> {
        let s = self.first_bucket();
        let bucketed = s.and_then(|s| self.buckets[s].front());
        match (bucketed, self.overflow.peek()) {
            (Some(b), Some(Reverse(o))) if o < b => Some((*o, None)),
            (Some(b), _) => Some((*b, s)),
            (None, o) => o.map(|Reverse(o)| (*o, None)),
        }
    }

    /// The first occupied bucket from `base`'s on, wrapping around the
    /// window: the bucket of the earliest windowed event.
    fn first_bucket(&self) -> Option<usize> {
        let start = (self.base % SPAN) as u32;
        let bits = self.occupied.rotate_right(start);
        (bits != 0).then(|| ((start + bits.trailing_zeros()) % 64) as usize)
    }
}
