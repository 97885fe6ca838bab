//! The controller's in-flight request table: a ring of slots indexed by
//! request id (DESIGN.md §13).
//!
//! The controller hands out request ids in increasing order, so request
//! `id` lives in slot `id − base` of a [`VecDeque`] and every lookup is one
//! index — the index-keyed table `enprop-lint` D002 asks for in place of a
//! hash map. The methods carry the `BTreeMap` names the controller used
//! before, and iteration is ascending by id as it was.
//!
//! Memory is one slot per id issued between the oldest live request and
//! the newest, not per live request: ids shed at admission leave empty
//! slots until the requests before them resolve. An empty table keeps no
//! slots, so a gap after it costs nothing.

use std::collections::VecDeque;

use crate::controller::Req;

/// In-flight requests keyed by id.
#[derive(Debug, Default)]
pub(crate) struct Inflight {
    /// Id of `slots[0]`.
    base: u64,
    /// Request `base + i` in slot `i`; `None` once it resolved (or when it
    /// was never admitted). The front slot is always live.
    slots: VecDeque<Option<Req>>,
    /// Live slots.
    len: usize,
}

impl Inflight {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of `id`, if it is inside the ring.
    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Req> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Req> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    pub(crate) fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Insert request `id`, which must be above every id inserted before
    /// it: the controller hands ids out in order, and restore checks that
    /// its `req` lines ascend.
    pub(crate) fn insert(&mut self, id: u64, req: Req) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(
            id >= end,
            "in-flight id {id} is below the next free id {end}"
        );
        for _ in end..id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(req));
        self.len += 1;
    }

    /// Remove request `id`, then drop the resolved slots at the front.
    pub(crate) fn remove(&mut self, id: u64) -> Option<Req> {
        let i = self.index(id)?;
        let req = self.slots[i].take()?;
        self.len -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(req)
    }

    /// Live requests, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Req)> {
        let base = self.base;
        self.slots
            .iter()
            .zip(base..)
            .filter_map(|(slot, id)| slot.as_ref().map(|r| (id, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Loc;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn req(tag: u32) -> Req {
        Req {
            arrived: f64::from(tag),
            ops: 1.0,
            class: 0,
            attempt: 0,
            dispatch: tag,
            loc: Loc::Pending,
            exclude: None,
            traced: false,
        }
    }

    /// The table's live `(id, dispatch)` pairs in iteration order.
    fn live(t: &Inflight) -> Vec<(u64, u32)> {
        t.iter().map(|(id, r)| (id, r.dispatch)).collect()
    }

    #[test]
    fn an_emptied_table_keeps_no_slots_across_a_gap() {
        let mut t = Inflight::default();
        t.insert(3, req(3));
        t.insert(7, req(7));
        assert_eq!(t.slots.len(), 5);
        assert!(t.remove(3).is_some());
        assert_eq!((t.base, t.slots.len()), (7, 1));
        assert!(t.remove(7).is_some());
        assert!(t.slots.is_empty());
        t.insert(1 << 40, req(1));
        assert_eq!((t.len(), t.slots.len()), (1, 1));
        assert!(t.get(3).is_none() && t.get(u64::MAX).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings against a `BTreeMap` model: ascending
        /// inserts with gaps (shed arrivals), removals in any order, and
        /// reads and writes of live, resolved and never-issued ids. The
        /// first inserts replay restore's sequence: a burst of ascending
        /// ids into an empty table.
        #[test]
        fn matches_a_btreemap_model(
            restored in proptest::collection::vec(0u64..4, 0..12),
            ops in proptest::collection::vec((0u8..5, 0u64..6, 0usize..64), 0..300),
        ) {
            let mut t = Inflight::default();
            let mut model: BTreeMap<u64, Req> = BTreeMap::new();
            let mut next = 100u64;
            for gap in restored {
                next += gap;
                t.insert(next, req(next as u32));
                model.insert(next, req(next as u32));
                next += 1;
            }
            for (op, gap, pick) in ops {
                // Probe a live id, a never-issued one, or a low one that
                // may have resolved.
                let keys: Vec<u64> = model.keys().copied().collect();
                let id = match keys.get(pick % (keys.len() + 2)) {
                    Some(&k) => k,
                    None if pick % 2 == 0 => next + gap,
                    None => 100 + pick as u64,
                };
                match op {
                    0 | 1 => {
                        next += gap;
                        t.insert(next, req(next as u32));
                        model.insert(next, req(next as u32));
                        next += 1;
                    }
                    2 => {
                        let got = t.remove(id).map(|r| r.dispatch);
                        prop_assert_eq!(got, model.remove(&id).map(|r| r.dispatch));
                        prop_assert!(t.remove(id).is_none());
                    }
                    3 => {
                        if let (Some(a), Some(b)) = (t.get_mut(id), model.get_mut(&id)) {
                            a.attempt += 1;
                            b.attempt += 1;
                        }
                        prop_assert_eq!(t.get_mut(id).is_some(), model.contains_key(&id));
                    }
                    _ => {
                        prop_assert_eq!(t.contains_key(id), model.contains_key(&id));
                        prop_assert_eq!(
                            t.get(id).map(|r| (r.dispatch, r.attempt)),
                            model.get(&id).map(|r| (r.dispatch, r.attempt))
                        );
                    }
                }
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(t.is_empty(), model.is_empty());
                let want: Vec<(u64, u32)> = model.iter().map(|(&id, r)| (id, r.dispatch)).collect();
                prop_assert_eq!(live(&t), want);
                // One slot per id from the oldest live one to the newest
                // issued; none when nothing is live.
                prop_assert_eq!(
                    t.slots.len() as u64,
                    model.keys().next().map_or(0, |&lo| next - lo)
                );
            }
        }
    }
}
