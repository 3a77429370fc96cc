//! The walk every chain shares: a list held as a dense tag lane in reverse
//! list order and scanned at streaming speed.
//!
//! Every list-structured algorithm in the paper (BSD, move-to-front, the
//! send/receive cache, and each Sequent hash chain) needs the same three
//! operations a kernel's `inpcb` queue provides: scan from the head
//! counting entries examined, take an entry out once found, and insert
//! at the head. They are all chains of one structure, each a region of
//! one pair of lanes (see [`SequentDemux`](crate::SequentDemux)); this
//! module holds what every chain's walk uses: the tag, [`index_in`],
//! which confirms a tag hit through whatever the lanes hold — a key of
//! their own, or an index into the connections that hold the keys
//! ([`KeylessSequent`](crate::KeylessSequent)) — and [`examined`], the
//! walk's count.
//!
//! The scan order is the *list* order, which is what the paper's analysis
//! is about: the cost of a lookup is the 1-based position of the key.
//!
//! # Dense lanes in reverse list order
//!
//! A list is two parallel runs of slots with no links, no free list and
//! no holes: `tags[i]` is a 32-bit prefilter of the key in slot `i`.
//! They are held in *reverse* list order — the head is the last element —
//! so inserting at the head is a push, and the entry at index `i` sits
//! at 1-based list position `len - i`.
//!
//! A walk scans the tag lane backwards from the head in blocks of
//! [`BLOCK`] tags. A block is compared as a whole, branch-free, so no
//! load waits on the one before it — a linked walk takes its next index
//! out of the word it has just loaded and pays a load-to-use latency per
//! entry; this streams sixteen tags per cache line — and the compiler
//! vectorises the compare at the default target. Only a block that holds
//! a matching tag is entered, and only a matching tag sends the walk to
//! the cold slot lane to confirm the full 96-bit [`ConnectionKey`]: a tag
//! collision costs one cold probe and never a wrong answer. The fewer
//! than `BLOCK` oldest entries left over at the tail (a whole short
//! list) are walked one tag at a time.
//!
//! The tag prefilter is invisible in the paper's cost model: a tag
//! comparison *is* the examination of that position, so `examined` is
//! the position the key was found at (or the list length on a miss),
//! exactly what a full-key walk reports. Tests pin this on one-chain
//! tables at every length and position, against crafted tag collisions
//! in and across blocks, and against the linked list this layout
//! replaced.

use tcpdemux_pcb::ConnectionKey;

// Additive-multiplicative mixer over the three key words. The weights are
// the usual odd 32-bit mixing constants; because each word contributes
// linearly (mod 2^32) the test suite can *craft* tag collisions
// deterministically with a modular inverse instead of birthday-searching.
const TAG_M0: u32 = 0x9E37_79B9;
const TAG_M1: u32 = 0x85EB_CA6B;
const TAG_M2: u32 = 0xC2B2_AE35;

/// The 32-bit prefilter tag kept in the tag lane. Equal keys always have
/// equal tags; unequal keys collide with probability ~2^-32, in which
/// case the walk falls back to the full-key comparison and stays correct.
#[inline]
pub(crate) fn key_tag(key: &ConnectionKey) -> u32 {
    let [w0, w1, w2] = key.as_words();
    w0.wrapping_mul(TAG_M0)
        .wrapping_add(w1.wrapping_mul(TAG_M1))
        .wrapping_add(w2.wrapping_mul(TAG_M2))
}

/// Tags compared per step of a walk: one 64-byte line of the tag lane.
const BLOCK: usize = 16;

/// Index in `tags` of the slot nearest the head (tags held in reverse
/// list order) whose tag is `tag` and which `confirm(i)` accepts. The
/// walk of one chain's region of the lanes
/// [`SequentDemux`](crate::SequentDemux) and
/// [`KeylessSequent`](crate::KeylessSequent) share among their chains,
/// whose `confirm` compares the key kept beside the tags or the key in
/// the connection's own slot. `confirm` runs only behind a matching tag.
// Forced into its callers: left to the compiler it stays a call of its
// own, which costs a walk of up to ~50 entries 2–5 ns.
#[inline(always)]
pub(crate) fn index_in(tags: &[u32], tag: u32, confirm: impl Fn(usize) -> bool) -> Option<usize> {
    let mut end = tags.len();
    while end >= BLOCK {
        let start = end - BLOCK;
        let block: &[u32; BLOCK] = tags[start..end].try_into().expect("BLOCK tags");
        if block.iter().fold(false, |hit, &t| hit | (t == tag)) {
            // Sixteen compares over a fixed-size block, each followed by
            // its confirm, which the compiler unrolls. A rescan over the
            // slice (`rposition`) stayed a loop and cost a `sequent(19)`
            // hit at N = 2,000 ~10 ns; finding the tag first and
            // confirming after let the compiler fold the search into the
            // block test, at 5–10 ns a hit; a bitmask of the block cost a
            // miss past 500 entries half as much again (EXPERIMENTS A14,
            // A18).
            for j in (0..BLOCK).rev() {
                if block[j] == tag && confirm(start + j) {
                    return Some(start + j);
                }
            }
        }
        end = start;
    }
    (0..end).rev().find(|&i| tags[i] == tag && confirm(i))
}

/// `examined` for a walk of a `len`-entry list that ended at `index`:
/// its 1-based list position, or the whole list on a miss.
#[inline]
pub(crate) fn examined(len: usize, index: Option<usize>) -> u32 {
    (len - index.unwrap_or(0)) as u32
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_util::key;
    use crate::{ChainPolicy, Demux, PacketKind, SequentDemux};
    use std::net::Ipv4Addr;
    use tcpdemux_hash::Multiplicative;
    use tcpdemux_pcb::{Pcb, PcbArena, PcbId};

    type Entry = (ConnectionKey, PcbId);

    fn ids(n: u32, arena: &mut PcbArena) -> Vec<PcbId> {
        (0..n).map(|i| arena.insert(Pcb::new(key(i)))).collect()
    }

    /// A one-chain table under `policy` whose head-first order is `order`.
    fn one_chain(order: &[Entry], policy: ChainPolicy) -> SequentDemux<Multiplicative> {
        let mut table = SequentDemux::with_policy(Multiplicative, 1, policy);
        for &(k, id) in order.iter().rev() {
            table.preload(k, id);
        }
        table
    }

    /// A lookup of `probe`, an insert of it under `replacement` and a
    /// remove of it, each on a one-chain table in `order`, agree with a
    /// `Vec` walked from the front: same handle, same `examined`, same
    /// resulting order. The lookup runs uncached and with move-to-front.
    fn assert_ops_match_model(order: &[Entry], probe: ConnectionKey, replacement: PcbId) {
        let pos = order.iter().position(|(k, _)| *k == probe);
        let handle = pos.map(|p| order[p].1);
        let examined = pos.map_or(order.len(), |p| p + 1) as u32;
        let context = format!("len {} position {pos:?}", order.len());
        let order_of = |table: &SequentDemux<_>| table.iter_entries().collect::<Vec<_>>();

        for policy in [ChainPolicy::Uncached, ChainPolicy::MoveToFront] {
            let mut table = one_chain(order, policy);
            let got = table.lookup(&probe, PacketKind::Data);
            assert_eq!(
                (got.pcb, got.examined),
                (handle, examined),
                "{policy:?}, {context}"
            );
            let mut model = order.to_vec();
            if let Some(p) = pos.filter(|_| policy == ChainPolicy::MoveToFront) {
                model[..=p].rotate_right(1);
            }
            assert_eq!(order_of(&table), model, "{policy:?}, {context}");
        }

        let mut table = one_chain(order, ChainPolicy::Uncached);
        let mut model = order.to_vec();
        match pos {
            Some(p) => model[p].1 = replacement,
            None => model.insert(0, (probe, replacement)),
        }
        table.insert(probe, replacement);
        assert_eq!(order_of(&table), model, "insert, {context}");

        let mut table = one_chain(order, ChainPolicy::Uncached);
        let mut model = order.to_vec();
        if let Some(p) = pos {
            model.remove(p);
        }
        assert_eq!(table.remove(&probe), handle, "remove, {context}");
        assert_eq!(table.len(), model.len(), "{context}");
        assert_eq!(order_of(&table), model, "remove, {context}");
    }

    /// Every length around one, two and five blocks, every position and
    /// the miss: 15/16/17 and 31/32/33 are where a block boundary, the
    /// short remainder and the head block trade places.
    #[test]
    fn every_length_and_position_matches_the_model() {
        let mut arena = PcbArena::new();
        let ids = ids(82, &mut arena);
        for len in 0..=80u32 {
            let order: Vec<Entry> = (0..len).map(|i| (key(i), ids[i as usize])).collect();
            for probe in 0..=len {
                // `probe == len` is absent from the list.
                assert_ops_match_model(&order, key(probe), ids[81]);
            }
        }
    }

    /// Multiplicative inverse mod 2^32 of an odd `a`, by Newton
    /// iteration: each step doubles the number of correct low bits and
    /// `x = a` is already correct mod 8, so five steps reach 2^32.
    fn inv_u32(a: u32) -> u32 {
        assert!(a % 2 == 1);
        let mut x = a;
        for _ in 0..5 {
            x = x.wrapping_mul(2u32.wrapping_sub(a.wrapping_mul(x)));
        }
        assert_eq!(a.wrapping_mul(x), 1);
        x
    }

    /// Because the tag is linear in the key words (mod 2^32), the key
    /// with w2' = w2 + n and w1' = w1 - n·M2·M1⁻¹ has the *same* tag as
    /// `base` for every `n`.
    pub(crate) fn collider(base: ConnectionKey, n: u32) -> ConnectionKey {
        let [w0, w1, w2] = base.as_words();
        let w1c = w1.wrapping_sub(n.wrapping_mul(TAG_M2).wrapping_mul(inv_u32(TAG_M1)));
        let w2c = w2.wrapping_add(n);
        let collider = ConnectionKey::new(
            Ipv4Addr::from(w0),
            (w2c >> 16) as u16,
            Ipv4Addr::from(w1c),
            w2c as u16,
        );
        assert_ne!(base, collider, "must be distinct keys");
        assert_eq!(
            key_tag(&base),
            key_tag(&collider),
            "construction must collide tags"
        );
        collider
    }

    pub(crate) fn collision_base() -> ConnectionKey {
        ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1521,
            Ipv4Addr::new(10, 0, 9, 9),
            40001,
        )
    }

    /// The walk must fall through a false tag hit to the full-key
    /// comparison and keep exact `examined` counts.
    #[test]
    fn crafted_tag_collision_walks_correctly() {
        let base = collision_base();
        let collider = collider(base, 1);
        let mut arena = PcbArena::new();
        let id_base = arena.insert(Pcb::new(base));
        let id_coll = arena.insert(Pcb::new(collider));
        let id_new = arena.insert(Pcb::new(base));
        let walk = |table: &mut SequentDemux<Multiplicative>, k: &ConnectionKey| {
            let r = table.lookup(k, PacketKind::Data);
            (r.pcb, r.examined)
        };
        // Order: collider first, so a lookup of `base` takes a false
        // tag hit at position 1 before matching at position 2.
        let [mut list, mut mtf] = [ChainPolicy::Uncached, ChainPolicy::MoveToFront]
            .map(|policy| one_chain(&[(collider, id_coll), (base, id_base)], policy));

        assert_eq!(walk(&mut list, &collider), (Some(id_coll), 1));
        assert_eq!(walk(&mut list, &base), (Some(id_base), 2));
        // Same through the mutating paths.
        list.insert(base, id_new);
        assert_eq!(list.len(), 2, "a replace, not a second entry");
        assert_eq!(walk(&mut list, &base), (Some(id_new), 2));
        assert_eq!(walk(&mut list, &collider), (Some(id_coll), 1));
        assert_eq!(walk(&mut mtf, &base), (Some(id_base), 2));
        assert_eq!(walk(&mut mtf, &base), (Some(id_base), 1));
        assert_eq!(mtf.remove(&collider), Some(id_coll));
        assert_eq!(walk(&mut mtf, &collider), (None, 1));
    }

    /// Colliding tags wherever a block scan could trip on them. A list of
    /// 40 is a head block (positions 1–16), a second block (17–32) and a
    /// short remainder (33–40).
    #[test]
    fn crafted_collisions_in_and_across_blocks() {
        let base = collision_base();
        let mut arena = PcbArena::new();
        let filler = ids(40, &mut arena);
        let id_base = arena.insert(Pcb::new(base));
        let spare = arena.insert(Pcb::new(base));
        // (position of `base` or none, positions of the colliders), 1-based.
        let cases: [(Option<usize>, &[usize]); 9] = [
            (Some(25), &[20]),        // same block, collider nearer the head
            (Some(20), &[25]),        // same block, collider further away
            (Some(25), &[18, 30]),    // same block, one on each side
            (Some(25), &[3]),         // collider in an earlier block
            (Some(36), &[5, 21, 34]), // a false hit in every region first
            (Some(16), &[17]),        // either side of a block boundary
            (Some(17), &[16]),
            (None, &[9]),             // the only tag hit of a miss
            (None, &[2, 19, 33, 40]), // … and one per region
        ];
        for (base_at, colliders_at) in cases {
            let mut order: Vec<Entry> = (0..40).map(|i| (key(i), filler[i as usize])).collect();
            for (n, &at) in colliders_at.iter().enumerate() {
                let k = collider(base, n as u32 + 1);
                order[at - 1] = (k, arena.insert(Pcb::new(k)));
            }
            if let Some(at) = base_at {
                order[at - 1] = (base, id_base);
            }
            assert_ops_match_model(&order, base, spare);
            for &at in colliders_at {
                assert_ops_match_model(&order, order[at - 1].0, spare);
            }
        }
    }

    /// The index-linked list the dense lanes replaced, kept as the
    /// reference they must reproduce count for count.
    pub(crate) mod linked {
        use super::super::key_tag;
        use tcpdemux_pcb::{ConnectionKey, PcbId};

        const NIL: u32 = u32::MAX;

        fn pack(tag: u32, next: u32) -> u64 {
            (u64::from(tag) << 32) | u64::from(next)
        }

        pub(crate) struct List {
            hot: Vec<u64>,
            keys: Vec<ConnectionKey>,
            ids: Vec<PcbId>,
            prev: Vec<u32>,
            free: Vec<u32>,
            head: u32,
        }

        impl List {
            pub(crate) fn new() -> Self {
                Self {
                    hot: Vec::new(),
                    keys: Vec::new(),
                    ids: Vec::new(),
                    prev: Vec::new(),
                    free: Vec::new(),
                    head: NIL,
                }
            }

            fn next_of(&self, idx: u32) -> u32 {
                self.hot[idx as usize] as u32
            }

            fn set_next(&mut self, idx: u32, next: u32) {
                let word = &mut self.hot[idx as usize];
                *word = (*word & !0xFFFF_FFFFu64) | u64::from(next);
            }

            fn link_at_head(&mut self, idx: u32) {
                if self.head != NIL {
                    self.prev[self.head as usize] = idx;
                }
                self.set_next(idx, self.head);
                self.prev[idx as usize] = NIL;
                self.head = idx;
            }

            pub(crate) fn push_front(&mut self, key: ConnectionKey, id: PcbId) {
                let word = pack(key_tag(&key), NIL);
                let idx = match self.free.pop() {
                    Some(idx) => {
                        let i = idx as usize;
                        (self.hot[i], self.keys[i], self.ids[i]) = (word, key, id);
                        idx
                    }
                    None => {
                        self.hot.push(word);
                        self.keys.push(key);
                        self.ids.push(id);
                        self.prev.push(NIL);
                        self.hot.len() as u32 - 1
                    }
                };
                self.link_at_head(idx);
            }

            fn unlink(&mut self, idx: u32) {
                let prev = self.prev[idx as usize];
                let next = self.next_of(idx);
                if prev == NIL {
                    self.head = next;
                } else {
                    self.set_next(prev, next);
                }
                if next != NIL {
                    self.prev[next as usize] = prev;
                }
            }

            /// The slot holding `key` and the entries examined to reach it.
            fn walk(&self, key: &ConnectionKey) -> (Option<u32>, u32) {
                let tag = key_tag(key);
                let mut cursor = self.head;
                let mut examined = 0u32;
                while cursor != NIL {
                    let word = self.hot[cursor as usize];
                    examined += 1;
                    if (word >> 32) as u32 == tag && self.keys[cursor as usize] == *key {
                        return (Some(cursor), examined);
                    }
                    cursor = word as u32;
                }
                (None, examined)
            }

            pub(crate) fn find(&self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
                let (slot, examined) = self.walk(key);
                (slot.map(|s| self.ids[s as usize]), examined)
            }

            pub(crate) fn find_move_to_front(
                &mut self,
                key: &ConnectionKey,
            ) -> (Option<PcbId>, u32) {
                let (slot, examined) = self.walk(key);
                if let Some(s) = slot.filter(|&s| s != self.head) {
                    self.unlink(s);
                    self.link_at_head(s);
                }
                (slot.map(|s| self.ids[s as usize]), examined)
            }

            pub(crate) fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
                let slot = self.walk(key).0?;
                self.unlink(slot);
                self.free.push(slot);
                Some(self.ids[slot as usize])
            }

            pub(crate) fn replace(&mut self, key: &ConnectionKey, id: PcbId) -> Option<PcbId> {
                let slot = self.walk(key).0?;
                Some(core::mem::replace(&mut self.ids[slot as usize], id))
            }

            /// Insert at the head, or replace the handle in place.
            pub(crate) fn insert(&mut self, key: ConnectionKey, id: PcbId) {
                if self.replace(&key, id).is_none() {
                    self.push_front(key, id);
                }
            }
        }
    }
}
