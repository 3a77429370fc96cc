//! A PCB list held as two dense lanes and scanned at streaming speed.
//!
//! Every list-structured algorithm in the paper (BSD, move-to-front, the
//! send/receive cache, and each Sequent hash chain) needs the same three
//! operations a kernel's `inpcb` queue provides: scan from the head
//! counting entries examined, take an entry out once found, and insert
//! at the head. `PcbList` provides exactly that. The Sequent structures
//! keep all their chains as regions of one pair of lanes instead (see
//! [`SequentDemux`](crate::SequentDemux)), walked by the same
//! [`index_in`], which confirms a tag hit through whatever the lanes
//! hold: a key of their own, or an index into the connections that hold
//! the keys ([`KeylessSequent`](crate::KeylessSequent)).
//!
//! The scan order is the *list* order, which is what the paper's analysis
//! is about: the cost of a lookup is the 1-based position of the key.
//!
//! # Dense lanes in reverse list order
//!
//! A list is two parallel vectors with no links, no free list and no
//! holes: `tags[i]` is a 32-bit prefilter of the key in `entries[i]`.
//! They are held in *reverse* list order — the head is the last element —
//! so inserting at the head is a `push`, and the entry at index `i` sits
//! at 1-based list position `len - i`.
//!
//! A walk scans the tag lane backwards from the head in blocks of
//! [`BLOCK`] tags. A block is compared as a whole, branch-free, so no
//! load waits on the one before it — a linked walk takes its next index
//! out of the word it has just loaded and pays a load-to-use latency per
//! entry; this streams sixteen tags per cache line — and the compiler
//! vectorises the compare at the default target. Only a block that holds
//! a matching tag is entered, and only a matching tag sends the walk to
//! the cold `entries` lane to confirm the full 96-bit [`ConnectionKey`]:
//! a tag collision costs one cold probe and never a wrong answer. The
//! fewer than `BLOCK` oldest entries left over at the tail (a whole short
//! list) are walked one tag at a time.
//!
//! The tag prefilter is invisible in the paper's cost model: a tag
//! comparison *is* the examination of that position, so `examined` is
//! the position the key was found at (or the list length on a miss),
//! exactly what a full-key walk reports. Tests pin this against a
//! Vec-of-pairs oracle and against the linked list this layout replaced,
//! including crafted tag collisions.
//!
//! Moving an entry to the head shifts the `examined - 1` entries that
//! were in front of it, and so does removing one: a `memmove` over lines
//! the lookup that found the entry has just read.

use tcpdemux_pcb::{ConnectionKey, PcbId};

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

/// One entry of the entries lane.
pub(crate) type Entry = (ConnectionKey, PcbId);

/// Index in `tags` of the slot nearest the head (tags held in reverse
/// list order) whose tag is `tag` and which `confirm(i)` accepts. The
/// walk of every list held this way: a [`PcbList`], whose `confirm`
/// compares the key in its entries lane, and one chain's region of the
/// lanes [`SequentDemux`](crate::SequentDemux) and
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

/// A list of `(ConnectionKey, PcbId)` pairs as two dense lanes in reverse
/// list order (the head is the last element): `tags[i]` prefilters
/// `entries[i]`.
#[derive(Debug, Clone, Default)]
pub struct PcbList {
    tags: Vec<u32>,
    entries: Vec<Entry>,
}

impl PcbList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The entry at the head, if any.
    pub fn front(&self) -> Option<(ConnectionKey, PcbId)> {
        self.entries.last().copied()
    }

    /// Insert at the head (newest-first, the BSD convention).
    pub fn push_front(&mut self, key: ConnectionKey, id: PcbId) {
        self.tags.push(key_tag(&key));
        self.entries.push((key, id));
    }

    /// Index of `key` in the lanes.
    #[inline(always)]
    fn index_of(&self, key: &ConnectionKey) -> Option<usize> {
        index_in(&self.tags, key_tag(key), |i| self.entries[i].0 == *key)
    }

    /// `examined` for a walk that ended at `index`.
    #[inline]
    fn examined(&self, index: Option<usize>) -> u32 {
        examined(self.tags.len(), index)
    }

    /// Scan from the head for `key`. Returns the PCB handle and the
    /// 1-based position at which it was found (the number of entries
    /// examined), or `None` along with the full list length examined.
    // `#[inline]` here and on `find_move_to_front`, the two per-packet
    // operations, so the generic tiers instantiated in other crates walk
    // without a call: 3–6 ns of every lookup.
    #[inline]
    pub fn find(&self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        let index = self.index_of(key);
        (index.map(|i| self.entries[i].1), self.examined(index))
    }

    /// Scan for `key`; if found, take it out and re-insert it at the head
    /// (Crowcroft's move-to-front). Returns the handle and entries examined.
    #[inline]
    pub fn find_move_to_front(&mut self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        let index = self.index_of(key);
        let examined = self.examined(index);
        let Some(i) = index else {
            return (None, examined);
        };
        // Not `rotate_left(1)`, which below 24 elements juggles them one
        // at a time: two of those on a five-entry chain cost more than
        // the walk.
        let (tag, entry) = (self.tags[i], self.entries[i]);
        self.tags.copy_within(i + 1.., i);
        self.entries.copy_within(i + 1.., i);
        let head = self.tags.len() - 1;
        (self.tags[head], self.entries[head]) = (tag, entry);
        (Some(entry.1), examined)
    }

    /// Remove `key` from the list, returning its handle if present.
    pub fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let i = self.index_of(key)?;
        self.tags.remove(i);
        Some(self.entries.remove(i).1)
    }

    /// Replace the handle stored for `key`, returning the old handle.
    /// Position in the list is unchanged.
    pub fn replace(&mut self, key: &ConnectionKey, id: PcbId) -> Option<PcbId> {
        let i = self.index_of(key)?;
        Some(core::mem::replace(&mut self.entries[i].1, id))
    }

    /// Iterate `(key, id)` in list order (head first).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (ConnectionKey, PcbId)> + '_ {
        self.entries.iter().rev().copied()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_util::key;
    use crate::{BsdDemux, Demux, MtfDemux, PacketKind, SequentDemux};
    use std::net::Ipv4Addr;
    use tcpdemux_hash::{KeyHasher, Multiplicative};
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_testprop::{check_cases, sweep_seeds, TestRng};

    type Entry = (ConnectionKey, PcbId);

    fn ids(n: u32, arena: &mut PcbArena) -> Vec<PcbId> {
        (0..n).map(|i| arena.insert(Pcb::new(key(i)))).collect()
    }

    /// A list whose head-first order is `order`.
    fn list_of(order: &[Entry]) -> PcbList {
        let mut list = PcbList::new();
        for &(k, id) in order.iter().rev() {
            list.push_front(k, id);
        }
        list
    }

    /// `find`, `find_move_to_front`, `replace` and `remove` of `probe` on
    /// a list in `order` agree with a `Vec` walked from the front: same
    /// handle, same `examined`, same resulting order.
    fn assert_ops_match_model(order: &[Entry], probe: ConnectionKey, replacement: PcbId) {
        let pos = order.iter().position(|(k, _)| *k == probe);
        let handle = pos.map(|p| order[p].1);
        let examined = pos.map_or(order.len(), |p| p + 1) as u32;
        let context = format!("len {} position {pos:?}", order.len());

        let list = list_of(order);
        assert_eq!(list.find(&probe), (handle, examined), "find, {context}");
        assert_eq!(list.iter().collect::<Vec<_>>(), order, "{context}");
        assert_eq!(list.front(), order.first().copied(), "{context}");

        let mut list = list_of(order);
        let mut model = order.to_vec();
        if let Some(p) = pos {
            model[..=p].rotate_right(1);
        }
        assert_eq!(
            list.find_move_to_front(&probe),
            (handle, examined),
            "move to front, {context}"
        );
        assert_eq!(list.iter().collect::<Vec<_>>(), model, "{context}");

        let mut list = list_of(order);
        let mut model = order.to_vec();
        if let Some(p) = pos {
            model[p].1 = replacement;
        }
        assert_eq!(
            list.replace(&probe, replacement),
            handle,
            "replace, {context}"
        );
        assert_eq!(list.iter().collect::<Vec<_>>(), model, "{context}");

        let mut list = list_of(order);
        let mut model = order.to_vec();
        if let Some(p) = pos {
            model.remove(p);
        }
        assert_eq!(list.remove(&probe), handle, "remove, {context}");
        assert_eq!(list.len(), model.len(), "{context}");
        assert_eq!(list.iter().collect::<Vec<_>>(), model, "{context}");
    }

    #[test]
    fn push_front_orders_newest_first() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in 0..3 {
            list.push_front(key(i), ids[i as usize]);
        }
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(1), key(0)]);
        assert_eq!(list.front().unwrap().0, key(2));
    }

    #[test]
    fn find_reports_position() {
        let mut arena = PcbArena::new();
        let ids = ids(5, &mut arena);
        let mut list = PcbList::new();
        for i in (0..5).rev() {
            list.push_front(key(i), ids[i as usize]); // order: 0,1,2,3,4
        }
        for i in 0..5u32 {
            let (found, examined) = list.find(&key(i));
            assert_eq!(found, Some(ids[i as usize]));
            assert_eq!(examined, i + 1);
        }
        let (missing, examined) = list.find(&key(99));
        assert_eq!(missing, None);
        assert_eq!(examined, 5);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut arena = PcbArena::new();
        let ids = ids(4, &mut arena);
        let mut list = PcbList::new();
        for i in (0..4).rev() {
            list.push_front(key(i), ids[i as usize]); // order: 0,1,2,3
        }
        let (found, examined) = list.find_move_to_front(&key(2));
        assert_eq!(found, Some(ids[2]));
        assert_eq!(examined, 3);
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(0), key(1), key(3)]);
        // Finding the head is 1 probe and leaves order unchanged.
        let (_, examined) = list.find_move_to_front(&key(2));
        assert_eq!(examined, 1);
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(0), key(1), key(3)]);
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn move_to_front_of_tail() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in (0..3).rev() {
            list.push_front(key(i), ids[i as usize]); // order: 0,1,2
        }
        let (found, _) = list.find_move_to_front(&key(2));
        assert_eq!(found, Some(ids[2]));
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(2), key(0), key(1)]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn remove_closes_the_gap() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in (0..3).rev() {
            list.push_front(key(i), ids[i as usize]); // 0,1,2
        }
        assert_eq!(list.remove(&key(1)), Some(ids[1]));
        assert_eq!(list.len(), 2);
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(0), key(2)]);
        assert_eq!(list.remove(&key(1)), None);
        // Remove head and tail.
        assert_eq!(list.remove(&key(0)), Some(ids[0]));
        assert_eq!(list.remove(&key(2)), Some(ids[2]));
        assert!(list.is_empty());
        assert_eq!(list.front(), None);
    }

    #[test]
    fn remove_then_push_neither_grows_nor_reorders() {
        let mut arena = PcbArena::new();
        let ids = ids(140, &mut arena);
        let mut model: Vec<Entry> = (0..40).map(|i| (key(i), ids[i as usize])).collect();
        let mut list = list_of(&model);
        for fresh in 40..140u32 {
            let (victim, id) = model.remove((fresh as usize * 7) % 40);
            assert_eq!(list.remove(&victim), Some(id));
            model.insert(0, (key(fresh), ids[fresh as usize]));
            list.push_front(key(fresh), ids[fresh as usize]);
            assert_eq!(list.len(), 40);
            assert!(list.iter().eq(model.iter().copied()));
        }
    }

    #[test]
    fn replace_keeps_position() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in (0..3).rev() {
            list.push_front(key(i), ids[i as usize]);
        }
        let replacement = arena.insert(Pcb::new(key(1)));
        assert_eq!(list.replace(&key(1), replacement), Some(ids[1]));
        let (found, examined) = list.find(&key(1));
        assert_eq!(found, Some(replacement));
        assert_eq!(examined, 2);
        assert_eq!(list.replace(&key(42), replacement), None);
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
        let mut list = PcbList::new();
        // Order: collider first, so a lookup of `base` takes a false
        // tag hit at position 1 before matching at position 2.
        list.push_front(base, id_base);
        list.push_front(collider, id_coll);

        assert_eq!(list.find(&collider), (Some(id_coll), 1));
        assert_eq!(list.find(&base), (Some(id_base), 2));
        // Same through the mutating paths.
        assert_eq!(list.replace(&base, id_base), Some(id_base));
        let (found, examined) = list.find_move_to_front(&base);
        assert_eq!((found, examined), (Some(id_base), 2));
        assert_eq!(list.find(&base), (Some(id_base), 1));
        assert_eq!(list.remove(&collider), Some(id_coll));
        assert_eq!(list.find(&collider), (None, 1));
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

    /// Model-based test: a long sequence of operations on `PcbList`
    /// agrees with a Vec-based reference model, including scan positions,
    /// on lists that grow past a dozen blocks.
    #[test]
    fn prop_matches_vec_model() {
        const KEYS: u32 = 320;
        check_cases("list_prop_matches_vec_model", sweep_seeds(8), |rng| {
            let mut arena = PcbArena::new();
            let mut list = PcbList::new();
            let mut model: Vec<Entry> = Vec::new();

            for _ in 0..rng.usize_in(2000, 2400) {
                let k = key(rng.u32_below(KEYS));
                let pos = model.iter().position(|(mk, _)| *mk == k);
                let examined = pos.map_or(model.len(), |p| p + 1) as u32;
                match rng.u8_in(0, 6) {
                    // push_front if absent (lists hold unique keys)
                    0 | 1 => {
                        if pos.is_none() {
                            let id = arena.insert(Pcb::new(k));
                            list.push_front(k, id);
                            model.insert(0, (k, id));
                        }
                    }
                    2 => {
                        assert_eq!(list.find(&k), (pos.map(|p| model[p].1), examined));
                    }
                    3 => {
                        let got = list.find_move_to_front(&k);
                        assert_eq!(got, (pos.map(|p| model[p].1), examined));
                        if let Some(p) = pos {
                            model[..=p].rotate_right(1);
                        }
                    }
                    4 => {
                        let replacement = arena.insert(Pcb::new(k));
                        let got = list.replace(&k, replacement);
                        assert_eq!(got, pos.map(|p| model[p].1));
                        if let Some(p) = pos {
                            model[p].1 = replacement;
                        }
                    }
                    _ => {
                        assert_eq!(list.remove(&k), pos.map(|p| model.remove(p).1));
                    }
                }
                assert_eq!(list.len(), model.len());
                assert_eq!(list.front(), model.first().copied());
                assert!(list.iter().eq(model.iter().copied()));
            }
        });
    }

    /// The parent commit's index-linked `PcbList`, kept as the reference
    /// the dense lanes must reproduce count for count.
    mod linked {
        use super::super::key_tag;
        use tcpdemux_pcb::{ConnectionKey, PcbId};

        const NIL: u32 = u32::MAX;

        fn pack(tag: u32, next: u32) -> u64 {
            (u64::from(tag) << 32) | u64::from(next)
        }

        pub struct PcbList {
            hot: Vec<u64>,
            keys: Vec<ConnectionKey>,
            ids: Vec<PcbId>,
            prev: Vec<u32>,
            free: Vec<u32>,
            head: u32,
        }

        impl PcbList {
            pub fn new() -> Self {
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

            pub fn push_front(&mut self, key: ConnectionKey, id: PcbId) {
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

            #[inline]
            pub fn find(&self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
                let (slot, examined) = self.walk(key);
                (slot.map(|s| self.ids[s as usize]), examined)
            }

            #[inline]
            pub fn find_move_to_front(&mut self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
                let (slot, examined) = self.walk(key);
                if let Some(s) = slot.filter(|&s| s != self.head) {
                    self.unlink(s);
                    self.link_at_head(s);
                }
                (slot.map(|s| self.ids[s as usize]), examined)
            }

            pub fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
                let slot = self.walk(key).0?;
                self.unlink(slot);
                self.free.push(slot);
                Some(self.ids[slot as usize])
            }

            pub fn replace(&mut self, key: &ConnectionKey, id: PcbId) -> Option<PcbId> {
                let slot = self.walk(key).0?;
                Some(core::mem::replace(&mut self.ids[slot as usize], id))
            }
        }
    }

    /// BSD, and one Sequent chain, over the linked reference: a list and
    /// a one-entry last-found cache, probed first at a cost of one.
    struct LinkedCachedChain {
        list: linked::PcbList,
        cache: Option<Entry>,
    }

    impl LinkedCachedChain {
        fn new() -> Self {
            Self {
                list: linked::PcbList::new(),
                cache: None,
            }
        }

        fn insert(&mut self, key: ConnectionKey, id: PcbId) {
            if self.list.replace(&key, id).is_none() {
                self.list.push_front(key, id);
            } else if self.cache.is_some_and(|(ck, _)| ck == key) {
                self.cache = Some((key, id));
            }
        }

        fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
            if self.cache.is_some_and(|(ck, _)| ck == *key) {
                self.cache = None;
            }
            self.list.remove(key)
        }

        fn lookup(&mut self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
            if let Some((_, id)) = self.cache.filter(|(ck, _)| ck == key) {
                return (Some(id), 1);
            }
            let (found, scanned) = self.list.find(key);
            let examined = u32::from(self.cache.is_some()) + scanned;
            if let Some(id) = found {
                self.cache = Some((*key, id));
            }
            (found, examined)
        }
    }

    /// `BsdDemux`, `MtfDemux` and `SequentDemux(19)` over the dense lanes
    /// examine, lookup for lookup and in total, exactly what the same
    /// algorithms examine over the parent's linked list, through 10,000
    /// lookups (hits and misses) interleaved with inserts and removes.
    #[test]
    fn paper_algorithms_examine_what_they_did_over_the_linked_list() {
        const KEYS: u32 = 1500;
        const CHAINS: usize = 19;
        for seed in 0..u64::from(sweep_seeds(2)) {
            let mut rng = TestRng::from_seed(0x11_57ed ^ seed);
            let mut arena = PcbArena::new();
            let mut bsd = BsdDemux::new();
            let mut mtf = MtfDemux::new();
            let mut sequent = SequentDemux::new(Multiplicative, CHAINS);
            let mut linked_bsd = LinkedCachedChain::new();
            let mut linked_mtf = linked::PcbList::new();
            let mut linked_sequent: Vec<_> =
                (0..CHAINS).map(|_| LinkedCachedChain::new()).collect();
            let mut linked_totals = [0u64; 3];

            let mut lookups = 0;
            while lookups < 10_000 {
                let k = key(rng.u32_below(KEYS));
                let chain = &mut linked_sequent[Multiplicative.bucket(&k, CHAINS)];
                // Insert-heavy until the table holds about two thirds of
                // the key space, so most lookups hit and chains are long.
                match rng.u8_in(0, 10) {
                    0 | 1 => {
                        let id = arena.insert(Pcb::new(k));
                        bsd.insert(k, id);
                        mtf.insert(k, id);
                        sequent.insert(k, id);
                        linked_bsd.insert(k, id);
                        if linked_mtf.replace(&k, id).is_none() {
                            linked_mtf.push_front(k, id);
                        }
                        chain.insert(k, id);
                    }
                    2 => {
                        let expected = linked_bsd.remove(&k);
                        assert_eq!(linked_mtf.remove(&k), expected);
                        assert_eq!(chain.remove(&k), expected);
                        assert_eq!(bsd.remove(&k), expected);
                        assert_eq!(mtf.remove(&k), expected);
                        assert_eq!(sequent.remove(&k), expected);
                    }
                    _ => {
                        lookups += 1;
                        let expected = [
                            linked_bsd.lookup(&k),
                            linked_mtf.find_move_to_front(&k),
                            chain.lookup(&k),
                        ];
                        let demuxes: [&mut dyn Demux; 3] = [&mut bsd, &mut mtf, &mut sequent];
                        for ((demux, want), total) in
                            demuxes.into_iter().zip(expected).zip(&mut linked_totals)
                        {
                            let got = demux.lookup(&k, PacketKind::Data);
                            assert_eq!((got.pcb, got.examined), want, "{}", demux.name());
                            *total += u64::from(want.1);
                        }
                    }
                }
            }
            let totals = [&bsd as &dyn Demux, &mtf, &sequent].map(|d| d.stats().pcbs_examined);
            assert_eq!(totals, linked_totals, "seed {seed}");
            assert!(bsd.len() > 500, "trace must keep lists long: {}", bsd.len());
        }
    }
}
