//! An index-based doubly-linked PCB list with a struct-of-arrays layout.
//!
//! Every list-structured algorithm in the paper (BSD, move-to-front, the
//! send/receive cache, and each Sequent hash chain) needs the same three
//! operations a kernel's `inpcb` queue provides: scan from the head
//! counting entries examined, unlink in O(1) once found, and insert at the
//! head in O(1). `PcbList` provides exactly that, with explicit index
//! links (no unsafe, no pointer chasing across allocations).
//!
//! The scan order is the *list* order, which is what the paper's analysis
//! is about: the cost of a lookup is the 1-based position of the key.
//!
//! # Struct-of-arrays hot lane
//!
//! Storage is split for mechanical sympathy. The *hot* lane is one
//! `Vec<u64>` word per slot packing `(tag << 32) | next`, so a chain walk
//! touches a single contiguous array of 8-byte words: one load yields
//! both the 32-bit key tag (a prefilter — the full 96-bit
//! [`ConnectionKey`] is compared only when the tag matches) and the next
//! slot index. Everything a walk does *not* need on the common
//! non-matching step — the full key, the PCB handle, the back link, the
//! liveness flag — lives in parallel *cold* arrays touched only on a tag
//! hit or a structural mutation. Eight slots of hot lane share a cache
//! line where the old array-of-structs layout fit two nodes.
//!
//! The tag prefilter is invisible in the paper's cost model: a tag
//! comparison *is* the examination of that position, so `examined`
//! counts are byte-identical to a full-key walk (a property test pins
//! this against a Vec-of-pairs oracle, including crafted tag
//! collisions).

use tcpdemux_pcb::{ConnectionKey, PcbId};

/// Sentinel slot index meaning "no slot".
const NIL: u32 = u32::MAX;

// Additive-multiplicative mixer over the three key words. The weights are
// the usual odd 32-bit mixing constants; because each word contributes
// linearly (mod 2^32) the test suite can *craft* tag collisions
// deterministically with a modular inverse instead of birthday-searching.
const TAG_M0: u32 = 0x9E37_79B9;
const TAG_M1: u32 = 0x85EB_CA6B;
const TAG_M2: u32 = 0xC2B2_AE35;

/// The 32-bit prefilter tag stored in a slot's hot word alongside the
/// next link. Equal keys always have equal tags; unequal keys collide
/// with probability ~2^-32, in which case the walk falls back to the
/// full-key comparison and stays correct.
#[inline]
fn key_tag(key: &ConnectionKey) -> u32 {
    let [w0, w1, w2] = key.as_words();
    w0.wrapping_mul(TAG_M0)
        .wrapping_add(w1.wrapping_mul(TAG_M1))
        .wrapping_add(w2.wrapping_mul(TAG_M2))
}

#[inline]
fn pack(tag: u32, next: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(next)
}

/// A doubly-linked list of `(ConnectionKey, PcbId)` pairs in
/// struct-of-arrays form: `hot[i]` packs `(tag << 32) | next`, the cold
/// arrays hold everything a non-matching walk step never touches.
#[derive(Debug, Clone)]
pub struct PcbList {
    hot: Vec<u64>,
    keys: Vec<ConnectionKey>,
    ids: Vec<PcbId>,
    prev: Vec<u32>,
    live: Vec<bool>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for PcbList {
    fn default() -> Self {
        Self::new()
    }
}

impl PcbList {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            hot: Vec::new(),
            keys: Vec::new(),
            ids: Vec::new(),
            prev: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at the head, if any.
    pub fn front(&self) -> Option<(ConnectionKey, PcbId)> {
        (self.head != NIL).then(|| {
            let i = self.head as usize;
            (self.keys[i], self.ids[i])
        })
    }

    #[inline]
    fn next_of(&self, idx: u32) -> u32 {
        self.hot[idx as usize] as u32
    }

    #[inline]
    fn set_next(&mut self, idx: u32, next: u32) {
        let word = &mut self.hot[idx as usize];
        *word = (*word & !0xFFFF_FFFFu64) | u64::from(next);
    }

    /// Claim a slot (recycling freed ones) holding `key`/`id`, unlinked
    /// (`prev = next = NIL`), live. Returns its index.
    fn alloc(&mut self, key: ConnectionKey, id: PcbId) -> u32 {
        let tag = key_tag(&key);
        match self.free.pop() {
            Some(idx) => {
                let i = idx as usize;
                self.hot[i] = pack(tag, NIL);
                self.keys[i] = key;
                self.ids[i] = id;
                self.prev[i] = NIL;
                self.live[i] = true;
                idx
            }
            None => {
                let idx = self.hot.len() as u32;
                self.hot.push(pack(tag, NIL));
                self.keys.push(key);
                self.ids.push(id);
                self.prev.push(NIL);
                self.live.push(true);
                idx
            }
        }
    }

    /// Insert at the head (newest-first, the BSD convention).
    pub fn push_front(&mut self, key: ConnectionKey, id: PcbId) {
        let idx = self.alloc(key, id);
        if self.head == NIL {
            self.tail = idx;
        } else {
            self.prev[self.head as usize] = idx;
            self.set_next(idx, self.head);
        }
        self.head = idx;
        self.len += 1;
    }

    /// Insert at the tail.
    pub fn push_back(&mut self, key: ConnectionKey, id: PcbId) {
        let idx = self.alloc(key, id);
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.set_next(self.tail, idx);
            self.prev[idx as usize] = self.tail;
        }
        self.tail = idx;
        self.len += 1;
    }

    fn unlink(&mut self, idx: u32) {
        debug_assert!(self.live[idx as usize]);
        let prev = self.prev[idx as usize];
        let next = self.next_of(idx);
        if prev == NIL {
            self.head = next;
        } else {
            self.set_next(prev, next);
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
        self.live[idx as usize] = false;
        self.prev[idx as usize] = NIL;
        self.set_next(idx, NIL);
        self.len -= 1;
    }

    /// Scan from the head for `key`. Returns the PCB handle and the
    /// 1-based position at which it was found (the number of entries
    /// examined), or `None` along with the full list length examined.
    pub fn find(&self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        let tag = key_tag(key);
        let mut cursor = self.head;
        let mut examined = 0u32;
        while cursor != NIL {
            let word = self.hot[cursor as usize];
            examined += 1;
            if (word >> 32) as u32 == tag && self.keys[cursor as usize] == *key {
                return (Some(self.ids[cursor as usize]), examined);
            }
            cursor = word as u32;
        }
        (None, examined)
    }

    /// Scan for `key`; if found, unlink it and re-insert at the head
    /// (Crowcroft's move-to-front). Returns the handle and entries examined.
    pub fn find_move_to_front(&mut self, key: &ConnectionKey) -> (Option<PcbId>, u32) {
        let tag = key_tag(key);
        let mut cursor = self.head;
        let mut examined = 0u32;
        while cursor != NIL {
            let word = self.hot[cursor as usize];
            examined += 1;
            if (word >> 32) as u32 == tag && self.keys[cursor as usize] == *key {
                let id = self.ids[cursor as usize];
                if self.head != cursor {
                    self.unlink(cursor);
                    // Relink at head reusing the same slot.
                    let old_head = self.head;
                    debug_assert_ne!(old_head, NIL, "nonempty: key was behind head");
                    self.prev[old_head as usize] = cursor;
                    self.set_next(cursor, old_head);
                    self.prev[cursor as usize] = NIL;
                    self.live[cursor as usize] = true;
                    self.head = cursor;
                    self.len += 1;
                }
                return (Some(id), examined);
            }
            cursor = word as u32;
        }
        (None, examined)
    }

    /// Remove `key` from the list, returning its handle if present.
    pub fn remove(&mut self, key: &ConnectionKey) -> Option<PcbId> {
        let tag = key_tag(key);
        let mut cursor = self.head;
        while cursor != NIL {
            let word = self.hot[cursor as usize];
            if (word >> 32) as u32 == tag && self.keys[cursor as usize] == *key {
                let id = self.ids[cursor as usize];
                self.unlink(cursor);
                self.free.push(cursor);
                return Some(id);
            }
            cursor = word as u32;
        }
        None
    }

    /// Replace the handle stored for `key`, returning the old handle.
    /// Position in the list is unchanged.
    pub fn replace(&mut self, key: &ConnectionKey, id: PcbId) -> Option<PcbId> {
        let tag = key_tag(key);
        let mut cursor = self.head;
        while cursor != NIL {
            let word = self.hot[cursor as usize];
            if (word >> 32) as u32 == tag && self.keys[cursor as usize] == *key {
                return Some(core::mem::replace(&mut self.ids[cursor as usize], id));
            }
            cursor = word as u32;
        }
        None
    }

    /// Iterate `(key, id)` in list order (head first).
    pub fn iter(&self) -> ListIter<'_> {
        ListIter {
            list: self,
            cursor: self.head,
        }
    }
}

/// Iterator over a [`PcbList`] in list order.
#[derive(Debug)]
pub struct ListIter<'a> {
    list: &'a PcbList,
    cursor: u32,
}

impl Iterator for ListIter<'_> {
    type Item = (ConnectionKey, PcbId);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let i = self.cursor as usize;
        self.cursor = self.list.next_of(self.cursor);
        Some((self.list.keys[i], self.list.ids[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::key;
    use std::net::Ipv4Addr;
    use tcpdemux_pcb::{Pcb, PcbArena};
    use tcpdemux_testprop::check;

    fn ids(n: u32, arena: &mut PcbArena) -> Vec<PcbId> {
        (0..n).map(|i| arena.insert(Pcb::new(key(i)))).collect()
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
    fn push_back_orders_oldest_first() {
        let mut arena = PcbArena::new();
        let ids = ids(3, &mut arena);
        let mut list = PcbList::new();
        for i in 0..3 {
            list.push_back(key(i), ids[i as usize]);
        }
        let order: Vec<_> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec![key(0), key(1), key(2)]);
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
    fn remove_relinks() {
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
    fn slots_are_recycled() {
        let mut arena = PcbArena::new();
        let ids = ids(2, &mut arena);
        let mut list = PcbList::new();
        list.push_front(key(0), ids[0]);
        list.remove(&key(0));
        list.push_front(key(1), ids[1]);
        assert_eq!(list.hot.len(), 1, "slot not recycled");
        assert_eq!(list.find(&key(1)), (Some(ids[1]), 1));
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

    /// Because the tag is linear in the key words (mod 2^32), a second
    /// key with w2' = w2 + 1 and w1' = w1 - M2·M1⁻¹ has the *same* tag.
    /// The walk must fall through the false tag hit to the full-key
    /// comparison and keep exact `examined` counts.
    #[test]
    fn crafted_tag_collision_walks_correctly() {
        let base = ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            1521,
            Ipv4Addr::new(10, 0, 9, 9),
            40001,
        );
        let [w0, w1, w2] = base.as_words();
        let w1c = w1.wrapping_sub(TAG_M2.wrapping_mul(inv_u32(TAG_M1)));
        let w2c = w2.wrapping_add(1);
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

    /// Model-based test: a sequence of operations on PcbList agrees
    /// with a Vec-based reference model, including scan positions.
    /// This is the oracle pinning the SoA layout to the pre-refactor
    /// walk semantics across insert/remove/reorder churn.
    #[test]
    fn prop_matches_vec_model() {
        check("list_prop_matches_vec_model", |rng| {
            let ops = rng.vec_of(0, 200, |r| (r.u8_in(0, 6), r.u32_below(24)));
            let mut arena = PcbArena::new();
            let mut list = PcbList::new();
            let mut model: Vec<(ConnectionKey, PcbId)> = Vec::new();

            for (op, n) in ops {
                let k = key(n);
                match op {
                    0 => {
                        // push_front if absent (lists hold unique keys here)
                        if !model.iter().any(|(mk, _)| *mk == k) {
                            let id = arena.insert(Pcb::new(k));
                            list.push_front(k, id);
                            model.insert(0, (k, id));
                        }
                    }
                    1 => {
                        let (got, examined) = list.find(&k);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model[pos].1));
                                assert_eq!(examined as usize, pos + 1);
                            }
                            None => {
                                assert_eq!(got, None);
                                assert_eq!(examined as usize, model.len());
                            }
                        }
                    }
                    2 => {
                        let (got, examined) = list.find_move_to_front(&k);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model[pos].1));
                                assert_eq!(examined as usize, pos + 1);
                                let entry = model.remove(pos);
                                model.insert(0, entry);
                            }
                            None => {
                                assert_eq!(got, None);
                                assert_eq!(examined as usize, model.len());
                            }
                        }
                    }
                    3 => {
                        // push_back if absent
                        if !model.iter().any(|(mk, _)| *mk == k) {
                            let id = arena.insert(Pcb::new(k));
                            list.push_back(k, id);
                            model.push((k, id));
                        }
                    }
                    4 => {
                        let replacement = arena.insert(Pcb::new(k));
                        let got = list.replace(&k, replacement);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model[pos].1));
                                model[pos].1 = replacement;
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                    _ => {
                        let got = list.remove(&k);
                        match model.iter().position(|(mk, _)| *mk == k) {
                            Some(pos) => {
                                assert_eq!(got, Some(model.remove(pos).1));
                            }
                            None => assert_eq!(got, None),
                        }
                    }
                }
                assert_eq!(list.len(), model.len());
                let order: Vec<_> = list.iter().collect();
                assert_eq!(order, model.clone());
            }
        });
    }
}
