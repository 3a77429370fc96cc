//! A slab-style arena owning all PCBs.
//!
//! Lookup structures in `tcpdemux-core` store [`PcbId`] handles, never PCBs
//! themselves, mirroring how a kernel's lookup chains hold pointers into a
//! PCB zone. The arena recycles slots through a free list with a generation
//! counter, so stale handles held by a forgetful cache can never alias a
//! new connection — exactly the bug class a real one-entry PCB cache must
//! guard against. (The stack's default table keeps bare slot indices
//! instead, and checks the key of whatever [`Arena::at`] finds there, so
//! a stale index can never answer for a new connection either.)
//!
//! The arena is generic over what a slot holds: [`PcbArena`] stores bare
//! [`Pcb`]s, and the stack instantiates [`Arena`] with its whole
//! per-connection value (the PCB plus its socket and sender state), so the
//! handle the demultiplexer returns resolves everything about the
//! connection with one index and one generation compare.

use crate::pcb::Pcb;
use core::fmt;

/// A stable handle to a PCB in a [`PcbArena`] (or to whatever an
/// [`Arena`] holds per connection).
///
/// Internally an index plus a generation; a handle from a removed PCB
/// (even if the slot was reused) fails to resolve instead of returning the
/// wrong connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PcbId {
    index: u32,
    generation: u32,
}

impl PcbId {
    /// The slot index (useful for dense per-PCB side tables in experiments).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Pack the handle into a `u64` (generation in the high word, index in
    /// the low word). Lock-free structures store handles in `AtomicU64`
    /// cells; the round trip through [`PcbId::from_bits`] is lossless.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Reconstruct a handle packed by [`PcbId::to_bits`].
    ///
    /// The bits are not validated against any arena — like any `PcbId`,
    /// the handle only resolves if the generation still matches.
    pub fn from_bits(bits: u64) -> Self {
        Self {
            index: bits as u32,
            generation: (bits >> 32) as u32,
        }
    }
}

impl fmt::Display for PcbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcb#{}.{}", self.index, self.generation)
    }
}

/// The capacity a full slot vector grows to so that it holds `need`
/// slots: the smallest m·2^k ≥ `need` with m in 8..=16, which leaves at
/// most an eighth of the slots spare, where `Vec`'s doubling leaves up to
/// half. Every power of two is on this grid, so no population gets more
/// slots than doubling would give it. Below 16 slots it is the next power
/// of two, at least 4, which is what `Vec` itself starts a slot vector
/// with.
///
/// Each growth copies the slots, about eight times as often as doubling
/// does; a slot is copied only when the arena outgrows its high-water
/// mark, and freed slots are reused first.
fn grown_capacity(need: usize) -> usize {
    if need <= 16 {
        return need.next_power_of_two().max(4);
    }
    // An eighth of the highest power of two not above `need`.
    let step = 1 << (need.ilog2() - 3);
    need.div_ceil(step) * step
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// Arena of per-connection values with O(1) insert, remove, and handle
/// resolution.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

/// The arena of bare PCBs.
pub type PcbArena = Arena<Pcb>;

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> Arena<T> {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an arena with capacity reserved for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a value, returning its handle.
    pub fn insert(&mut self, value: T) -> PcbId {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            PcbId {
                index,
                generation: slot.generation,
            }
        } else {
            let index = self.slots.len() as u32;
            if self.slots.len() == self.slots.capacity() {
                let grown = grown_capacity(self.slots.len() + 1);
                self.slots.reserve_exact(grown - self.slots.len());
            }
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            PcbId {
                index,
                generation: 0,
            }
        }
    }

    /// Resolve a handle to a shared reference, or `None` if the value was
    /// removed (even if its slot has since been reused).
    pub fn get(&self, id: PcbId) -> Option<&T> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Resolve a handle to an exclusive reference.
    pub fn get_mut(&mut self, id: PcbId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// The live value at slot `index` and its current handle, or `None`
    /// if the slot is empty or past the end. For a table that stores bare
    /// slot indices and checks what it finds there itself.
    #[inline]
    pub fn at(&self, index: u32) -> Option<(PcbId, &T)> {
        let slot = self.slots.get(index as usize)?;
        let id = PcbId {
            index,
            generation: slot.generation,
        };
        slot.value.as_ref().map(|value| (id, value))
    }

    /// Remove a value, returning it. The slot's generation is bumped so the
    /// handle (and any cached copies of it) becomes invalid.
    pub fn remove(&mut self, id: PcbId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.live -= 1;
        Some(value)
    }

    /// Iterate over `(id, &value)` for all live values in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (PcbId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.value.as_ref().map(|value| {
                (
                    PcbId {
                        index: i as u32,
                        generation: slot.generation,
                    },
                    value,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ConnectionKey;
    use std::net::Ipv4Addr;

    fn pcb(n: u8) -> Pcb {
        Pcb::new(ConnectionKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            80,
            Ipv4Addr::new(10, 0, 0, n),
            1000 + u16::from(n),
        ))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut arena = PcbArena::new();
        let id = arena.insert(pcb(1));
        assert_eq!(arena.len(), 1);
        assert!(!arena.is_empty());
        assert_eq!(arena.get(id).unwrap().key(), pcb(1).key());
    }

    #[test]
    fn remove_invalidates_handle() {
        let mut arena = PcbArena::new();
        let id = arena.insert(pcb(1));
        let removed = arena.remove(id).unwrap();
        assert_eq!(removed.key(), pcb(1).key());
        assert!(arena.get(id).is_none());
        assert!(arena.get_mut(id).is_none());
        assert!(arena.remove(id).is_none());
        assert!(arena.is_empty());
    }

    #[test]
    fn slot_reuse_does_not_alias() {
        let mut arena = PcbArena::new();
        let stale = arena.insert(pcb(1));
        arena.remove(stale).unwrap();
        let fresh = arena.insert(pcb(2));
        // Same slot, different generation.
        assert_eq!(stale.index(), fresh.index());
        assert_ne!(stale, fresh);
        assert!(arena.get(stale).is_none(), "stale handle must not resolve");
        assert_eq!(arena.get(fresh).unwrap().key(), pcb(2).key());
    }

    #[test]
    fn at_reads_a_slot_by_index_with_its_current_handle() {
        let mut arena = PcbArena::new();
        let stale = arena.insert(pcb(1));
        let index = stale.index() as u32;
        assert_eq!(
            arena.at(index).map(|(id, p)| (id, p.key())),
            Some((stale, pcb(1).key()))
        );
        arena.remove(stale).unwrap();
        assert!(arena.at(index).is_none(), "an empty slot holds nothing");
        let fresh = arena.insert(pcb(2));
        let (id, value) = arena.at(index).unwrap();
        assert_eq!((id, value.key()), (fresh, pcb(2).key()));
        assert!(arena.at(index + 1).is_none(), "past the end");
    }

    #[test]
    fn get_mut_mutates() {
        let mut arena = PcbArena::new();
        let id = arena.insert(pcb(1));
        arena.get_mut(id).unwrap().mss = 1460;
        assert_eq!(arena.get(id).unwrap().mss, 1460);
    }

    #[test]
    fn iter_visits_live_only() {
        let mut arena = PcbArena::new();
        let a = arena.insert(pcb(1));
        let b = arena.insert(pcb(2));
        let c = arena.insert(pcb(3));
        arena.remove(b).unwrap();
        let ids: Vec<_> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn out_of_range_handle_is_none() {
        let mut arena = PcbArena::new();
        let id = arena.insert(pcb(1));
        let mut other = PcbArena::new();
        assert!(other.get(id).is_none());
        assert!(other.remove(id).is_none());
        let _ = arena;
    }

    #[test]
    fn bits_round_trip() {
        let mut arena = PcbArena::new();
        let a = arena.insert(pcb(1));
        arena.remove(a).unwrap();
        let b = arena.insert(pcb(2)); // same slot, generation 1
        for id in [a, b] {
            assert_eq!(PcbId::from_bits(id.to_bits()), id);
        }
        assert_ne!(a.to_bits(), b.to_bits(), "generation must survive packing");
        // The stale handle reconstructed from bits still refuses to resolve.
        assert!(arena.get(PcbId::from_bits(a.to_bits())).is_none());
        assert!(arena.get(PcbId::from_bits(b.to_bits())).is_some());
    }

    #[test]
    fn growth_leaves_at_most_an_eighth_spare() {
        let on_grid = |cap: usize| {
            let shift = cap.trailing_zeros().min(cap.ilog2().saturating_sub(3));
            (8..=16).contains(&(cap >> shift))
        };
        let mut last = 0;
        for need in 1..=(1 << 16) + 1 {
            let cap = grown_capacity(need);
            assert!(cap >= need, "{need}: {cap}");
            let doubling = need.next_power_of_two().max(4);
            assert!(
                cap <= doubling,
                "{need}: {cap} beyond doubling's {doubling}"
            );
            assert!(cap >= last, "{need}: {cap} below {last}");
            if need <= 16 {
                assert_eq!(cap, doubling, "{need}");
            } else {
                assert!(on_grid(cap), "{need}: {cap} is off the grid");
                assert!(8 * cap <= 9 * need, "{need}: {cap} leaves over an eighth");
            }
            last = cap;
        }
        assert_eq!(grown_capacity(17), 18);
        assert_eq!(grown_capacity(16_385), 18_432);
        assert_eq!(grown_capacity(20_000), 20_480);
    }

    #[test]
    fn a_full_arena_grows_by_the_grid() {
        let mut arena = Arena::new();
        for i in 0..20_000u32 {
            let (len, cap) = (arena.slots.len(), arena.slots.capacity());
            arena.insert(i);
            if len == cap {
                assert_eq!(arena.slots.capacity(), grown_capacity(len + 1));
            }
        }
        assert_eq!(arena.slots.capacity(), 20_480);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut arena = PcbArena::with_capacity(100);
        assert!(arena.is_empty());
        let id = arena.insert(pcb(1));
        assert!(arena.get(id).is_some());
    }

    #[test]
    fn thousands_of_pcbs() {
        // The paper's scale: 2,000 connections, then churn.
        let mut arena = PcbArena::with_capacity(2000);
        let ids: Vec<_> = (0..2000)
            .map(|i| {
                arena.insert(Pcb::new(ConnectionKey::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    1521,
                    Ipv4Addr::from(0x0a000000 + i as u32),
                    40000,
                )))
            })
            .collect();
        assert_eq!(arena.len(), 2000);
        for id in &ids[..1000] {
            arena.remove(*id).unwrap();
        }
        assert_eq!(arena.len(), 1000);
        // Reinsert into recycled slots.
        for i in 0..1000u32 {
            arena.insert(Pcb::new(ConnectionKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                1521,
                Ipv4Addr::from(0x0b000000 + i),
                40000,
            )));
        }
        assert_eq!(arena.len(), 2000);
        assert_eq!(arena.iter().count(), 2000);
    }
}
