//! Object classes and per-frame label sets.
//!
//! The paper's five datasets cover cars, buses, trucks, persons and boats.
//! A frame's ground truth is the *set* of classes visible in it; an **event**
//! is a maximal run of frames with the same label set (Section IV of the
//! paper defines events exactly this way).

use serde::{Deserialize, Serialize};

/// An object class that can appear in a scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectClass {
    /// Passenger car.
    Car,
    /// Bus.
    Bus,
    /// Truck.
    Truck,
    /// Pedestrian.
    Person,
    /// Boat.
    Boat,
}

impl ObjectClass {
    /// All supported classes.
    pub const ALL: [ObjectClass; 5] = [
        ObjectClass::Car,
        ObjectClass::Bus,
        ObjectClass::Truck,
        ObjectClass::Person,
        ObjectClass::Boat,
    ];

    /// Stable bit index used by [`LabelSet`].
    fn bit(self) -> u8 {
        match self {
            ObjectClass::Car => 0,
            ObjectClass::Bus => 1,
            ObjectClass::Truck => 2,
            ObjectClass::Person => 3,
            ObjectClass::Boat => 4,
        }
    }

    /// Typical width:height aspect ratio of the rendered sprite.
    pub fn aspect(self) -> f32 {
        match self {
            ObjectClass::Car => 1.8,
            ObjectClass::Bus => 2.8,
            ObjectClass::Truck => 2.4,
            ObjectClass::Person => 0.45,
            ObjectClass::Boat => 2.2,
        }
    }

    /// Relative size multiplier against the dataset's base object scale
    /// (buses are bigger than cars, people smaller, etc.).
    pub fn size_factor(self) -> f32 {
        match self {
            ObjectClass::Car => 1.2,
            ObjectClass::Bus => 1.6,
            ObjectClass::Truck => 1.4,
            ObjectClass::Person => 0.8,
            ObjectClass::Boat => 1.1,
        }
    }
}

impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ObjectClass::Car => "car",
            ObjectClass::Bus => "bus",
            ObjectClass::Truck => "truck",
            ObjectClass::Person => "person",
            ObjectClass::Boat => "boat",
        };
        write!(f, "{s}")
    }
}

/// The set of object classes visible in a frame, stored as a 5-bit mask.
///
/// ```
/// use sieve_datasets::{LabelSet, ObjectClass};
/// let mut l = LabelSet::empty();
/// assert!(l.is_empty());
/// l.insert(ObjectClass::Car);
/// l.insert(ObjectClass::Person);
/// assert!(l.contains(ObjectClass::Car));
/// assert_eq!(l.to_string(), "car+person");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LabelSet(u8);

impl LabelSet {
    /// The empty set ("no label" in the paper's terms).
    pub fn empty() -> Self {
        Self(0)
    }

    /// A set with one class.
    #[cfg(test)]
    pub fn single(class: ObjectClass) -> Self {
        Self(1 << class.bit())
    }

    /// Builds a set from classes.
    fn from_classes<I: IntoIterator<Item = ObjectClass>>(classes: I) -> Self {
        let mut s = Self::empty();
        for c in classes {
            s.insert(c);
        }
        s
    }

    /// True if no class is present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of classes present.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Adds a class.
    pub fn insert(&mut self, class: ObjectClass) {
        self.0 |= 1 << class.bit();
    }

    /// Removes a class.
    pub fn remove(&mut self, class: ObjectClass) {
        self.0 &= !(1 << class.bit());
    }

    /// Membership test.
    pub fn contains(&self, class: ObjectClass) -> bool {
        self.0 & (1 << class.bit()) != 0
    }

    /// Iterator over the classes present, in bit order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectClass> + '_ {
        ObjectClass::ALL
            .into_iter()
            .filter(move |c| self.contains(*c))
    }

    /// Rebuilds from a raw bitmask, ignoring unknown bits.
    // lint:allow(dead-pub): tests/proptests.rs draws label sets as random bitmasks
    pub fn from_bits(bits: u8) -> Self {
        Self(bits & 0b1_1111)
    }
}

impl std::fmt::Display for LabelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "(none)");
        }
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<ObjectClass> for LabelSet {
    fn from_iter<I: IntoIterator<Item = ObjectClass>>(iter: I) -> Self {
        Self::from_classes(iter)
    }
}

/// A maximal run of frames sharing one label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Index of the first frame of the event.
    pub start: usize,
    /// Number of frames in the event.
    pub len: usize,
    /// The label set shared by every frame of the event.
    pub labels: LabelSet,
}

impl Event {
    /// Index one past the last frame of the event.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Segments a per-frame label sequence into events (maximal constant runs).
///
/// ```
/// use sieve_datasets::{segment_events, LabelSet, ObjectClass};
/// let none = LabelSet::empty();
/// let mut car = none;
/// car.insert(ObjectClass::Car);
/// let frames = vec![none, none, car, car, car, none];
/// let events = segment_events(&frames);
/// assert_eq!(events.len(), 3);
/// assert_eq!(events[1].start, 2);
/// assert_eq!(events[1].len, 3);
/// ```
pub fn segment_events(labels: &[LabelSet]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut i = 0;
    while i < labels.len() {
        let l = labels[i];
        let start = i;
        while i < labels.len() && labels[i] == l {
            i += 1;
        }
        events.push(Event {
            start,
            len: i - start,
            labels: l,
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip_all_classes() {
        for c in ObjectClass::ALL {
            assert_eq!(LabelSet::from_bits(1 << c.bit()), LabelSet::single(c));
        }
    }

    #[test]
    fn labelset_insert_remove() {
        let mut l = LabelSet::empty();
        l.insert(ObjectClass::Boat);
        l.insert(ObjectClass::Car);
        assert_eq!(l.len(), 2);
        l.remove(ObjectClass::Boat);
        assert!(!l.contains(ObjectClass::Boat));
        assert!(l.contains(ObjectClass::Car));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn labelset_bits_roundtrip() {
        let l = LabelSet::from_classes([ObjectClass::Bus, ObjectClass::Person]);
        assert_eq!(LabelSet::from_bits(l.0), l);
        // Unknown bits are masked off.
        assert_eq!(LabelSet::from_bits(0xFF).len(), 5);
    }

    #[test]
    fn labelset_display() {
        assert_eq!(LabelSet::empty().to_string(), "(none)");
        let l = LabelSet::from_classes([ObjectClass::Car, ObjectClass::Truck]);
        assert_eq!(l.to_string(), "car+truck");
    }

    #[test]
    fn empty_sequence_has_no_events() {
        assert!(segment_events(&[]).is_empty());
    }

    #[test]
    fn single_run_is_one_event() {
        let car = LabelSet::single(ObjectClass::Car);
        let ev = segment_events(&[car; 5]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].start, 0);
        assert_eq!(ev[0].len, 5);
        assert_eq!(ev[0].end(), 5);
    }

    #[test]
    fn events_partition_the_sequence() {
        let a = LabelSet::empty();
        let b = LabelSet::single(ObjectClass::Person);
        let seq = vec![a, b, b, a, a, b];
        let events = segment_events(&seq);
        let total: usize = events.iter().map(|e| e.len).sum();
        assert_eq!(total, seq.len());
        // Adjacent events always differ in labels.
        for w in events.windows(2) {
            assert_ne!(w[0].labels, w[1].labels);
        }
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn from_iterator() {
        let l: LabelSet = [ObjectClass::Car, ObjectClass::Car, ObjectClass::Boat]
            .into_iter()
            .collect();
        assert_eq!(l.len(), 2);
    }
}
