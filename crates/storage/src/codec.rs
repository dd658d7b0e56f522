//! Fixed-width binary encoding of raw trace records.
//!
//! A raw digital-trace record is the tuple `<entity, location, start, end>` as it
//! would arrive from a WiFi controller or check-in feed.  Records are encoded
//! little-endian into exactly `TraceRecord::ENCODED_LEN` bytes so that a page
//! holds a predictable number of records and the external sort can reason about
//! page counts precisely.

use bytes::BufMut;
use trace_model::{EntityId, Period, PresenceInstance, SpatialUnitId};

/// A raw trace record: one presence of one entity at one spatial unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceRecord {
    /// The entity id.
    pub entity: u64,
    /// The base spatial unit of the presence.
    pub unit: SpatialUnitId,
    /// Start tick (inclusive).
    pub start: u64,
    /// End tick (exclusive).
    pub end: u64,
}

impl TraceRecord {
    /// Encoded size in bytes: 8 (entity) + 4 (unit) + 8 (start) + 8 (end).
    pub(crate) const ENCODED_LEN: usize = 28;

    /// Builds a record from a [`PresenceInstance`].
    pub fn from_presence(pi: &PresenceInstance) -> Self {
        TraceRecord {
            entity: pi.entity.raw(),
            unit: pi.unit,
            start: pi.period.start,
            end: pi.period.end,
        }
    }

    /// Converts back into a [`PresenceInstance`].
    pub(crate) fn to_presence(self) -> PresenceInstance {
        PresenceInstance::new(
            EntityId(self.entity),
            self.unit,
            Period::new(self.start, self.end).expect("record periods are normalised"),
        )
    }

    /// Encodes the record into a buffer.
    pub(crate) fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(self.entity);
        buf.put_u32_le(self.unit);
        buf.put_u64_le(self.start);
        buf.put_u64_le(self.end);
    }

    /// Decodes a record from its [`Self::ENCODED_LEN`] encoded bytes (the
    /// page decoder's hot loop: every bound is known up front).
    pub(crate) fn from_encoded(encoded: &[u8; Self::ENCODED_LEN]) -> Self {
        let u64_at = |at: usize| {
            u64::from_le_bytes(encoded[at..at + 8].try_into().expect("8 bytes inside the record"))
        };
        let unit = u32::from_le_bytes(encoded[8..12].try_into().expect("4 bytes"));
        TraceRecord { entity: u64_at(0), unit, start: u64_at(12), end: u64_at(20) }
    }
}

#[cfg(test)]
impl TraceRecord {
    /// Creates a record, normalising an inverted period to an empty one.
    pub(crate) fn new(entity: u64, unit: SpatialUnitId, start: u64, end: u64) -> Self {
        TraceRecord { entity, unit, start, end: end.max(start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encoded_len_matches_constant() {
        let mut buf = Vec::new();
        TraceRecord::new(1, 2, 3, 4).encode(&mut buf);
        assert_eq!(buf.len(), TraceRecord::ENCODED_LEN);
    }

    #[test]
    fn round_trip_through_bytes() {
        let rec = TraceRecord::new(u64::MAX, u32::MAX, 123, 456);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let decoded = TraceRecord::from_encoded(buf.as_slice().try_into().unwrap());
        assert_eq!(decoded, rec);
    }

    #[test]
    fn inverted_periods_are_normalised() {
        let rec = TraceRecord::new(1, 1, 100, 50);
        assert_eq!((rec.start, rec.end), (100, 100));
    }

    #[test]
    fn presence_round_trip() {
        let pi = PresenceInstance::new(EntityId(9), 4, Period::new(10, 70).unwrap());
        let rec = TraceRecord::from_presence(&pi);
        assert_eq!(rec.to_presence(), pi);
    }

    #[test]
    fn ordering_is_entity_major() {
        let a = TraceRecord::new(1, 9, 100, 200);
        let b = TraceRecord::new(2, 0, 0, 1);
        assert!(a < b);
    }

    proptest! {
        #[test]
        fn codec_round_trip_prop(entity in any::<u64>(), unit in any::<u32>(),
                                 start in any::<u64>(), len in 0u64..1_000_000) {
            let rec = TraceRecord::new(entity, unit, start, start.saturating_add(len));
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            prop_assert_eq!(buf.len(), TraceRecord::ENCODED_LEN);
            let decoded = TraceRecord::from_encoded(buf.as_slice().try_into().unwrap());
            prop_assert_eq!(decoded, rec);
        }
    }
}
