//! Partition keys, and a key → state map.
//!
//! When analysis finds an equality-join chain covering every positive
//! component (e.g. correlation on an RFID tag id), a match's events all
//! carry one value of the chained attribute, so construction only has to
//! look at instances carrying the anchor's. [`PartitionKey`] is that value
//! in hashable form. Analysis never chains through a float field, so an
//! event whose value cannot key does not match its declared schema; every
//! evaluator drops it. The evaluators keep their instances in
//! [`crate::KeyedStack`]s, one per slot, indexed by this key — the
//! partitioning optimization evaluated in experiment E11.
//!
//! [`PartitionMap`], one set of stacks per key swept whole on every purge
//! round, is what they used before; it is now only the reference loop the
//! benchmark's operator probe is built from.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use sequin_types::Value;

/// A hashable partition key derived from an attribute [`Value`].
///
/// Floats are rejected (no sane hash/equality): analysis builds no chain
/// through a float field, and an event that carries one where its schema
/// declares a keyable kind has no key and enters no stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartitionKey {
    /// Integer key.
    Int(i64),
    /// String key.
    Str(Arc<str>),
    /// Boolean key.
    Bool(bool),
}

impl PartitionKey {
    /// Derives a key from a value; `None` for floats.
    pub fn from_value(v: &Value) -> Option<PartitionKey> {
        match v {
            Value::Int(i) => Some(PartitionKey::Int(*i)),
            Value::Str(s) => Some(PartitionKey::Str(Arc::clone(s))),
            Value::Bool(b) => Some(PartitionKey::Bool(*b)),
            Value::Float(_) => None,
        }
    }
}

/// A map from partition key to per-partition operator state, with a
/// factory for lazily materializing shards.
#[derive(Debug)]
pub struct PartitionMap<T> {
    shards: HashMap<PartitionKey, T>,
}

impl<T> PartitionMap<T> {
    /// Creates an empty map.
    pub fn new() -> PartitionMap<T> {
        PartitionMap {
            shards: HashMap::new(),
        }
    }

    /// Returns the shard for `key`, creating it with `make` on first use.
    pub fn shard_mut(&mut self, key: PartitionKey, make: impl FnOnce() -> T) -> &mut T {
        match self.shards.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(make()),
        }
    }

    /// Returns the shard for `key` if it exists.
    pub fn shard(&self, key: &PartitionKey) -> Option<&T> {
        self.shards.get(key)
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shards exist.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Iterates all shards mutably (purge passes).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&PartitionKey, &mut T)> {
        self.shards.iter_mut()
    }

    /// Iterates all shards.
    pub fn iter(&self) -> impl Iterator<Item = (&PartitionKey, &T)> {
        self.shards.iter()
    }

    /// Drops shards for which `dead` returns true (fully-purged shards),
    /// returning how many were dropped.
    pub fn retain_live(&mut self, mut dead: impl FnMut(&T) -> bool) -> usize {
        let before = self.shards.len();
        self.shards.retain(|_, t| !dead(t));
        before - self.shards.len()
    }
}

impl<T> Default for PartitionMap<T> {
    fn default() -> Self {
        PartitionMap::new()
    }
}

impl sequin_types::Encode for PartitionKey {
    fn encode(&self, w: &mut sequin_types::Writer) {
        match self {
            PartitionKey::Int(v) => {
                w.put_u8(0);
                w.put_i64(*v);
            }
            PartitionKey::Str(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
            PartitionKey::Bool(b) => {
                w.put_u8(2);
                w.put_bool(*b);
            }
        }
    }
}

impl sequin_types::Decode for PartitionKey {
    fn decode(r: &mut sequin_types::Reader<'_>) -> Result<Self, sequin_types::CodecError> {
        match r.get_u8()? {
            0 => Ok(PartitionKey::Int(r.get_i64()?)),
            1 => Ok(PartitionKey::Str(Arc::from(&*r.get_str()?))),
            2 => Ok(PartitionKey::Bool(r.get_bool()?)),
            tag => Err(sequin_types::CodecError::InvalidTag {
                what: "PartitionKey",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_from_value() {
        assert_eq!(
            PartitionKey::from_value(&Value::Int(3)),
            Some(PartitionKey::Int(3))
        );
        assert_eq!(
            PartitionKey::from_value(&Value::str("t")),
            Some(PartitionKey::Str(Arc::from("t")))
        );
        assert_eq!(
            PartitionKey::from_value(&Value::Bool(true)),
            Some(PartitionKey::Bool(true))
        );
        assert_eq!(PartitionKey::from_value(&Value::Float(1.0)), None);
    }

    #[test]
    fn shard_lazily_materialized() {
        let mut m: PartitionMap<Vec<u32>> = PartitionMap::new();
        assert!(m.is_empty());
        m.shard_mut(PartitionKey::Int(1), Vec::new).push(10);
        m.shard_mut(PartitionKey::Int(1), Vec::new).push(20);
        m.shard_mut(PartitionKey::Int(2), Vec::new).push(30);
        assert_eq!(m.len(), 2);
        assert_eq!(m.shard(&PartitionKey::Int(1)), Some(&vec![10, 20]));
        assert_eq!(m.shard(&PartitionKey::Int(9)), None);
    }

    #[test]
    fn retain_live_drops_dead_shards() {
        let mut m: PartitionMap<Vec<u32>> = PartitionMap::new();
        m.shard_mut(PartitionKey::Int(1), Vec::new).push(1);
        m.shard_mut(PartitionKey::Int(2), Vec::new);
        assert_eq!(m.retain_live(|v| v.is_empty()), 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration() {
        let mut m: PartitionMap<u32> = PartitionMap::new();
        *m.shard_mut(PartitionKey::Bool(false), || 0) += 5;
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        let total: u32 = m.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, 6);
    }
}
