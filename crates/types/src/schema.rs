//! Interned event types and their attribute schemas.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::TypeError;
use crate::value::ValueKind;

/// A compact, interned identifier for an event type (e.g. `SHIPPED`).
///
/// Identifiers are dense indices into a [`TypeRegistry`], so operator state
/// can be arrays indexed by type rather than hash maps keyed by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventTypeId(u32);

impl EventTypeId {
    /// Returns the dense index of this type within its registry.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a dense index.
    ///
    /// Only meaningful for indices previously obtained from the same
    /// [`TypeRegistry`].
    #[inline]
    pub const fn from_index(ix: usize) -> EventTypeId {
        EventTypeId(ix as u32)
    }
}

impl fmt::Display for EventTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// A field (attribute) position within an event type's [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(u16);

impl FieldId {
    /// Returns the dense index of this field within its schema.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a field id from a dense index.
    #[inline]
    pub const fn from_index(ix: usize) -> FieldId {
        FieldId(ix as u16)
    }
}

/// The attribute layout of one event type: ordered `(name, kind)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: Arc<str>,
    fields: Vec<(Arc<str>, ValueKind)>,
}

impl Schema {
    /// Returns the event type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Looks a field up by name.
    pub fn field(&self, name: &str) -> Option<(FieldId, ValueKind)> {
        self.fields
            .iter()
            .position(|(n, _)| &**n == name)
            .map(|ix| (FieldId::from_index(ix), self.fields[ix].1))
    }

    /// Returns the kind of the field at `id`, if it exists.
    pub fn field_kind(&self, id: FieldId) -> Option<ValueKind> {
        self.fields.get(id.index()).map(|(_, k)| *k)
    }

    /// Returns the name of the field at `id`, if it exists.
    pub fn field_name(&self, id: FieldId) -> Option<&str> {
        self.fields.get(id.index()).map(|(n, _)| &**n)
    }

    /// Iterates over `(name, kind)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ValueKind)> {
        self.fields.iter().map(|(n, k)| (&**n, *k))
    }
}

/// Registry interning event type names and holding their schemas.
///
/// A registry is built once (typically while parsing a workload or query
/// setup) and then shared immutably (`Arc<TypeRegistry>`) by generators,
/// queries, and engines.
///
/// ```
/// use sequin_types::{TypeRegistry, ValueKind};
/// let mut reg = TypeRegistry::new();
/// let a = reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
/// assert_eq!(reg.lookup("A"), Some(a));
/// assert_eq!(reg.schema(a).name(), "A");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    by_name: HashMap<Arc<str>, EventTypeId>,
    schemas: Vec<Schema>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TypeRegistry::default()
    }

    /// Declares a new event type with the given attribute schema.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::DuplicateType`] if the name is already declared
    /// and [`TypeError::DuplicateField`] if two fields share a name.
    pub fn declare(
        &mut self,
        name: &str,
        fields: &[(&str, ValueKind)],
    ) -> Result<EventTypeId, TypeError> {
        if self.by_name.contains_key(name) {
            return Err(TypeError::DuplicateType(name.to_owned()));
        }
        for (i, (f, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(g, _)| g == f) {
                return Err(TypeError::DuplicateField {
                    ty: name.to_owned(),
                    field: (*f).to_owned(),
                });
            }
        }
        let id = EventTypeId(self.schemas.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.schemas.push(Schema {
            name: Arc::clone(&name),
            fields: fields.iter().map(|(n, k)| (Arc::from(*n), *k)).collect(),
        });
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Resolves a type name to its id.
    pub fn lookup(&self, name: &str) -> Option<EventTypeId> {
        self.by_name.get(name).copied()
    }

    /// Returns the schema for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry.
    pub fn schema(&self, id: EventTypeId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Returns the number of declared types.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Returns `true` when no types have been declared.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Iterates over all `(id, schema)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (EventTypeId, &Schema)> {
        self.schemas
            .iter()
            .enumerate()
            .map(|(ix, s)| (EventTypeId::from_index(ix), s))
    }

    /// A stable 64-bit fingerprint of the full schema: type names, field
    /// names, and field kinds, in declaration order.
    ///
    /// Two registries share a fingerprint iff they intern the same types
    /// the same way, so interned [`EventTypeId`]s and [`FieldId`]s mean the
    /// same thing on both sides. The wire protocol's HELLO negotiation
    /// compares client and server fingerprints before any event payload is
    /// interpreted.
    pub fn fingerprint(&self) -> u64 {
        let mut w = crate::codec::Writer::new();
        w.put_u64(self.schemas.len() as u64);
        for s in &self.schemas {
            w.put_str(s.name());
            w.put_u64(s.arity() as u64);
            for (name, kind) in s.iter() {
                w.put_str(name);
                let tag = match kind {
                    ValueKind::Int => 0u8,
                    ValueKind::Float => 1,
                    ValueKind::Str => 2,
                    ValueKind::Bool => 3,
                };
                w.put_u8(tag);
            }
        }
        crate::codec::fnv1a64(&w.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut reg = TypeRegistry::new();
        let a = reg
            .declare("A", &[("x", ValueKind::Int), ("y", ValueKind::Str)])
            .unwrap();
        let b = reg.declare("B", &[]).unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.lookup("A"), Some(a));
        assert_eq!(reg.lookup("B"), Some(b));
        assert_eq!(reg.lookup("C"), None);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn duplicate_type_rejected() {
        let mut reg = TypeRegistry::new();
        reg.declare("A", &[]).unwrap();
        let err = reg.declare("A", &[]).unwrap_err();
        assert!(matches!(err, TypeError::DuplicateType(_)));
    }

    #[test]
    fn duplicate_field_rejected() {
        let mut reg = TypeRegistry::new();
        let err = reg
            .declare("A", &[("x", ValueKind::Int), ("x", ValueKind::Str)])
            .unwrap_err();
        assert!(matches!(err, TypeError::DuplicateField { .. }));
    }

    #[test]
    fn schema_field_resolution() {
        let mut reg = TypeRegistry::new();
        let a = reg
            .declare("A", &[("x", ValueKind::Int), ("y", ValueKind::Float)])
            .unwrap();
        let schema = reg.schema(a);
        assert_eq!(schema.arity(), 2);
        let (fx, kx) = schema.field("x").unwrap();
        assert_eq!(fx.index(), 0);
        assert_eq!(kx, ValueKind::Int);
        assert_eq!(schema.field("z"), None);
        assert_eq!(schema.field_name(FieldId::from_index(1)), Some("y"));
        assert_eq!(
            schema.field_kind(FieldId::from_index(1)),
            Some(ValueKind::Float)
        );
        assert_eq!(schema.field_kind(FieldId::from_index(9)), None);
    }

    #[test]
    fn iter_walks_declaration_order() {
        let mut reg = TypeRegistry::new();
        reg.declare("A", &[]).unwrap();
        reg.declare("B", &[]).unwrap();
        let names: Vec<_> = reg.iter().map(|(_, s)| s.name().to_owned()).collect();
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn fingerprint_distinguishes_schemas() {
        let mut a = TypeRegistry::new();
        a.declare("A", &[("x", ValueKind::Int)]).unwrap();
        let mut same = TypeRegistry::new();
        same.declare("A", &[("x", ValueKind::Int)]).unwrap();
        assert_eq!(a.fingerprint(), same.fingerprint());

        let mut kind = TypeRegistry::new();
        kind.declare("A", &[("x", ValueKind::Float)]).unwrap();
        assert_ne!(a.fingerprint(), kind.fingerprint());

        let mut field = TypeRegistry::new();
        field.declare("A", &[("y", ValueKind::Int)]).unwrap();
        assert_ne!(a.fingerprint(), field.fingerprint());

        let mut name = TypeRegistry::new();
        name.declare("B", &[("x", ValueKind::Int)]).unwrap();
        assert_ne!(a.fingerprint(), name.fingerprint());

        let mut extra = TypeRegistry::new();
        extra.declare("A", &[("x", ValueKind::Int)]).unwrap();
        extra.declare("B", &[]).unwrap();
        assert_ne!(a.fingerprint(), extra.fingerprint());
    }

    #[test]
    fn schema_iter_yields_fields_in_order() {
        let mut reg = TypeRegistry::new();
        let a = reg
            .declare("A", &[("x", ValueKind::Int), ("y", ValueKind::Bool)])
            .unwrap();
        let fields: Vec<_> = reg.schema(a).iter().collect();
        assert_eq!(fields, [("x", ValueKind::Int), ("y", ValueKind::Bool)]);
    }
}
